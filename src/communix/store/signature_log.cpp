#include "communix/store/signature_log.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

namespace communix::store {

struct SignatureLog::Segment {
  std::array<StoredSignature, kSegmentSize> slots;
  /// Superseded side-flags, one per slot. Kept apart from the entry so a
  /// mark never writes memory a lock-free scan is reading.
  std::array<std::atomic<bool>, kSegmentSize> superseded{};
};

SignatureLog::SignatureLog()
    : segments_(new std::atomic<Segment*>[kMaxSegments]) {
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    segments_[i].store(nullptr, std::memory_order_relaxed);
  }
}

SignatureLog::~SignatureLog() {
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    delete segments_[i].load(std::memory_order_relaxed);
  }
}

StoredSignature* SignatureLog::SlotForAppend(std::uint64_t index) {
  if (index >= kCapacity) {
    std::fprintf(stderr, "SignatureLog: capacity (%llu) exhausted\n",
                 static_cast<unsigned long long>(kCapacity));
    std::abort();
  }
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  Segment* segment = segments_[seg].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Segment();
    // Release so a reader that chases this pointer after the acquiring
    // load of published_ sees a fully constructed segment.
    segments_[seg].store(segment, std::memory_order_release);
  }
  return &segment->slots[index & (kSegmentSize - 1)];
}

std::uint64_t SignatureLog::Append(StoredSignature entry) {
  std::lock_guard lock(append_mu_);
  const std::uint64_t index = published_.load(std::memory_order_relaxed);
  *SlotForAppend(index) = std::move(entry);
  // Publish: every write above happens-before a reader's acquire of the
  // new length.
  published_.store(index + 1, std::memory_order_release);
  return index;
}

const StoredSignature& SignatureLog::At(std::uint64_t index) const {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  Segment* segment = segments_[seg].load(std::memory_order_acquire);
  return segment->slots[index & (kSegmentSize - 1)];
}

void SignatureLog::Visit(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const StoredSignature&)>& fn)
    const {
  const std::uint64_t n = std::min(upto, size());
  std::uint64_t i = from;
  while (i < n) {
    // One segment-pointer chase per segment, not per entry: a per-entry
    // acquire load (a cache-miss-prone indirection on the shared atomic
    // array) dominated whole-database scans (fig2 `scan_cost`).
    const std::size_t seg = static_cast<std::size_t>(i >> kSegmentBits);
    const Segment* segment = segments_[seg].load(std::memory_order_acquire);
    const std::uint64_t seg_end =
        std::min<std::uint64_t>(n, (static_cast<std::uint64_t>(seg) + 1)
                                       << kSegmentBits);
    for (; i < seg_end; ++i) {
      fn(i, segment->slots[i & (kSegmentSize - 1)]);
    }
  }
}

bool SignatureLog::MarkSuperseded(std::uint64_t index) {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  Segment* segment = segments_[seg].load(std::memory_order_acquire);
  const bool first = !segment->superseded[index & (kSegmentSize - 1)].exchange(
      true, std::memory_order_acq_rel);
  if (first) superseded_.fetch_add(1, std::memory_order_acq_rel);
  return first;
}

bool SignatureLog::IsSuperseded(std::uint64_t index) const {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  const Segment* segment = segments_[seg].load(std::memory_order_acquire);
  return segment->superseded[index & (kSegmentSize - 1)].load(
      std::memory_order_acquire);
}

void SignatureLog::Reset(std::vector<StoredSignature> entries) {
  std::lock_guard lock(append_mu_);
  published_.store(0, std::memory_order_release);
  superseded_.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    delete segments_[i].load(std::memory_order_relaxed);
    segments_[i].store(nullptr, std::memory_order_relaxed);
  }
  std::uint64_t index = 0;
  std::uint64_t marked = 0;
  for (auto& e : entries) {
    const bool superseded = e.superseded;
    *SlotForAppend(index) = std::move(e);
    if (superseded) {
      const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
      segments_[seg].load(std::memory_order_relaxed)
          ->superseded[index & (kSegmentSize - 1)]
          .store(true, std::memory_order_relaxed);
      ++marked;
    }
    ++index;
  }
  superseded_.store(marked, std::memory_order_release);
  published_.store(index, std::memory_order_release);
}

}  // namespace communix::store
