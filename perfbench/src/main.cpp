// perfbench — one end-to-end benchmark over real daemons.
//
//   perfbench --workload publish|poll|immunity --seed N --seconds S
//             --trace 0|1 --server-bin PATH --out-dir DIR
//
// --trace 0: the workload runs against forked communix_server daemons
// and the last stdout line carries the end-to-end metrics (kEndToEnd).
// --trace 1: the workload runs twice for S/2 seconds each — untraced on
// daemons, then traced on the same tiers hosted in this process — and
// the last line carries the per-layer metrics (kPerLayer) plus the
// tracing overhead (traced / untraced - 1) of every end-to-end metric
// but peak_rss_mb. Spans and a per-layer self-time summary are written
// under DIR. Every workload prints every metric of its mode.
//
// Every run checks the program's outputs; the result's "correct" is
// false if any check failed. perfbench/run.py builds this binary and is
// the command to use; see perfbench/README.md.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/logging.hpp"

namespace perfbench {
namespace {

/// Load threads and connections any workload uses at once.
constexpr unsigned kLoadThreads = 4;
constexpr unsigned kLoadConnections = 4;

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The metrics of `have` named in `want`, in that order. A metric that is
/// missing, in another unit, not finite or 0 is a failed check: every
/// workload measures every one of them on every run.
std::vector<Metric> Select(
    const std::vector<Metric>& have,
    const std::vector<std::pair<std::string, std::string>>& want,
    RunResult* result) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : want) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == have.end() || it->unit != unit || !std::isfinite(it->value) ||
        it->value == 0) {
      result->problems.push_back("metric " + name + " was not measured");
      out.push_back({name, 0, unit});
    } else {
      out.push_back(*it);
    }
  }
  return out;
}

std::string Fingerprint(const std::string& workload, std::uint64_t seed,
                        double seconds, int trace) {
  utsname u{};
  ::uname(&u);
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  return std::string("{") + "\"workload\": " + Quote(workload) +
         ", \"seed\": " + std::to_string(seed) + ", \"seconds\": " +
         Num(seconds) + ", \"trace\": " + std::to_string(trace) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"kernel\": " + Quote(std::string(u.sysname) + " " + u.release) +
         ", \"git_commit\": " + Quote(commit ? commit : "unknown") +
         ", \"source_digest\": " + Quote(digest ? digest : "unknown") + "}";
}

/// Steal and total CPU ticks of the host so far (/proc/stat "cpu" line).
std::pair<double, double> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  char label[8] = {};
  unsigned long long v[10] = {};
  const int n = std::fscanf(f, "%7s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                            label, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (n < 9) return {0, 0};
  double total = 0;
  for (int i = 0; i < 8; ++i) total += static_cast<double>(v[i]);
  return {static_cast<double>(v[7]), total};
}

RunResult RunWorkload(const std::string& name, const WorkloadArgs& args) {
  if (name == "publish") return RunPublish(args);
  if (name == "poll") return RunPoll(args);
  return RunImmunity(args);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload publish|poll|immunity --seed N "
               "--seconds S --trace 0|1 --server-bin PATH --out-dir DIR\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload, server_bin, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--server-bin") server_bin = value;
    else if (flag == "--out-dir") out_dir = value;
    else return Usage();
  }
  if (argc % 2 == 0 ||
      (workload != "publish" && workload != "poll" && workload != "immunity") ||
      server_bin.empty() || out_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  // Load comes from one process with at most nproc threads and at most
  // nproc connections; a smaller host would measure the generator.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < kLoadThreads || nproc < kLoadConnections) {
    std::fprintf(stderr,
                 "perfbench needs nproc >= %u (load threads/connections), "
                 "host has %u\n",
                 kLoadThreads, nproc);
    return 1;
  }
  communix::SetLogLevel(communix::LogLevel::kWarn);
  // Fixed allocator thresholds for this process (the forked daemons keep
  // glibc's defaults): with the dynamic ones, whether a run's heap gets
  // trimmed and re-faulted depends on its allocation history, which
  // moved agent_start_ms between two modes ~30% apart from run to run.
  ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);

  const std::string tag =
      workload + "-seed" + std::to_string(seed) + "-trace" + std::to_string(trace);
  const std::string work_dir =
      out_dir + "/work-" + tag + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);

  WorkloadArgs args;
  args.env.server_binary = server_bin;
  args.env.work_dir = work_dir;
  args.seed = seed;
  RunResult result;
  const auto steal0 = StealTicks();
  std::vector<Metric> printed;
  std::string trace_json = "null";
  if (trace == 0) {
    args.seconds = seconds;
    args.setups = 5;
    result = RunWorkload(workload, args);
    std::vector<std::pair<std::string, std::string>> want;
    for (const auto& [name, unit] : kEndToEnd) want.emplace_back(name, unit);
    printed = Select(result.e2e, want, &result);
  } else {
    // Untraced and traced halves, same inputs, same length.
    args.seconds = seconds / 2;
    args.setups = 1;
    const RunResult plain = RunWorkload(workload, args);
    Tracer tracer;
    args.env.tracer = &tracer;
    result = RunWorkload(workload, args);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    for (const std::string& p : plain.problems) {
      result.problems.push_back("untraced half: " + p);
    }
    std::vector<Metric> layer = result.layer;
    std::vector<std::pair<std::string, std::string>> want;
    for (const auto& [name, unit] : kPerLayer) want.emplace_back(name, unit);
    for (const auto& [name, unit] : kEndToEnd) {
      if (std::string(name) == "peak_rss_mb") continue;
      want.emplace_back(std::string("overhead.") + name, "ratio");
      const Metric* untraced = plain.FindE2e(name);
      const Metric* traced = result.FindE2e(name);
      if (untraced != nullptr && traced != nullptr && untraced->value != 0) {
        layer.push_back({want.back().first, traced->value / untraced->value - 1,
                         "ratio"});
      }
    }
    printed = Select(layer, want, &result);
    const std::vector<Span> spans = tracer.Spans();
    const std::string span_path = out_dir + "/spans-" + tag + ".jsonl";
    if (!WriteSpans(span_path, spans)) {
      result.problems.push_back("cannot write " + span_path);
    }
    trace_json = "{\"spans\": " + std::to_string(spans.size()) +
                 ", \"span_file\": " + Quote(span_path) + ", \"self_time\": {";
    bool first = true;
    for (const auto& [layer, t] : SelfTimeByLayer(spans)) {
      trace_json += std::string(first ? "" : ", ") + Quote(layer) +
                    ": {\"spans\": " + std::to_string(t.spans) +
                    ", \"total_ms\": " + Num(t.total_ms) +
                    ", \"self_ms\": " + Num(t.self_ms) + "}";
      first = false;
    }
    trace_json += "}}";
  }
  std::filesystem::remove_all(work_dir);
  const auto steal1 = StealTicks();
  // Share of the host's CPU time the hypervisor gave to other guests
  // during the run: open-loop tails rise with it, whatever the program.
  result.facts.emplace_back(
      "host.steal_ratio", steal1.second > steal0.second
                              ? (steal1.first - steal0.first) /
                                    (steal1.second - steal0.second)
                              : 0);

  // Artifact: everything this run measured, with the host fingerprint.
  std::string facts = "{";
  for (std::size_t i = 0; i < result.facts.size(); ++i) {
    facts += std::string(i > 0 ? ", " : "") + Quote(result.facts[i].first) +
             ": " + Num(result.facts[i].second);
  }
  facts += "}";
  std::string problems = "[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    problems += std::string(i > 0 ? ", " : "") + Quote(result.problems[i]);
  }
  problems += "]";
  const std::string artifact =
      "{\"host\": " + Fingerprint(workload, seed, seconds, trace) +
      ", \"correct\": " + (result.correct() ? "true" : "false") +
      ", \"problems\": " + problems + ", \"end_to_end\": " +
      MetricsJson(result.e2e) + ", \"per_layer\": " + MetricsJson(result.layer) +
      ", \"detail\": " + MetricsJson(result.detail) +
      ", \"printed\": " + MetricsJson(printed) + ", \"facts\": " + facts +
      ", \"trace\": " + trace_json + "}";
  const std::string artifact_path = out_dir + "/result-" + tag + ".json";
  if (std::FILE* f = std::fopen(artifact_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", artifact.c_str());
    std::fclose(f);
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf("%s\n", artifact.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(printed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
