// Host-cost benchmark of DynMR.
//
// Usage: hostbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs identical rounds of one workload for S seconds of host time and
// prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes the
// recorded spans to .hostbench_trace/). Diagnostics go to stderr.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace dmr::hostbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (a + 1) +
               0xBF58476D1CE4E5B9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void RunRounds(double seconds, int min_rounds,
               const std::function<bool(int)>& round) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int r = 0; r < min_rounds || NowNs() < deadline; ++r) {
    if (!round(r)) return;
  }
}

void AddRoundsNote(const std::vector<double>& round_s, int64_t ops_per_round,
                   RunOutcome* out) {
  std::vector<double> sorted = round_s;
  std::sort(sorted.begin(), sorted.end());
  char note[200];
  std::snprintf(note, sizeof(note),
                "%zu rounds of %lld ops: fastest %.4f s, p25 %.4f s, "
                "median %.4f s",
                round_s.size(), static_cast<long long>(ops_per_round),
                sorted.front(), sorted[sorted.size() / 4], Median(round_s));
  out->notes.push_back(note);
}

void AddEndToEndMetrics(double setup_s, const std::vector<double>& round_s,
                        int64_t ops_per_round,
                        const std::vector<uint64_t>& round_allocs,
                        RunOutcome* out) {
  const double ops = static_cast<double>(ops_per_round);
  // Round 0 also pays the program's lazy initialisation; every later round
  // must allocate exactly alike.
  for (size_t r = 1; r < round_allocs.size(); ++r) {
    if (round_allocs[r] != round_allocs.back()) {
      std::string all;
      for (uint64_t a : round_allocs) all += " " + std::to_string(a);
      out->notes.push_back("allocation counts differ between rounds:" + all);
      break;
    }
  }
  // The fastest round: slow stretches of a shared host only ever add time.
  out->metrics["ops_per_s"] = {ops / Min(round_s), "ops/s"};
  out->metrics["setup_s"] = {setup_s, "s"};
  out->metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  out->metrics["allocs_per_op"] = {
      static_cast<double>(round_allocs.back()) / ops, "count"};
  AddRoundsNote(round_s, ops_per_round, out);
}

namespace {

/// Every per-layer metric, with its unit. A workload that bypasses a layer
/// reports it as 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"mapred.self_s", "s"},
    {"mapred.self_allocs_per_op", "count"},
    {"mapred.history_events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.events_per_s", "1/s"},
    {"scheduler.assign_calls", "count"},
    {"scheduler.assign_s", "s"},
    {"scheduler.assign_allocs_per_op", "count"},
    {"scheduler.local_ratio", "ratio"},
    {"scheduler.fill_ratio", "ratio"},
    {"dynamic.provider_calls", "count"},
    {"dynamic.provider_s", "s"},
    {"dynamic.provider_allocs_per_op", "count"},
    {"dynamic.splits_per_job", "count"},
    {"dynamic.rounds_per_query", "count"},
    {"sampling.make_job_s", "s"},
    {"sampling.make_job_allocs_per_op", "count"},
    {"hive.compile_calls", "count"},
    {"hive.compile_s", "s"},
    {"exec.execute_s", "s"},
    {"exec.execute_allocs_per_op", "count"},
    {"exec.first_scan_ms", "ms"},
    {"exec.repeat_scan_ms", "ms"},
    {"exec.scan_ratio", "ratio"},
    {"exec.index_hits", "count"},
    {"exec.partitions_per_query", "count"},
    {"tpch.dataset_s", "s"},
    {"testbed.setup_s", "s"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "multiuser_sampling|mixed_fair|local_queries --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace dmr::hostbench

int main(int argc, char** argv) {
  using namespace dmr::hostbench;
  std::string workload;
  RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUnsigned(value, &args.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUnsigned(value, &v) || v < 1 || v > 600) {
        return Usage("bad --seconds (want 1..600)");
      }
      args.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUnsigned(value, &v) || v > 1) return Usage("bad --trace");
      args.trace = v == 1;
    } else {
      return Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds) {
    return Usage("--seed and --seconds are required");
  }
  if (args.trace) GlobalTracer().Enable();

  RunOutcome outcome;
  if (IsSimWorkload(workload)) {
    outcome = RunSimWorkload(workload, args);
  } else if (workload == "local_queries") {
    outcome = RunLocalQueries(args);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      outcome.metrics.try_emplace(name, Metric{0.0, unit});
    }
    const std::string dir = ".hostbench_trace";
    mkdir(dir.c_str(), 0755);
    const std::string path =
        dir + "/" + workload + "-seed" + std::to_string(args.seed) + ".json";
    const Tracer& tracer = GlobalTracer();
    if (tracer.WriteJson(path)) {
      std::fprintf(stderr, "hostbench: %zu spans (%llu dropped) in %s\n",
                   tracer.recorded(),
                   static_cast<unsigned long long>(tracer.dropped()),
                   path.c_str());
    } else {
      std::fprintf(stderr, "hostbench: could not write %s\n", path.c_str());
    }
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "hostbench: %s\n", note.c_str());
  }
  // A failed check is reported through "correct", not the exit code.
  PrintResult(outcome);
  return 0;
}
