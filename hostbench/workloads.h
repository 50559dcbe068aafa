#ifndef DMR_HOSTBENCH_WORKLOADS_H_
#define DMR_HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace dmr::hostbench {

/// The simulator workloads: "multiuser_sampling" and "mixed_fair".
bool IsSimWorkload(const std::string& name);
RunOutcome RunSimWorkload(const std::string& name, const RunArgs& args);

/// The "local_queries" workload.
RunOutcome RunLocalQueries(const RunArgs& args);

/// Derives an input seed from the workload seed and up to two indexes
/// (splitmix64 finaliser), so every generated input follows from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Runs `round(r)` for r = 0, 1, ... until `seconds` of host time have
/// passed and at least `min_rounds` rounds ran. `round` returns false to
/// stop early (a failed check).
void RunRounds(double seconds, int min_rounds,
               const std::function<bool(int)>& round);

/// Notes the round count and the fastest, lower-quartile and median round
/// times (stderr), for untraced and traced runs alike.
void AddRoundsNote(const std::vector<double>& round_s, int64_t ops_per_round,
                   RunOutcome* out);

/// Fills the end-to-end metrics from per-round host seconds and heap
/// allocations; every round does `ops_per_round` operations.
void AddEndToEndMetrics(double setup_s, const std::vector<double>& round_s,
                        int64_t ops_per_round,
                        const std::vector<uint64_t>& round_allocs,
                        RunOutcome* out);

}  // namespace dmr::hostbench

#endif  // DMR_HOSTBENCH_WORKLOADS_H_
