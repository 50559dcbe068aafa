#ifndef DMR_HOSTBENCH_CHECKS_H_
#define DMR_HOSTBENCH_CHECKS_H_

// The benchmark's output checkers. Each compares a program output with a
// value the benchmark computes apart from the program (ground-truth match
// counts, a direct scan of the generated rows) or with a property the method
// must have. Each returns an empty string when the output passes and a
// description of the first fault otherwise.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "expr/value.h"
#include "mapred/job_history.h"
#include "mapred/types.h"
#include "tpch/lineitem.h"

namespace dmr::hostbench {

/// \brief The splits an Input Provider handed out to one job.
class SplitLedger {
 public:
  SplitLedger(std::string file, int num_partitions);

  /// Records one handed-out split; fails when it belongs to another file,
  /// is out of range, or was handed out before.
  std::string Add(const mapred::InputSplit& split);

  /// Partition indexes handed out, in hand-out order.
  const std::vector<int>& handed_out() const { return order_; }

 private:
  std::string file_;
  std::vector<bool> seen_;
  std::vector<int> order_;
};

/// A completed sampling job returns min(k, sum of the ground-truth match
/// counts of the partitions its provider handed out).
std::string CheckSampleSize(uint64_t result_records, uint64_t k,
                            const std::vector<int>& handed_out,
                            const std::vector<uint64_t>& truth_matches);

/// A full scan processes every partition of its file, every record once.
std::string CheckFullScan(const mapred::JobStats& stats, int num_partitions,
                          uint64_t total_records);

/// The completions the benchmark's callbacks saw equal the kJobCompleted
/// events in the history that happened before `horizon`, and the tracker's
/// completed-job list agrees.
std::string CheckCompletions(int64_t callback_completions,
                             const mapred::JobHistory& history,
                             double horizon, size_t tracker_completed);

/// Occupied map slots never exceed the total at a provider or scheduler
/// call (`requested` = free slots the call may fill, 0 for providers).
std::string CheckSlots(int occupied, int requested, int total);

/// A row predicate evaluated by the benchmark itself, on generated rows.
using RowPredicate = std::function<bool(const tpch::LineItemRow&)>;

/// Checks one local query result. `rows` are the projected result tuples,
/// `projection` the schema columns they hold (must include ORDERKEY, which
/// identifies the source row: generated order keys are 1..N in row order,
/// so `source[orderkey - 1]` is the row). Every row must be a real generated
/// row with the projected values, satisfy `pred`, appear once; and the row
/// count must be min(limit, matches), or matches when limit is 0.
std::string CheckLocalRows(const std::vector<expr::Tuple>& rows,
                           const std::vector<int>& projection,
                           const std::vector<const tpch::LineItemRow*>& source,
                           const RowPredicate& pred, uint64_t limit,
                           uint64_t matches);

/// Order- and value-sensitive digest of result rows.
uint64_t RowsDigest(const std::vector<expr::Tuple>& rows);

/// FNV-1a step, for the virtual-time output digests.
uint64_t Mix(uint64_t h, uint64_t v);
inline constexpr uint64_t kDigestSeed = 1469598103934665603ULL;

}  // namespace dmr::hostbench

#endif  // DMR_HOSTBENCH_CHECKS_H_
