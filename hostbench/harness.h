#ifndef DMR_HOSTBENCH_HARNESS_H_
#define DMR_HOSTBENCH_HARNESS_H_

// Shared machinery of the host-cost benchmark: the host clock, the
// allocation counter (the benchmark replaces the global operator new), the
// in-memory span tracer used by --trace 1, and the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dmr::hostbench {

/// Nanoseconds on the host's steady clock.
int64_t NowNs();
/// Seconds since the process started (a static initializer records it).
double SecondsSinceStart();

/// Heap allocations (operator new calls) made so far by every thread,
/// excluding those made inside an AllocPause.
uint64_t AllocCount();

/// Excludes the calling thread's allocations from AllocCount while alive,
/// so the benchmark's own bookkeeping does not read as program cost.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

/// Peak resident set of the process, in MB.
double PeakRssMb();

/// The layers the benchmark wraps, one span name each.
enum class Layer : int {
  kRun,        // WorkloadDriver::Run (mapred + cluster + sim kernel)
  kScheduler,  // TaskScheduler::AssignMapTasks
  kProvider,   // InputProvider::{Initialize,GetInitialInput,Evaluate}
  kMakeJob,    // sampling::MakeSamplingJob / MakeSelectProjectJob
  kCompile,    // hive::HiveCompiler::Process
  kExecute,    // exec::LocalRuntime::Execute
  kDataset,    // testbed::MakeLineItemDataset / tpch::MaterializeDatasetShared
  kTestbed,    // testbed::Testbed construction
  kCount,
};
const char* LayerName(Layer layer);

/// Per-layer totals over one round: calls, inclusive time and allocations,
/// and the part of each that child spans covered.
struct LayerTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t child_ns = 0;
  uint64_t allocs = 0;
  uint64_t child_allocs = 0;

  double self_s() const {
    return 1e-9 * static_cast<double>(total_ns - child_ns);
  }
  double total_s() const { return 1e-9 * static_cast<double>(total_ns); }
  uint64_t self_allocs() const { return allocs - child_allocs; }
};

/// \brief In-memory span recorder. Disabled (the default), Begin/End cost a
/// branch. Enabled, each span records name, start, end, parent and round;
/// spans are kept in memory (up to a cap, beyond which only the totals are
/// kept) and written out by WriteJson when the run ends.
///
/// Single-threaded: spans are opened only on the thread that drives the
/// workload (the simulator is single-threaded; LocalRuntime's workers run
/// inside one Execute span).
class Tracer {
 public:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root span
    int16_t round;   // -1 for set-up
    int16_t layer;
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void SetRound(int round) { round_ = round; }

  void Begin(Layer layer);
  void End();

  /// Totals of the current round; ResetTotals starts the next round.
  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  void ResetTotals();

  size_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  /// Writes the recorded spans as JSON; returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    uint64_t start_allocs;
    int32_t index;  // recorded span index, -1 when over the cap
    int64_t child_ns = 0;
    uint64_t child_allocs = 0;
  };
  static constexpr size_t kMaxSpans = 1 << 18;

  bool enabled_ = false;
  int round_ = -1;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  uint64_t dropped_ = 0;
  LayerTotals totals_[static_cast<int>(Layer::kCount)];
};

/// The process-wide tracer.
Tracer& GlobalTracer();

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : on_(GlobalTracer().enabled()) {
    if (on_) GlobalTracer().Begin(layer);
  }
  ~ScopedSpan() {
    if (on_) GlobalTracer().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// \brief One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a workload hands back to main().
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap metrics;
  /// Human-readable notes (check failures, per-round figures) for stderr.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Arguments every workload receives.
struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> v);
/// Smallest element of `v`; 0 when empty.
double Min(const std::vector<double>& v);

/// Prints the result line (the last line of stdout).
void PrintResult(const RunOutcome& outcome);

}  // namespace dmr::hostbench

#endif  // DMR_HOSTBENCH_HARNESS_H_
