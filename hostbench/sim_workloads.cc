// The simulator workloads: closed-loop multi-user runs of the paper's
// cluster (Figures 6 and 8 of Grover & Carey, ICDE 2012) over a fixed
// virtual horizon. Each round assembles a fresh stack and runs the same
// users from virtual time 0, so every round does identical work.
//
// The stack is testbed::Testbed's, assembled here so the TaskScheduler can
// be wrapped. Set-up runs the same users once on a plain Testbed, and every
// round's virtual-time outputs must equal that run's.

#include <bit>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "cluster/cluster_config.h"
#include "cluster/cluster_monitor.h"
#include "dynamic/growth_policy.h"
#include "mapred/job_client.h"
#include "mapred/job_tracker.h"
#include "mapred/task_scheduler.h"
#include "sampling/sampling_job.h"
#include "scheduler/fair_scheduler.h"
#include "scheduler/fifo_scheduler.h"
#include "sim/simulation.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"
#include "workload/workload_driver.h"
#include "workloads.h"

namespace dmr::hostbench {
namespace {

struct SimConfig {
  testbed::SchedulerKind scheduler;
  int users;
  /// Users [0, sampling_users) run sampling jobs, the rest full scans.
  int sampling_users;
  /// Growth policies, cycled over the sampling users.
  std::vector<std::string> policies;
  double z;
  int scale;
  /// Virtual seconds each round simulates.
  double horizon;
};

// Fig. 6: ten sampling users on private 100x copies, FIFO, z = 2.
const SimConfig kMultiUserSampling{testbed::SchedulerKind::kFifo, 10, 10,
                                   {"HA", "MA", "LA", "C"}, 0.0, 100,
                                   7200.0};
// Fig. 8: five LA sampling users and five full-scan users, Fair scheduler
// with delay scheduling, uniform matches.
const SimConfig kMixedFair{testbed::SchedulerKind::kFair, 10, 5, {"LA"},
                           0.0, 100, 7200.0};

constexpr double kLocalityWait = 5.0;
constexpr int kMinRounds = 3;
constexpr size_t kMaxFaults = 8;

std::string JobName(int user, int iteration) {
  return "u" + std::to_string(user) + "-i" + std::to_string(iteration);
}

/// The benchmark's record of one submitted job.
struct JobRecord {
  bool sampling = false;
  SplitLedger ledger;
};

/// Per-round counters and check results, filled by the wrappers.
struct RoundState {
  cluster::Cluster* cluster = nullptr;
  mapred::JobTracker* tracker = nullptr;
  std::deque<JobRecord> jobs;
  /// jobs_by_user[u][i] indexes `jobs` for user u's iteration i.
  std::vector<std::vector<size_t>> jobs_by_user;
  int64_t completions = 0;
  int64_t assign_calls = 0;
  int64_t slots_offered = 0;
  int64_t tasks_launched = 0;
  int64_t local_launches = 0;
  int64_t provider_calls = 0;
  std::vector<std::string> faults;

  void Fault(const std::string& what) {
    if (what.empty()) return;
    AllocPause pause;
    if (faults.size() < kMaxFaults) faults.push_back(what);
  }
  void CheckSlots(int requested) {
    Fault(hostbench::CheckSlots(cluster->used_map_slots(), requested,
                                cluster->total_map_slots()));
  }
};

/// Forwards to the real scheduler; counts offers and launches.
class CountingScheduler : public mapred::TaskScheduler {
 public:
  CountingScheduler(mapred::TaskScheduler* inner, RoundState* state)
      : inner_(inner), state_(state) {}

  std::string name() const override { return inner_->name(); }

  std::vector<mapred::MapAssignment> AssignMapTasks(
      const std::vector<mapred::Job*>& running_jobs, int node_id,
      int free_slots, double now) override {
    state_->CheckSlots(free_slots);
    std::vector<mapred::MapAssignment> out;
    {
      ScopedSpan span(Layer::kScheduler);
      out = inner_->AssignMapTasks(running_jobs, node_id, free_slots, now);
    }
    ++state_->assign_calls;
    state_->slots_offered += free_slots;
    state_->tasks_launched += static_cast<int64_t>(out.size());
    for (const mapred::MapAssignment& a : out) {
      state_->local_launches += a.local;
    }
    return out;
  }

 private:
  mapred::TaskScheduler* inner_;
  RoundState* state_;
};

/// Forwards to the job's real Input Provider; records every split it hands
/// out in the job's ledger.
class CountingProvider : public mapred::InputProvider {
 public:
  CountingProvider(std::shared_ptr<mapred::InputProvider> inner,
                   RoundState* state, size_t job)
      : inner_(std::move(inner)), state_(state), job_(job) {}

  Status Initialize(const std::vector<mapred::InputSplit>& all_splits,
                    const mapred::JobConf& conf) override {
    ++state_->provider_calls;
    ScopedSpan span(Layer::kProvider);
    return inner_->Initialize(all_splits, conf);
  }
  mapred::InputResponse GetInitialInput(
      const mapred::ClusterStatus& cluster) override {
    return Observe(cluster, [&] { return inner_->GetInitialInput(cluster); });
  }
  mapred::InputResponse Evaluate(
      const mapred::JobProgress& progress,
      const mapred::ClusterStatus& cluster) override {
    return Observe(cluster,
                   [&] { return inner_->Evaluate(progress, cluster); });
  }

 private:
  template <typename F>
  mapred::InputResponse Observe(const mapred::ClusterStatus& cluster,
                                F&& call) {
    ++state_->provider_calls;
    state_->CheckSlots(0);
    state_->Fault(hostbench::CheckSlots(cluster.occupied_map_slots, 0,
                                        cluster.total_map_slots));
    mapred::InputResponse response;
    {
      ScopedSpan span(Layer::kProvider);
      response = call();
    }
    SplitLedger& ledger = state_->jobs[job_].ledger;
    AllocPause pause;
    for (const mapred::InputSplit& split : response.splits) {
      state_->Fault(ledger.Add(split));
    }
    return response;
  }

  std::shared_ptr<mapred::InputProvider> inner_;
  RoundState* state_;
  size_t job_;
};

/// One user's job-building inputs.
struct UserInputs {
  const testbed::Dataset* dataset;
  dynamic::GrowthPolicy policy;
  bool sampling;
};

/// Builds the users of `config`. With `state` null the users are plain
/// (the reference run); otherwise their jobs go through the wrappers.
std::vector<workload::UserSpec> MakeUsers(const SimConfig& config,
                                          const std::vector<UserInputs>& in,
                                          uint64_t seed, RoundState* state) {
  std::vector<workload::UserSpec> users;
  for (int u = 0; u < config.users; ++u) {
    workload::UserSpec user;
    user.name = "user" + std::to_string(u);
    user.job_class = in[u].sampling ? "Sampling" : "NonSampling";
    const UserInputs* inputs = &in[u];
    user.make_job = [inputs, u, seed,
                     state](int iteration) -> Result<mapred::JobSubmission> {
      std::string name;
      std::string user_name;
      {
        AllocPause pause;
        name = JobName(u, iteration);
        user_name = "user" + std::to_string(u);
      }
      if (state != nullptr && iteration > 0) {
        // A closed-loop user asks for its next job from the completion
        // callback of its previous one: that job must be the one the
        // tracker just completed, so no user ever has two jobs in flight.
        AllocPause pause;
        ++state->completions;
        const auto& done = state->tracker->completed_jobs();
        if (done.empty() || done.back().name != JobName(u, iteration - 1)) {
          state->Fault("user " + std::to_string(u) + " submitted job " +
                       std::to_string(iteration) +
                       " before its previous job completed");
        }
      }
      Result<mapred::JobSubmission> submission = [&] {
        ScopedSpan span(Layer::kMakeJob);
        if (!inputs->sampling) {
          return sampling::MakeSelectProjectJob(
              inputs->dataset->file, inputs->dataset->matching_per_partition,
              name, user_name);
        }
        sampling::SamplingJobOptions options;
        options.job_name = std::move(name);
        options.user = std::move(user_name);
        options.sample_size = tpch::kPaperSampleSize;
        options.seed = DeriveSeed(seed, 1000 + u, iteration);
        return sampling::MakeSamplingJob(
            inputs->dataset->file, inputs->dataset->matching_per_partition,
            inputs->policy, options);
      }();
      if (state != nullptr && submission.ok()) {
        AllocPause pause;
        const size_t job = state->jobs.size();
        state->jobs.push_back(JobRecord{
            inputs->sampling,
            SplitLedger(inputs->dataset->file.name,
                        inputs->dataset->file.num_partitions())});
        if (state->jobs_by_user[u].size() != static_cast<size_t>(iteration)) {
          state->Fault("user " + std::to_string(u) + " job " +
                       std::to_string(iteration) + " out of order");
        }
        state->jobs_by_user[u].push_back(job);
        if (submission->input_provider != nullptr) {
          submission->input_provider = std::make_shared<CountingProvider>(
              std::move(submission->input_provider), state, job);
        }
      }
      return submission;
    };
    users.push_back(std::move(user));
  }
  return users;
}

/// Digest of a run's virtual-time outputs: every completed job's identity,
/// times and counts, the history length and the kernel's event count.
uint64_t OutputDigest(const mapred::JobTracker& tracker,
                      const sim::Simulation& sim) {
  uint64_t h = kDigestSeed;
  for (const mapred::JobStats& s : tracker.completed_jobs()) {
    h = Mix(h, static_cast<uint64_t>(s.job_id));
    for (char c : s.name) h = Mix(h, static_cast<unsigned char>(c));
    h = Mix(h, std::bit_cast<uint64_t>(s.submit_time));
    h = Mix(h, std::bit_cast<uint64_t>(s.finish_time));
    h = Mix(h, static_cast<uint64_t>(s.splits_processed));
    h = Mix(h, s.records_processed);
    h = Mix(h, s.output_records);
    h = Mix(h, s.result_records);
    h = Mix(h, static_cast<uint64_t>(s.local_maps));
    h = Mix(h, static_cast<uint64_t>(s.remote_maps));
    h = Mix(h, static_cast<uint64_t>(s.provider_evaluations));
  }
  h = Mix(h, tracker.history().size());
  h = Mix(h, sim.events_fired());
  return h;
}

/// testbed::Testbed's stack with the scheduler wrapped.
struct Stack {
  Stack(const cluster::ClusterConfig& config, testbed::SchedulerKind kind,
        RoundState* state) {
    cluster = std::make_unique<cluster::Cluster>(&sim, config);
    if (kind == testbed::SchedulerKind::kFifo) {
      inner = std::make_unique<scheduler::FifoScheduler>();
    } else {
      scheduler::FairSchedulerOptions options;
      options.total_map_slots = config.total_map_slots();
      options.locality_wait = kLocalityWait;
      inner = std::make_unique<scheduler::FairScheduler>(options);
    }
    counting = std::make_unique<CountingScheduler>(inner.get(), state);
    tracker = std::make_unique<mapred::JobTracker>(cluster.get(),
                                                   counting.get());
    tracker->Start();
    client = std::make_unique<mapred::JobClient>(tracker.get());
    monitor = std::make_unique<cluster::ClusterMonitor>(cluster.get());
  }
  ~Stack() { monitor->Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<mapred::TaskScheduler> inner;
  std::unique_ptr<CountingScheduler> counting;
  std::unique_ptr<mapred::JobTracker> tracker;
  std::unique_ptr<mapred::JobClient> client;
  std::unique_ptr<cluster::ClusterMonitor> monitor;
};

/// Checks a finished round against the ground truth; returns its faults.
void CheckRound(const SimConfig& config, const std::vector<UserInputs>& in,
                RoundState* state) {
  const mapred::JobTracker& tracker = *state->tracker;
  state->Fault(CheckCompletions(state->completions, tracker.history(),
                                config.horizon,
                                tracker.completed_jobs().size()));
  for (const mapred::JobStats& s : tracker.completed_jobs()) {
    int u = -1;
    int i = -1;
    if (std::sscanf(s.name.c_str(), "u%d-i%d", &u, &i) != 2 || u < 0 ||
        u >= config.users || i < 0 ||
        static_cast<size_t>(i) >= state->jobs_by_user[u].size()) {
      state->Fault("completed job '" + s.name + "' was never submitted");
      continue;
    }
    const JobRecord& job = state->jobs[state->jobs_by_user[u][i]];
    const testbed::Dataset& data = *in[u].dataset;
    if (job.sampling) {
      state->Fault(CheckSampleSize(s.result_records, tpch::kPaperSampleSize,
                                   job.ledger.handed_out(),
                                   data.matching_per_partition));
    } else {
      state->Fault(CheckFullScan(s, data.file.num_partitions(),
                                 data.file.total_records()));
    }
  }
}

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return name == "multiuser_sampling" || name == "mixed_fair";
}

RunOutcome RunSimWorkload(const std::string& name, const RunArgs& args) {
  const SimConfig& config =
      name == "multiuser_sampling" ? kMultiUserSampling : kMixedFair;
  const cluster::ClusterConfig cluster_config =
      cluster::ClusterConfig::MultiUser();
  Tracer& tracer = GlobalTracer();
  RunOutcome out;

  // --- set-up: a plain Testbed, the datasets (registered in its file
  // system), and the reference run on that Testbed.
  int64_t t0 = NowNs();
  std::unique_ptr<testbed::Testbed> bed;
  {
    ScopedSpan span(Layer::kTestbed);
    bed = std::make_unique<testbed::Testbed>(cluster_config, config.scheduler,
                                             kLocalityWait);
  }
  const double testbed_s = 1e-9 * static_cast<double>(NowNs() - t0);
  t0 = NowNs();
  std::vector<testbed::Dataset> datasets;
  for (int u = 0; u < config.users; ++u) {
    ScopedSpan span(Layer::kDataset);
    Result<testbed::Dataset> dataset = testbed::MakeLineItemDataset(
        &bed->fs(), config.scale, config.z, DeriveSeed(args.seed, u),
        "u" + std::to_string(u));
    if (!dataset.ok()) {
      out.Fail("dataset: " + dataset.status().ToString());
      return out;
    }
    datasets.push_back(*std::move(dataset));
  }
  const double dataset_s = 1e-9 * static_cast<double>(NowNs() - t0);
  std::vector<UserInputs> inputs;
  for (int u = 0; u < config.users; ++u) {
    const std::string& policy_name =
        config.policies[u % config.policies.size()];
    Result<dynamic::GrowthPolicy> policy =
        dynamic::PolicyTable::BuiltIn().Find(policy_name);
    if (!policy.ok()) {
      out.Fail("policy: " + policy.status().ToString());
      return out;
    }
    inputs.push_back(
        UserInputs{&datasets[u], *policy, u < config.sampling_users});
  }
  // The same users run once on the plain Testbed. The run completes the
  // program's lazy initialisation before timing, and every timed round must
  // reproduce its virtual-time outputs.
  uint64_t reference_digest = 0;
  {
    workload::WorkloadDriver driver(&bed->client());
    for (workload::UserSpec& user :
         MakeUsers(config, inputs, args.seed, nullptr)) {
      driver.AddUser(std::move(user));
    }
    Result<workload::WorkloadReport> report =
        driver.Run({.duration = config.horizon, .warmup = 0.0});
    if (!report.ok()) {
      out.Fail("reference run: " + report.status().ToString());
      return out;
    }
    reference_digest = OutputDigest(bed->tracker(), bed->sim());
  }
  bed.reset();  // the datasets are copies; only the digest is kept
  const double setup_s = SecondsSinceStart();

  // --- timed rounds.
  std::vector<double> round_s;
  std::vector<uint64_t> round_allocs;
  int64_t ops_per_round = -1;
  struct LayerRound {
    double run_self_s, assign_s, provider_s, make_job_s, events_per_s;
    uint64_t run_self_allocs, assign_allocs, provider_allocs, make_job_allocs;
  };
  std::vector<LayerRound> layer_rounds;
  std::unique_ptr<RoundState> last;  // the traced metrics read its counters
  uint64_t history_events = 0;
  uint64_t events_fired = 0;
  int64_t dynamic_jobs = 0;
  int64_t dynamic_splits = 0;

  RunRounds(args.seconds, kMinRounds, [&](int r) {
    tracer.SetRound(r);
    tracer.ResetTotals();
    auto state = std::make_unique<RoundState>();
    state->jobs_by_user.resize(config.users);

    const uint64_t a0 = AllocCount();
    const int64_t t0 = NowNs();
    auto stack = std::make_unique<Stack>(cluster_config, config.scheduler,
                                         state.get());
    state->cluster = stack->cluster.get();
    state->tracker = stack->tracker.get();
    workload::WorkloadDriver driver(stack->client.get());
    std::vector<workload::UserSpec> users;
    {
      AllocPause pause;
      users = MakeUsers(config, inputs, args.seed, state.get());
    }
    for (workload::UserSpec& user : users) driver.AddUser(std::move(user));
    Result<workload::WorkloadReport> report = [&] {
      ScopedSpan span(Layer::kRun);
      return driver.Run({.duration = config.horizon, .warmup = 0.0});
    }();
    const int64_t t1 = NowNs();
    const uint64_t a1 = AllocCount();

    if (!report.ok()) {
      out.Fail("round " + std::to_string(r) + ": " +
               report.status().ToString());
      return false;
    }
    out.attempted += state->completions;
    CheckRound(config, inputs, state.get());
    const uint64_t digest = OutputDigest(*stack->tracker, stack->sim);
    if (digest != reference_digest) {
      state->Fault("round " + std::to_string(r) +
                   " virtual-time outputs differ from the plain Testbed run");
    }
    if (ops_per_round < 0) ops_per_round = state->completions;
    if (state->completions != ops_per_round) {
      state->Fault("round " + std::to_string(r) + " completed " +
                   std::to_string(state->completions) + " jobs, round 0 " +
                   std::to_string(ops_per_round));
    }
    for (const std::string& f : state->faults) out.Fail(f);
    if (!state->faults.empty()) return false;

    round_s.push_back(1e-9 * static_cast<double>(t1 - t0));
    round_allocs.push_back(a1 - a0);
    history_events = stack->tracker->history().size();
    events_fired = stack->sim.events_fired();
    dynamic_jobs = 0;
    dynamic_splits = 0;
    for (const mapred::JobStats& s : stack->tracker->completed_jobs()) {
      int u = 0;
      int i = 0;
      std::sscanf(s.name.c_str(), "u%d-i%d", &u, &i);
      const JobRecord& job = state->jobs[state->jobs_by_user[u][i]];
      if (!job.sampling) continue;
      ++dynamic_jobs;
      dynamic_splits += static_cast<int64_t>(job.ledger.handed_out().size());
    }
    if (tracer.enabled()) {
      const LayerTotals& run = tracer.totals(Layer::kRun);
      const LayerTotals& as = tracer.totals(Layer::kScheduler);
      const LayerTotals& pr = tracer.totals(Layer::kProvider);
      const LayerTotals& mj = tracer.totals(Layer::kMakeJob);
      layer_rounds.push_back(LayerRound{
          run.self_s(), as.total_s(), pr.total_s(), mj.total_s(),
          static_cast<double>(events_fired) / run.total_s(),
          run.self_allocs(), as.allocs, pr.allocs, mj.allocs});
    }
    stack.reset();  // tear-down is outside the timed interval
    last = std::move(state);
    return true;
  });
  if (!out.correct) return out;

  const double ops = static_cast<double>(ops_per_round);
  if (!tracer.enabled()) {
    AddEndToEndMetrics(setup_s, round_s, ops_per_round, round_allocs, &out);
    return out;
  }
  AddRoundsNote(round_s, ops_per_round, &out);

  auto median_of = [&](double LayerRound::*field) {
    std::vector<double> v;
    for (const LayerRound& x : layer_rounds) v.push_back(x.*field);
    return Median(v);
  };
  auto num = [](auto v) { return static_cast<double>(v); };
  auto ratio = [&](int64_t a, int64_t b) {
    return num(a) / num(std::max<int64_t>(1, b));
  };
  const LayerRound& lr = layer_rounds.back();
  MetricMap& m = out.metrics;
  m["mapred.self_s"] = {median_of(&LayerRound::run_self_s), "s"};
  m["mapred.self_allocs_per_op"] = {num(lr.run_self_allocs) / ops, "count"};
  m["mapred.history_events"] = {num(history_events), "count"};
  m["sim.events_per_op"] = {num(events_fired) / ops, "count"};
  m["sim.events_per_s"] = {median_of(&LayerRound::events_per_s), "1/s"};
  m["scheduler.assign_calls"] = {num(last->assign_calls), "count"};
  m["scheduler.assign_s"] = {median_of(&LayerRound::assign_s), "s"};
  m["scheduler.assign_allocs_per_op"] = {num(lr.assign_allocs) / ops, "count"};
  m["scheduler.local_ratio"] = {
      ratio(last->local_launches, last->tasks_launched), "ratio"};
  m["scheduler.fill_ratio"] = {
      ratio(last->tasks_launched, last->slots_offered), "ratio"};
  m["dynamic.provider_calls"] = {num(last->provider_calls), "count"};
  m["dynamic.provider_s"] = {median_of(&LayerRound::provider_s), "s"};
  m["dynamic.provider_allocs_per_op"] = {num(lr.provider_allocs) / ops,
                                         "count"};
  m["dynamic.splits_per_job"] = {ratio(dynamic_splits, dynamic_jobs), "count"};
  m["sampling.make_job_s"] = {median_of(&LayerRound::make_job_s), "s"};
  m["sampling.make_job_allocs_per_op"] = {num(lr.make_job_allocs) / ops,
                                          "count"};
  m["tpch.dataset_s"] = {dataset_s, "s"};
  m["testbed.setup_s"] = {testbed_s, "s"};
  return out;
}

}  // namespace dmr::hostbench
