#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace dmr::hostbench {

namespace {

std::atomic<uint64_t> g_allocs{0};
// Constant-initialised, so reading it inside operator new cannot recurse.
thread_local int t_alloc_pause = 0;

void CountAlloc() {
  if (t_alloc_pause == 0) g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountAlloc();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

const int64_t kStartNs = NowNs();

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSinceStart() {
  return 1e-9 * static_cast<double>(NowNs() - kStartNs);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

AllocPause::AllocPause() { ++t_alloc_pause; }
AllocPause::~AllocPause() { --t_alloc_pause; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "workload.run";
    case Layer::kScheduler: return "scheduler.assign";
    case Layer::kProvider: return "dynamic.provider";
    case Layer::kMakeJob: return "sampling.make_job";
    case Layer::kCompile: return "hive.compile";
    case Layer::kExecute: return "exec.execute";
    case Layer::kDataset: return "tpch.dataset";
    case Layer::kTestbed: return "testbed.setup";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::Begin(Layer layer) {
  AllocPause pause;
  Open open{layer, 0, 0, -1};
  if (spans_.size() < kMaxSpans) {
    open.index = static_cast<int32_t>(spans_.size());
    const int32_t parent = stack_.empty() ? -1 : stack_.back().index;
    spans_.push_back(Span{0, 0, parent, static_cast<int16_t>(round_),
                          static_cast<int16_t>(layer)});
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
  // Read the clocks last so the bookkeeping above is outside the span.
  stack_.back().start_allocs = AllocCount();
  stack_.back().start_ns = NowNs();
}

void Tracer::End() {
  const int64_t end_ns = NowNs();
  const uint64_t end_allocs = AllocCount();
  AllocPause pause;
  Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end_ns - open.start_ns;
  const uint64_t allocs = end_allocs - open.start_allocs;
  LayerTotals& t = totals_[static_cast<int>(open.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.child_ns += open.child_ns;
  t.allocs += allocs;
  t.child_allocs += open.child_allocs;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += allocs;
  }
  if (open.index >= 0) {
    spans_[open.index].start_ns = open.start_ns;
    spans_[open.index].end_ns = end_ns;
  }
}

void Tracer::ResetTotals() {
  for (LayerTotals& t : totals_) t = LayerTotals{};
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"dropped\": %llu, \"spans\": [",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"round\": %d}",
                 i == 0 ? "" : ",", LayerName(static_cast<Layer>(s.layer)),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base), s.parent, s.round);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

void PrintResult(const RunOutcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace dmr::hostbench

// Counting replacements of the global allocation functions. Every form
// funnels into malloc/aligned_alloc, so every delete form is free().
void* operator new(std::size_t size) {
  return dmr::hostbench::Allocate(size);
}
void* operator new[](std::size_t size) {
  return dmr::hostbench::Allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return dmr::hostbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return dmr::hostbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return dmr::hostbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return dmr::hostbench::AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
