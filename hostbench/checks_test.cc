// Self-test of the benchmark's output checkers: each must pass a correct
// output and fail the same output doctored in one way.
//
// Run: python3 hostbench/run.py --self-test

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "mapred/job_history.h"
#include "tpch/lineitem.h"

namespace dmr::hostbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}
bool Passes(const std::string& fault) { return fault.empty(); }

mapred::InputSplit Split(const std::string& file, int index) {
  mapred::InputSplit split;
  split.file = file;
  split.index = index;
  return split;
}

void TestSplitLedger() {
  SplitLedger ledger("lineitem_u0", 4);
  Expect(Passes(ledger.Add(Split("lineitem_u0", 2))) &&
             Passes(ledger.Add(Split("lineitem_u0", 0))),
         "ledger accepts distinct splits of the job's file");
  Expect(!Passes(ledger.Add(Split("lineitem_u0", 2))),
         "ledger rejects a split handed out twice");
  Expect(!Passes(ledger.Add(Split("lineitem_u1", 1))),
         "ledger rejects a split of another file");
  Expect(!Passes(ledger.Add(Split("lineitem_u0", 4))),
         "ledger rejects an out-of-range split");
  Expect(ledger.handed_out() == std::vector<int>({2, 0}),
         "ledger keeps hand-out order");
}

void TestSampleSize() {
  const std::vector<uint64_t> truth = {5, 0, 7, 100};
  Expect(Passes(CheckSampleSize(10, 10, {0, 2}, truth)),
         "sample of k when matches exceed k");
  Expect(Passes(CheckSampleSize(5, 10, {0, 1}, truth)),
         "sample of all matches when fewer than k");
  Expect(!Passes(CheckSampleSize(6, 10, {0, 1}, truth)),
         "sample larger than min(k, matches) fails");
  Expect(!Passes(CheckSampleSize(11, 10, {3}, truth)),
         "sample larger than k fails");
  Expect(!Passes(CheckSampleSize(9, 10, {0, 2}, truth)),
         "sample smaller than min(k, matches) fails");
}

void TestFullScan() {
  mapred::JobStats stats;
  stats.name = "scan";
  stats.splits_total = 3;
  stats.splits_processed = 3;
  stats.records_processed = 300;
  Expect(Passes(CheckFullScan(stats, 3, 300)), "complete scan passes");
  stats.splits_processed = 2;
  stats.records_processed = 200;
  Expect(!Passes(CheckFullScan(stats, 3, 300)), "scan missing a split fails");
}

void TestCompletions() {
  mapred::JobHistory history;
  history.Record(1.0, 1, mapred::JobEventKind::kSubmitted);
  history.Record(5.0, 1, mapred::JobEventKind::kJobCompleted);
  history.Record(9.0, 2, mapred::JobEventKind::kJobCompleted);
  history.Record(10.0, 3, mapred::JobEventKind::kJobCompleted);
  Expect(Passes(CheckCompletions(2, history, 10.0, 3)),
         "completion totals that agree pass");
  Expect(!Passes(CheckCompletions(3, history, 10.0, 3)),
         "more callbacks than history completions fails");
  Expect(!Passes(CheckCompletions(2, history, 10.0, 2)),
         "tracker list disagreeing with history fails");
}

void TestSlots() {
  Expect(Passes(CheckSlots(150, 10, 160)), "slots within the total pass");
  Expect(!Passes(CheckSlots(155, 10, 160)),
         "offering slots past the total fails");
}

void TestLocalRows() {
  std::vector<tpch::LineItemRow> rows(4);
  for (int i = 0; i < 4; ++i) {
    rows[i].orderkey = i + 1;
    rows[i].quantity = 10 * (i + 1);  // 10, 20, 30, 40
  }
  std::vector<const tpch::LineItemRow*> source;
  for (const auto& r : rows) source.push_back(&r);
  const std::vector<int> projection = {tpch::kOrderKey, tpch::kQuantity};
  auto tuple = [&](int i) {
    return expr::Tuple{rows[i].orderkey, rows[i].quantity};
  };
  const RowPredicate over_15 = [](const tpch::LineItemRow& r) {
    return r.quantity > 15;
  };
  // Three rows match; a LIMIT 2 sample returns two of them.
  Expect(Passes(CheckLocalRows({tuple(1), tuple(3)}, projection, source,
                               over_15, 2, 3)),
         "a correct sample passes");
  Expect(Passes(CheckLocalRows({tuple(1), tuple(2), tuple(3)}, projection,
                               source, over_15, 0, 3)),
         "a correct full select passes");
  Expect(!Passes(CheckLocalRows({tuple(0), tuple(3)}, projection, source,
                                over_15, 2, 3)),
         "a row failing its predicate fails");
  Expect(!Passes(CheckLocalRows({tuple(1), tuple(2), tuple(3)}, projection,
                                source, over_15, 2, 3)),
         "a sample larger than min(k, matches) fails");
  Expect(!Passes(CheckLocalRows({tuple(1), tuple(1)}, projection, source,
                                over_15, 2, 3)),
         "a duplicated row fails");
  expr::Tuple altered = tuple(2);
  altered[1] = int64_t{99};
  Expect(!Passes(CheckLocalRows({tuple(1), altered}, projection, source,
                                over_15, 2, 3)),
         "a row whose values differ from the generated row fails");
}

}  // namespace
}  // namespace dmr::hostbench

int main() {
  using namespace dmr::hostbench;
  TestSplitLedger();
  TestSampleSize();
  TestFullScan();
  TestCompletions();
  TestSlots();
  TestLocalRows();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
