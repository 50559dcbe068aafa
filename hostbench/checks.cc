#include "checks.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace dmr::hostbench {

SplitLedger::SplitLedger(std::string file, int num_partitions)
    : file_(std::move(file)), seen_(static_cast<size_t>(num_partitions)) {}

std::string SplitLedger::Add(const mapred::InputSplit& split) {
  if (split.file != file_) {
    return "split " + std::to_string(split.index) + " of file '" +
           split.file + "' handed to a job over '" + file_ + "'";
  }
  if (split.index < 0 || static_cast<size_t>(split.index) >= seen_.size()) {
    return "split index " + std::to_string(split.index) + " outside [0, " +
           std::to_string(seen_.size()) + ")";
  }
  if (seen_[split.index]) {
    return "split " + std::to_string(split.index) + " of '" + file_ +
           "' handed out twice";
  }
  seen_[split.index] = true;
  order_.push_back(split.index);
  return "";
}

std::string CheckSampleSize(uint64_t result_records, uint64_t k,
                            const std::vector<int>& handed_out,
                            const std::vector<uint64_t>& truth_matches) {
  uint64_t matches = 0;
  for (int index : handed_out) {
    if (index < 0 || static_cast<size_t>(index) >= truth_matches.size()) {
      return "handed-out split " + std::to_string(index) +
             " has no ground-truth match count";
    }
    matches += truth_matches[index];
  }
  const uint64_t want = std::min(k, matches);
  if (result_records != want) {
    return "sample of " + std::to_string(result_records) +
           " records, want min(k=" + std::to_string(k) +
           ", matches=" + std::to_string(matches) + ") = " +
           std::to_string(want);
  }
  return "";
}

std::string CheckFullScan(const mapred::JobStats& stats, int num_partitions,
                          uint64_t total_records) {
  if (stats.splits_total != num_partitions ||
      stats.splits_processed != num_partitions ||
      stats.records_processed != total_records) {
    return "full scan '" + stats.name + "' processed " +
           std::to_string(stats.splits_processed) + "/" +
           std::to_string(stats.splits_total) + " splits and " +
           std::to_string(stats.records_processed) + " records, want " +
           std::to_string(num_partitions) + " and " +
           std::to_string(total_records);
  }
  return "";
}

std::string CheckCompletions(int64_t callback_completions,
                             const mapred::JobHistory& history,
                             double horizon, size_t tracker_completed) {
  int64_t in_history = 0;
  int64_t at_or_after = 0;
  for (const mapred::JobEvent& e : history.events()) {
    if (e.kind != mapred::JobEventKind::kJobCompleted) continue;
    if (e.time < horizon) {
      ++in_history;
    } else {
      ++at_or_after;
    }
  }
  if (callback_completions != in_history ||
      static_cast<int64_t>(tracker_completed) != in_history + at_or_after) {
    return "completion callbacks saw " + std::to_string(callback_completions) +
           " jobs, history records " + std::to_string(in_history) +
           " before the horizon (+" + std::to_string(at_or_after) +
           " at it), tracker lists " + std::to_string(tracker_completed);
  }
  return "";
}

std::string CheckSlots(int occupied, int requested, int total) {
  if (occupied < 0 || requested < 0 || occupied + requested > total) {
    return "map slots: " + std::to_string(occupied) + " occupied + " +
           std::to_string(requested) + " offered > " + std::to_string(total) +
           " total";
  }
  return "";
}

std::string CheckLocalRows(const std::vector<expr::Tuple>& rows,
                           const std::vector<int>& projection,
                           const std::vector<const tpch::LineItemRow*>& source,
                           const RowPredicate& pred, uint64_t limit,
                           uint64_t matches) {
  const auto key_it =
      std::find(projection.begin(), projection.end(), tpch::kOrderKey);
  if (key_it == projection.end()) return "projection lacks ORDERKEY";
  const size_t key_pos = static_cast<size_t>(key_it - projection.begin());

  const uint64_t want = limit > 0 ? std::min(limit, matches) : matches;
  if (rows.size() != want) {
    return std::to_string(rows.size()) + " rows returned, want " +
           std::to_string(want) + " (limit " + std::to_string(limit) +
           ", matches " + std::to_string(matches) + ")";
  }
  std::unordered_set<int64_t> keys;
  keys.reserve(rows.size());
  for (const expr::Tuple& row : rows) {
    if (row.size() != projection.size()) return "row has the wrong width";
    const int64_t* key = std::get_if<int64_t>(&row[key_pos]);
    if (key == nullptr || *key < 1 ||
        static_cast<uint64_t>(*key) > source.size()) {
      return "row with an ORDERKEY that was never generated";
    }
    const tpch::LineItemRow& src = *source[*key - 1];
    const expr::Tuple full = tpch::ToTuple(src);
    for (size_t c = 0; c < projection.size(); ++c) {
      if (!(row[c] == full[projection[c]])) {
        return "row " + std::to_string(*key) + " column " +
               std::to_string(projection[c]) +
               " differs from the generated row";
      }
    }
    if (!pred(src)) {
      return "row " + std::to_string(*key) + " fails the query predicate";
    }
    if (!keys.insert(*key).second) {
      return "row " + std::to_string(*key) + " returned twice";
    }
  }
  return "";
}

uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }

uint64_t RowsDigest(const std::vector<expr::Tuple>& rows) {
  uint64_t h = kDigestSeed;
  for (const expr::Tuple& row : rows) {
    for (const expr::Value& value : row) {
      h = Mix(h, value.index());
      if (const auto* i = std::get_if<int64_t>(&value)) {
        h = Mix(h, static_cast<uint64_t>(*i));
      } else if (const auto* d = std::get_if<double>(&value)) {
        h = Mix(h, std::bit_cast<uint64_t>(*d));
      } else if (const auto* s = std::get_if<std::string>(&value)) {
        for (char c : *s) h = Mix(h, static_cast<unsigned char>(c));
      } else if (const auto* b = std::get_if<bool>(&value)) {
        h = Mix(h, *b ? 1 : 0);
      }
    }
    h = Mix(h, 0x2C);
  }
  return h;
}

}  // namespace dmr::hostbench
