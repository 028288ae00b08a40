#include "schemes/entropy_oracle.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/status.h"

namespace limbo::schemes {

double EntropyFromCounts(std::vector<uint64_t> counts, uint64_t total) {
  if (total == 0) return 0.0;
  std::sort(counts.begin(), counts.end());
  double sum_clog = 0.0;
  for (uint64_t c : counts) {
    if (c == 0) continue;
    sum_clog += static_cast<double>(c) * std::log2(static_cast<double>(c));
  }
  const double n = static_cast<double>(total);
  double h = std::log2(n) - sum_clog / n;
  // Clamp the tiny negative residue a one-group distribution can leave
  // behind (log2(n) - n*log2(n)/n evaluated in floating point).
  return h < 0.0 ? 0.0 : h;
}

namespace {

using AttributeList = std::vector<relation::AttributeId>;

double EntropyOf(const fd::StrippedPartition& p, uint64_t n) {
  std::vector<uint64_t> sizes;
  sizes.reserve(p.NumClasses());
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    sizes.push_back(p.Class(i).size());
  }
  return EntropyFromCounts(std::move(sizes), n);
}

/// One lane's depth-first walk over subtrees of a batch's prefix trie.
/// `order` lists the batch's sets sorted by their ascending attribute
/// lists, so every trie node's descendants form one contiguous run.
struct TrieWalk {
  const std::vector<fd::StrippedPartition>& singles;
  size_t n;
  const std::vector<AttributeList>& lists;
  const std::vector<size_t>& order;
  fd::PartitionProbe& probe;
  double* entropies;
  std::vector<uint64_t> sizes;

  /// Resolves order[lo, hi): sets whose first `depth` attributes are the
  /// prefix partitioned by `node`.
  void Walk(const fd::StrippedPartition& node, size_t depth, size_t lo,
            size_t hi) {
    if (lists[order[lo]].size() == depth) {
      entropies[order[lo]] = EntropyOf(node, n);
      ++lo;
    }
    // Children are runs sharing the attribute at `depth`. A run that is a
    // single set ending at that attribute is a leaf and is only counted,
    // all against one probe of `node`; the others are materialized and
    // walked after the leaves, so the probe stays loaded meanwhile.
    std::vector<std::pair<size_t, size_t>> inner;
    bool probed = false;
    for (size_t g = lo; g < hi;) {
      const relation::AttributeId b = lists[order[g]][depth];
      size_t e = g + 1;
      while (e < hi && lists[order[e]][depth] == b) ++e;
      if (e - g == 1 && lists[order[g]].size() == depth + 1) {
        if (!probed) probe.Load(node, n);
        probed = true;
        probe.Count(singles[b], &sizes);
        entropies[order[g]] = EntropyFromCounts(sizes, n);
      } else {
        inner.emplace_back(g, e);
      }
      g = e;
    }
    for (const auto& [g, e] : inner) {
      const relation::AttributeId b = lists[order[g]][depth];
      Walk(fd::StrippedPartition::Product(node, singles[b], n), depth + 1, g,
           e);
    }
  }
};

}  // namespace

EntropyOracle::EntropyOracle(relation::RowSource& source,
                             const EntropyOracleOptions& options)
    : source_(&source),
      options_(options),
      pool_(options.threads),
      num_attributes_(source.schema().NumAttributes()),
      probes_(pool_.threads()) {}

util::Result<double> EntropyOracle::H(fd::AttributeSet x) {
  std::vector<fd::AttributeSet> one{x};
  LIMBO_ASSIGN_OR_RETURN(std::vector<double> hs, HBatch(one));
  return hs[0];
}

util::Result<std::vector<double>> EntropyOracle::HBatch(
    const std::vector<fd::AttributeSet>& sets) {
  std::vector<double> out(sets.size(), 0.0);
  // Resolve the memo (and the trivial empty set) first; collect the
  // distinct remainder for one trie walk.
  std::vector<fd::AttributeSet> missing;
  std::unordered_map<uint64_t, size_t> missing_index;
  std::vector<size_t> slot_of(sets.size(), SIZE_MAX);
  const fd::AttributeSet schema = fd::AttributeSet::Full(num_attributes_);
  for (size_t i = 0; i < sets.size(); ++i) {
    const fd::AttributeSet x = sets[i];
    double h = 0.0;
    if (x.Empty()) {
      out[i] = 0.0;
    } else if (MemoGet(x, &h)) {
      out[i] = h;
      ++stats_.memo_hits;
      LIMBO_OBS_COUNT("schemes.oracle.memo_hits", 1);
    } else if (!x.IsSubsetOf(schema)) {
      return util::Status::InvalidArgument(
          "entropy oracle: attribute set outside the source schema");
    } else {
      auto [it, inserted] = missing_index.emplace(x.bits(), missing.size());
      if (inserted) missing.push_back(x);
      slot_of[i] = it->second;
    }
  }
  if (!missing.empty()) {
    LIMBO_OBS_SPAN(span, "schemes.oracle.pass");
    LIMBO_RETURN_IF_ERROR(Load());
    std::vector<double> fresh(missing.size(), 0.0);
    Resolve(missing, fresh.data());
    stats_.sets_counted += missing.size();
    LIMBO_OBS_COUNT("schemes.oracle.sets_counted", missing.size());
    for (size_t s = 0; s < missing.size(); ++s) MemoPut(missing[s], fresh[s]);
    for (size_t i = 0; i < sets.size(); ++i) {
      if (slot_of[i] != SIZE_MAX) out[i] = fresh[slot_of[i]];
    }
  }
  return out;
}

util::Status EntropyOracle::Load() {
  if (loaded_) return util::Status::Ok();
  LIMBO_RETURN_IF_ERROR(source_->Reset());
  const size_t m = num_attributes_;
  relation::RelationBuilder builder(source_->schema());
  std::vector<std::string> fields;
  while (true) {
    LIMBO_ASSIGN_OR_RETURN(const bool more, source_->Next(&fields));
    if (!more) break;
    if (fields.size() != m) {
      return util::Status::InvalidArgument(
          "entropy oracle: row width does not match the schema");
    }
    LIMBO_RETURN_IF_ERROR(builder.AddRow(fields));
  }
  const relation::Relation rel = std::move(builder).Build();
  singles_.resize(m);
  pool_.ParallelFor(0, m, /*grain=*/1, [&](size_t lo, size_t hi) {
    for (size_t a = lo; a < hi; ++a) {
      singles_[a] = fd::StrippedPartition::ForAttribute(
          rel, static_cast<relation::AttributeId>(a));
    }
  });
  num_rows_ = rel.NumTuples();
  loaded_ = true;
  ++stats_.passes;
  stats_.rows_read += num_rows_;
  LIMBO_OBS_COUNT("schemes.oracle.passes", 1);
  LIMBO_OBS_COUNT("schemes.oracle.rows_read", num_rows_);
  return util::Status::Ok();
}

void EntropyOracle::Resolve(const std::vector<fd::AttributeSet>& sets,
                            double* entropies) {
  std::vector<AttributeList> lists(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) lists[i] = sets[i].ToList();
  std::vector<size_t> order(sets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return lists[a] < lists[b]; });
  // One subtree per first attribute, each an independent unit of work.
  std::vector<size_t> bounds{0};
  for (size_t i = 1; i < order.size(); ++i) {
    if (lists[order[i]][0] != lists[order[i - 1]][0]) bounds.push_back(i);
  }
  bounds.push_back(order.size());
  pool_.ParallelFor(
      0, bounds.size() - 1, /*grain=*/1,
      [&](size_t lo, size_t hi, size_t lane) {
        TrieWalk walk{singles_, num_rows_, lists, order, probes_[lane],
                      entropies, {}};
        for (size_t t = lo; t < hi; ++t) {
          const relation::AttributeId a = lists[order[bounds[t]]][0];
          walk.Walk(singles_[a], 1, bounds[t], bounds[t + 1]);
        }
      });
}

void EntropyOracle::MemoPut(fd::AttributeSet x, double h) {
  if (options_.memo_entries == 0) return;
  auto it = memo_.find(x.bits());
  if (it != memo_.end()) {
    memo_order_.erase(it->second.where);
    memo_order_.push_front(x.bits());
    it->second = {h, memo_order_.begin()};
    return;
  }
  while (memo_.size() >= options_.memo_entries) {
    memo_.erase(memo_order_.back());
    memo_order_.pop_back();
  }
  memo_order_.push_front(x.bits());
  memo_.emplace(x.bits(), MemoEntry{h, memo_order_.begin()});
}

bool EntropyOracle::MemoGet(fd::AttributeSet x, double* h) {
  auto it = memo_.find(x.bits());
  if (it == memo_.end()) return false;
  memo_order_.erase(it->second.where);
  memo_order_.push_front(x.bits());
  it->second.where = memo_order_.begin();
  *h = it->second.h;
  return true;
}

}  // namespace limbo::schemes
