#include "fd/partition.h"

#include <algorithm>
#include <unordered_map>

namespace limbo::fd {

StrippedPartition StrippedPartition::ForAttribute(
    const relation::Relation& rel, relation::AttributeId a) {
  std::unordered_map<relation::ValueId, std::vector<relation::TupleId>> groups;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    groups[rel.At(t, a)].push_back(t);
  }
  StrippedPartition out;
  for (auto& [value, tuples] : groups) {
    if (tuples.size() >= 2) {
      out.covered_ += tuples.size();
      out.classes_.push_back(std::move(tuples));
    }
  }
  // Deterministic order regardless of hash iteration.
  std::sort(out.classes_.begin(), out.classes_.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return out;
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& a,
                                             const StrippedPartition& b,
                                             size_t n) {
  // Standard TANE probe-table product. `owner[t]` maps tuple t to its
  // class index in `a` (or -1).
  std::vector<int32_t> owner(n, -1);
  for (size_t i = 0; i < a.classes_.size(); ++i) {
    for (relation::TupleId t : a.classes_[i]) {
      owner[t] = static_cast<int32_t>(i);
    }
  }
  std::vector<std::vector<relation::TupleId>> bins(a.classes_.size());
  StrippedPartition out;
  for (const auto& cls : b.classes_) {
    // Scatter this b-class into per-a-class bins.
    for (relation::TupleId t : cls) {
      const int32_t o = owner[t];
      if (o >= 0) bins[o].push_back(t);
    }
    // Harvest bins with >= 2 members; clear the rest.
    for (relation::TupleId t : cls) {
      const int32_t o = owner[t];
      if (o < 0) continue;
      auto& bin = bins[o];
      if (bin.empty()) continue;  // already harvested or cleared
      if (bin.size() >= 2) {
        out.covered_ += bin.size();
        out.classes_.push_back(std::move(bin));
      }
      bin.clear();
    }
  }
  return out;
}

void ProductCounter::Load(const StrippedPartition& a, size_t n) {
  owner_.assign(n, -1);
  for (size_t i = 0; i < a.classes().size(); ++i) {
    for (relation::TupleId t : a.classes()[i]) {
      owner_[t] = static_cast<int32_t>(i);
    }
  }
  counts_.assign(a.NumClasses(), 0);
}

void ProductCounter::Count(const StrippedPartition& b,
                           std::vector<uint64_t>* sizes) {
  sizes->clear();
  for (const auto& cls : b.classes()) {
    for (relation::TupleId t : cls) {
      const int32_t o = owner_[t];
      if (o >= 0) ++counts_[o];
    }
    // Harvest counters of >= 2 and zero every touched one, so the next
    // class (and the next Count) starts from a clean table.
    for (relation::TupleId t : cls) {
      const int32_t o = owner_[t];
      if (o < 0 || counts_[o] == 0) continue;
      if (counts_[o] >= 2) sizes->push_back(counts_[o]);
      counts_[o] = 0;
    }
  }
}

}  // namespace limbo::fd
