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
  PartitionProbe probe;
  probe.Load(a, n);
  return probe.Product(b);
}

void PartitionProbe::Load(const StrippedPartition& a, size_t n) {
  owner_.assign(n, -1);
  for (size_t i = 0; i < a.classes_.size(); ++i) {
    for (relation::TupleId t : a.classes_[i]) {
      owner_[t] = static_cast<int32_t>(i);
    }
  }
  counts_.assign(a.NumClasses(), 0);
  slot_.assign(a.NumClasses(), -1);
  covered_ = a.covered_;
}

template <typename Meet>
void PartitionProbe::ForEachMeet(const std::vector<relation::TupleId>& cls,
                                 Meet meet) {
  for (relation::TupleId t : cls) {
    const int32_t c = owner_[t];
    if (c >= 0) ++counts_[c];
  }
  // Report every touched counter once and zero it, so the next class
  // (and the next call) starts from a clean table.
  for (relation::TupleId t : cls) {
    const int32_t c = owner_[t];
    if (c < 0 || counts_[c] == 0) continue;
    meet(c, counts_[c]);
    counts_[c] = 0;
  }
}

StrippedPartition PartitionProbe::Product(const StrippedPartition& b) {
  StrippedPartition out;
  auto& classes = out.classes_;
  for (const auto& cls : b.classes_) {
    const size_t first = classes.size();
    ForEachMeet(cls, [&](int32_t c, uint32_t size) {
      if (size < 2) return;
      slot_[c] = static_cast<int32_t>(classes.size());
      classes.emplace_back().reserve(size);
      out.covered_ += size;
    });
    if (classes.size() == first) continue;
    for (relation::TupleId t : cls) {
      const int32_t c = owner_[t];
      if (c >= 0 && slot_[c] >= 0) classes[slot_[c]].push_back(t);
    }
    for (size_t k = first; k < classes.size(); ++k) {
      slot_[owner_[classes[k].front()]] = -1;
    }
  }
  return out;
}

void PartitionProbe::Count(const StrippedPartition& b,
                           std::vector<uint64_t>* sizes) {
  sizes->clear();
  for (const auto& cls : b.classes_) {
    ForEachMeet(cls, [sizes](int32_t, uint32_t size) {
      if (size >= 2) sizes->push_back(size);
    });
  }
}

uint64_t PartitionProbe::G3Kept(const StrippedPartition& b) {
  // A probe class keeps at least one tuple even when all of its tuples
  // are π_b singletons.
  std::vector<uint32_t> largest(counts_.size(), 1);
  for (const auto& cls : b.classes_) {
    ForEachMeet(cls, [&largest](int32_t c, uint32_t size) {
      largest[c] = std::max(largest[c], size);
    });
  }
  uint64_t kept = owner_.size() - covered_;
  for (uint32_t size : largest) kept += size;
  return kept;
}

}  // namespace limbo::fd
