#include "fd/partition.h"

#include <algorithm>

namespace limbo::fd {

StrippedPartition StrippedPartition::ForAttribute(
    const relation::Relation& rel, relation::AttributeId a) {
  // Value ids are dense over the relation's dictionary: count each value,
  // then lay its class out at the running offset the first time one of
  // its tuples shows up, so classes come in order of first tuple.
  constexpr uint32_t kUnplaced = UINT32_MAX;
  const size_t n = rel.NumTuples();
  std::vector<uint32_t> count(rel.NumValues(), 0);
  for (relation::TupleId t = 0; t < n; ++t) ++count[rel.At(t, a)];
  size_t covered = 0;
  for (uint32_t c : count) {
    if (c >= 2) covered += c;
  }
  StrippedPartition out;
  out.tuples_.resize(covered);
  std::vector<uint32_t> cursor(count.size(), kUnplaced);
  uint32_t end = 0;
  for (relation::TupleId t = 0; t < n; ++t) {
    const relation::ValueId v = rel.At(t, a);
    if (count[v] < 2) continue;
    if (cursor[v] == kUnplaced) {
      cursor[v] = end;
      end += count[v];
      out.offsets_.push_back(end);
    }
    out.tuples_[cursor[v]++] = t;
  }
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
  for (size_t i = 0; i < a.NumClasses(); ++i) {
    for (relation::TupleId t : a.Class(i)) {
      owner_[t] = static_cast<int32_t>(i);
    }
  }
  counts_.assign(a.NumClasses(), 0);
  cursor_.assign(a.NumClasses(), -1);
  covered_ = a.CoveredTuples();
}

template <typename Meet>
void PartitionProbe::ForEachMeet(std::span<const relation::TupleId> cls,
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
  auto& tuples = out.tuples_;
  auto& offsets = out.offsets_;
  // π_a · π_b refines π_b, so it covers at most π_b's tuples; the unused
  // tail is trimmed once every class is in place.
  tuples.resize(b.CoveredTuples());
  uint32_t end = 0;
  for (size_t i = 0; i < b.NumClasses(); ++i) {
    const std::span<const relation::TupleId> cls = b.Class(i);
    const size_t first = out.NumClasses();
    ForEachMeet(cls, [&](int32_t c, uint32_t size) {
      if (size < 2) return;
      cursor_[c] = end;
      end += size;
      offsets.push_back(end);
    });
    if (out.NumClasses() == first) continue;
    for (relation::TupleId t : cls) {
      const int32_t c = owner_[t];
      if (c >= 0 && cursor_[c] >= 0) tuples[cursor_[c]++] = t;
    }
    for (size_t k = first; k < out.NumClasses(); ++k) {
      cursor_[owner_[tuples[offsets[k]]]] = -1;
    }
  }
  tuples.resize(end);
  tuples.shrink_to_fit();
  offsets.shrink_to_fit();
  return out;
}

void PartitionProbe::Count(const StrippedPartition& b,
                           std::vector<uint64_t>* sizes) {
  sizes->clear();
  for (size_t i = 0; i < b.NumClasses(); ++i) {
    ForEachMeet(b.Class(i), [sizes](int32_t, uint32_t size) {
      if (size >= 2) sizes->push_back(size);
    });
  }
}

uint64_t PartitionProbe::G3Kept(const StrippedPartition& b) {
  // A probe class keeps at least one tuple even when all of its tuples
  // are π_b singletons.
  std::vector<uint32_t> largest(counts_.size(), 1);
  for (size_t i = 0; i < b.NumClasses(); ++i) {
    ForEachMeet(b.Class(i), [&largest](int32_t c, uint32_t size) {
      largest[c] = std::max(largest[c], size);
    });
  }
  uint64_t kept = owner_.size() - covered_;
  for (uint32_t size : largest) kept += size;
  return kept;
}

}  // namespace limbo::fd
