#ifndef LIMBO_FD_PARTITION_H_
#define LIMBO_FD_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace limbo::fd {

/// A *stripped partition* (Huhtala et al., TANE): the equivalence classes
/// of tuples under "agree on attribute set X", with singleton classes
/// removed. The full-partition class count is recoverable as
///   |π| = NumClasses() + (n - CoveredTuples()).
///
/// The classes live flat, in CSR form: one TupleId array holding every
/// covered tuple class after class, plus NumClasses() + 1 offsets into it.
/// A partition is therefore two allocations however many classes it has,
/// which is what lets TANE hold a whole lattice level at once.
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Partition of `rel` under a single attribute. Classes are ordered by
  /// their first tuple; tuples within a class ascend.
  static StrippedPartition ForAttribute(const relation::Relation& rel,
                                        relation::AttributeId a);

  /// Product π_a · π_b — the partition of the union of the underlying
  /// attribute sets. `n` is the relation's tuple count.
  static StrippedPartition Product(const StrippedPartition& a,
                                   const StrippedPartition& b, size_t n);

  size_t NumClasses() const { return offsets_.size() - 1; }
  /// The tuples of class i, i < NumClasses(); every class has >= 2.
  std::span<const relation::TupleId> Class(size_t i) const {
    return {tuples_.data() + offsets_[i], tuples_.data() + offsets_[i + 1]};
  }
  size_t CoveredTuples() const { return tuples_.size(); }

  /// n - |π_full|; two partitions over the same relation are equal as
  /// full partitions iff one refines the other and their ranks agree.
  /// TANE's validity test X→A iff |π_X| = |π_{X∪A}| becomes
  /// Rank(X) == Rank(X∪A).
  size_t Rank() const { return CoveredTuples() - NumClasses(); }

  /// True iff every tuple is alone in its class (X is a superkey).
  bool IsSuperkey() const { return NumClasses() == 0; }

 private:
  friend class PartitionProbe;

  std::vector<relation::TupleId> tuples_;  // covered tuples, class by class
  std::vector<uint32_t> offsets_ = {0};    // class i is [offsets_[i], [i+1])
};

/// TANE's probe table: a loaded π_a indexed tuple -> class, met against
/// other partitions π_b of the same relation. One Load serves any number
/// of siblings π_a · π_b, π_a · π_c, ..., and the scratch is kept between
/// Loads, so a probe reused over one relation allocates once.
class PartitionProbe {
 public:
  /// Makes `a` the probe side; `n` is the relation's tuple count.
  void Load(const StrippedPartition& a, size_t n);

  /// π_a · π_b. Classes come in the order of the π_b classes they lie
  /// in, then of their first tuple there; tuples keep π_b's order.
  StrippedPartition Product(const StrippedPartition& b);

  /// Replaces `*sizes` with the class sizes (each >= 2) of π_a · π_b, in
  /// the order Product emits those classes.
  void Count(const StrippedPartition& b, std::vector<uint64_t>* sizes);

  /// n · (1 - g3(a → b)): the tuples left when each π_a class keeps only
  /// its largest subgroup that agrees under π_b.
  uint64_t G3Kept(const StrippedPartition& b);

 private:
  /// Calls `meet(c, size)` for each probe class c sharing `size` tuples
  /// with `cls`, in the order of c's first tuple in `cls`.
  template <typename Meet>
  void ForEachMeet(std::span<const relation::TupleId> cls, Meet meet);

  std::vector<int32_t> owner_;    // tuple -> probe class, or -1
  std::vector<uint32_t> counts_;  // per probe class; all 0 between meets
  std::vector<int32_t> cursor_;   // per probe class; Product's write
                                  // position, -1 between meets
  size_t covered_ = 0;            // tuples in the probe's classes
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_PARTITION_H_
