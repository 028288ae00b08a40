#ifndef LIMBO_FD_PARTITION_H_
#define LIMBO_FD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "relation/relation.h"

namespace limbo::fd {

/// A *stripped partition* (Huhtala et al., TANE): the equivalence classes
/// of tuples under "agree on attribute set X", with singleton classes
/// removed. The full-partition class count is recoverable as
///   |π| = NumClasses() + (n - CoveredTuples()).
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Partition of `rel` under a single attribute.
  static StrippedPartition ForAttribute(const relation::Relation& rel,
                                        relation::AttributeId a);

  /// Product π_a · π_b — the partition of the union of the underlying
  /// attribute sets. `n` is the relation's tuple count.
  static StrippedPartition Product(const StrippedPartition& a,
                                   const StrippedPartition& b, size_t n);

  const std::vector<std::vector<relation::TupleId>>& classes() const {
    return classes_;
  }
  size_t NumClasses() const { return classes_.size(); }
  size_t CoveredTuples() const { return covered_; }

  /// n - |π_full|; two partitions over the same relation are equal as
  /// full partitions iff one refines the other and their ranks agree.
  /// TANE's validity test X→A iff |π_X| = |π_{X∪A}| becomes
  /// Rank(X) == Rank(X∪A).
  size_t Rank() const { return covered_ - classes_.size(); }

  /// True iff every tuple is alone in its class (X is a superkey).
  bool IsSuperkey() const { return classes_.empty(); }

 private:
  std::vector<std::vector<relation::TupleId>> classes_;
  size_t covered_ = 0;
};

/// Count-only sibling of StrippedPartition::Product: the class sizes of
/// π_a · π_b without their tuple lists. It runs Product's probe table with
/// one counter per probe class in place of Product's bins. The scratch is
/// kept between calls, so counting many products over one relation
/// allocates once, and one loaded probe can be counted against several
/// partitions (siblings π_a · π_b, π_a · π_c, ...) for one table fill.
class ProductCounter {
 public:
  /// Makes `a` the probe side; `n` is the relation's tuple count.
  void Load(const StrippedPartition& a, size_t n);

  /// Replaces `*sizes` with the sizes (each >= 2) of the stripped classes
  /// of probe · b, in the order Product would emit those classes. `b`
  /// must partition the relation the last Load was given.
  void Count(const StrippedPartition& b, std::vector<uint64_t>* sizes);

 private:
  std::vector<int32_t> owner_;    // tuple -> probe class, or -1
  std::vector<uint32_t> counts_;  // per probe class; all 0 between Counts
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_PARTITION_H_
