#ifndef LIMBO_FD_LATTICE_H_
#define LIMBO_FD_LATTICE_H_

#include <vector>

#include "fd/attribute_set.h"
#include "fd/partition.h"

namespace limbo::fd {

/// An (ℓ+1)-set and the level indices left < right of the two ℓ-sets it
/// joins, which share all but their largest attribute.
struct LatticeJoin {
  AttributeSet set;
  size_t left = 0;
  size_t right = 0;
};

/// The apriori step: given distinct ℓ-sets in lexicographic order of
/// their attribute lists, every (ℓ+1)-set all of whose ℓ-subsets are
/// among them, in the same order.
std::vector<LatticeJoin> AprioriJoin(const std::vector<AttributeSet>& level);

/// The attribute-set lattice of a relation over stripped partitions,
/// walked level by level by TANE, key discovery and approximate-FD
/// mining: a client reads a level, drops the nodes it will not extend,
/// and advances. A child's partition is one product against a probe of
/// its left parent, loaded once for all of that parent's right siblings,
/// and each parent is freed once the join has passed it.
class PartitionLattice {
 public:
  struct Node {
    AttributeSet set;
    StrippedPartition partition;
  };

  /// Level 1, one node per attribute. `rel` must outlive the lattice.
  explicit PartitionLattice(const relation::Relation& rel);

  /// The current level, in lexicographic order of the attribute lists.
  const std::vector<Node>& level() const { return level_; }

  /// Index of `x` in level(), or level().size() when absent.
  size_t Find(AttributeSet x) const;

  /// Frees level()[i]'s partition and keeps it out of the next level;
  /// the node stays in level() until Advance.
  void Drop(size_t i);

  /// Replaces the level with AprioriJoin over the nodes not dropped.
  void Advance();

 private:
  size_t num_tuples_;
  std::vector<Node> level_;
  std::vector<bool> dropped_;
  PartitionProbe probe_;
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_LATTICE_H_
