#include "fd/lattice.h"

#include <algorithm>
#include <bit>

namespace limbo::fd {

namespace {

/// Lexicographic order of the attribute lists of two sets of one size:
/// the set holding the smallest attribute they do not share is first.
bool LexLess(AttributeSet a, AttributeSet b) {
  const uint64_t differ = a.bits() ^ b.bits();
  return (a.bits() & differ & (~differ + 1)) != 0;
}

AttributeSet WithoutLargest(AttributeSet x) {
  return AttributeSet(x.bits() & ~std::bit_floor(x.bits()));
}

}  // namespace

std::vector<LatticeJoin> AprioriJoin(const std::vector<AttributeSet>& level) {
  std::vector<LatticeJoin> joins;
  // Sets that share a prefix are contiguous in lexicographic order.
  for (size_t lo = 0, hi = 0; lo < level.size(); lo = hi) {
    const AttributeSet prefix = WithoutLargest(level[lo]);
    while (hi < level.size() && WithoutLargest(level[hi]) == prefix) ++hi;
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        // The subsets without level[i]'s or level[j]'s largest attribute
        // are the two parents; check the rest.
        const AttributeSet z = level[i].Union(level[j]);
        bool every_subset_alive = true;
        for (relation::AttributeId a : prefix.ToList()) {
          every_subset_alive = every_subset_alive &&
                               std::binary_search(level.begin(), level.end(),
                                                  z.Without(a), LexLess);
        }
        if (every_subset_alive) joins.push_back({z, i, j});
      }
    }
  }
  return joins;
}

PartitionLattice::PartitionLattice(const relation::Relation& rel)
    : num_tuples_(rel.NumTuples()) {
  for (size_t a = 0; a < rel.NumAttributes(); ++a) {
    const auto attr = static_cast<relation::AttributeId>(a);
    level_.push_back({AttributeSet::Single(attr),
                      StrippedPartition::ForAttribute(rel, attr)});
  }
  dropped_.assign(level_.size(), false);
}

size_t PartitionLattice::Find(AttributeSet x) const {
  auto it = std::lower_bound(
      level_.begin(), level_.end(), x,
      [](const Node& node, AttributeSet s) { return LexLess(node.set, s); });
  return it != level_.end() && it->set == x ? it - level_.begin()
                                            : level_.size();
}

void PartitionLattice::Drop(size_t i) {
  dropped_[i] = true;
  level_[i].partition = StrippedPartition();
}

void PartitionLattice::Advance() {
  std::vector<Node> alive;
  std::vector<AttributeSet> sets;
  for (size_t i = 0; i < level_.size(); ++i) {
    if (dropped_[i]) continue;
    sets.push_back(level_[i].set);
    alive.push_back(std::move(level_[i]));
  }
  std::vector<Node> next;
  size_t loaded = alive.size();  // the left parent in the probe
  size_t released = 0;           // alive[0, released) are freed
  for (const LatticeJoin& join : AprioriJoin(sets)) {
    if (join.left != loaded) {
      // Joins come in order of left parent, and a right parent follows
      // its left one, so the nodes before this left parent are done.
      for (; released < join.left; ++released) {
        alive[released].partition = StrippedPartition();
      }
      probe_.Load(alive[join.left].partition, num_tuples_);
      loaded = join.left;
    }
    next.push_back({join.set, probe_.Product(alive[join.right].partition)});
  }
  level_ = std::move(next);
  dropped_.assign(level_.size(), false);
}

}  // namespace limbo::fd
