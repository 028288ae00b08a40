#include "fd/keys.h"

#include <algorithm>

#include "fd/lattice.h"

namespace limbo::fd {

util::Result<std::vector<AttributeSet>> MineMinimalKeys(
    const relation::Relation& rel, const KeyMinerOptions& options) {
  std::vector<AttributeSet> keys;
  const size_t m = rel.NumAttributes();
  const size_t max_size = options.max_size == 0 ? m : options.max_size;

  // A key found leaves the join, so no candidate containing it is formed.
  // With n <= 1 every set is a key, even ∅; each singleton is reported.
  PartitionLattice lattice(rel);
  for (size_t ell = 1; !lattice.level().empty(); ++ell) {
    for (size_t i = 0; i < lattice.level().size(); ++i) {
      if (lattice.level()[i].partition.IsSuperkey()) {
        keys.push_back(lattice.level()[i].set);
        lattice.Drop(i);
      }
    }
    if (ell >= max_size) break;
    lattice.Advance();
  }

  std::sort(keys.begin(), keys.end());
  return keys;
}

bool ViolatesBcnf(const FunctionalDependency& f,
                  const std::vector<AttributeSet>& minimal_keys) {
  if (f.rhs.IsSubsetOf(f.lhs)) return false;  // trivial
  for (AttributeSet key : minimal_keys) {
    if (key.IsSubsetOf(f.lhs)) return false;  // LHS is a superkey
  }
  return true;
}

}  // namespace limbo::fd
