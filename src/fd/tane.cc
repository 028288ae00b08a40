#include "fd/tane.h"

#include <unordered_map>

#include "fd/lattice.h"

namespace limbo::fd {

util::Result<std::vector<FunctionalDependency>> Tane::Mine(
    const relation::Relation& rel, const TaneOptions& options) {
  std::vector<FunctionalDependency> fds;
  const size_t n = rel.NumTuples();
  const size_t m = rel.NumAttributes();
  if (n < 1 || m == 0) return fds;

  const AttributeSet full = AttributeSet::Full(m);

  // C+ and rank of each set of the level below that survived pruning;
  // at level 1 that is ∅, whose π is one class of n tuples.
  struct Below {
    AttributeSet cplus;
    size_t rank = 0;
  };
  std::unordered_map<AttributeSet, Below> below;
  below.emplace(AttributeSet(), Below{full, n - 1});

  PartitionLattice lattice(rel);
  while (!lattice.level().empty()) {
    const std::vector<PartitionLattice::Node>& level = lattice.level();

    // --- COMPUTE_DEPENDENCIES ---
    // Every X \ {A} survived the level below, or X would not exist.
    std::vector<AttributeSet> cplus(level.size(), full);
    for (size_t i = 0; i < level.size(); ++i) {
      const AttributeSet x = level[i].set;
      AttributeSet& cx = cplus[i];
      for (relation::AttributeId a : x.ToList()) {
        cx = cx.Intersect(below.at(x.Without(a)).cplus);
      }
      for (relation::AttributeId a : x.Intersect(cx).ToList()) {
        const AttributeSet lhs = x.Without(a);
        if (lhs.Count() < options.min_lhs) continue;
        if (below.at(lhs).rank == level[i].partition.Rank()) {
          fds.push_back({lhs, AttributeSet::Single(a)});
          cx = cx.Without(a);
          cx = cx.Minus(full.Minus(x));
        }
      }
    }

    // --- PRUNE ---
    std::unordered_map<AttributeSet, Below> survivors;
    for (size_t i = 0; i < level.size(); ++i) {
      const AttributeSet x = level[i].set;
      const AttributeSet cx = cplus[i];
      // Neither a node with empty C+ nor a superkey extends upward; a
      // superkey X first yields each minimal X → A with A in C+ \ X.
      if (cx.Empty() || level[i].partition.IsSuperkey()) {
        for (relation::AttributeId a : cx.Minus(x).ToList()) {
          // X → A is minimal iff A survives in every C+(X ∪ {A} \ {B}).
          // When a probe set was never generated (its own subsets were
          // pruned as keys earlier), the C+ test is inconclusive; fall
          // back to verifying one-step reducibility directly against the
          // relation (monotonicity makes one step sufficient).
          bool minimal = true;
          bool have_all_probes = true;
          for (relation::AttributeId b : x.ToList()) {
            const size_t probe = lattice.Find(x.With(a).Without(b));
            if (probe == level.size()) {
              have_all_probes = false;
              break;
            }
            if (!cplus[probe].Contains(a)) {
              minimal = false;
              break;
            }
          }
          if (!have_all_probes) {
            minimal = true;
            for (relation::AttributeId b : x.ToList()) {
              if (Holds(rel, {x.Without(b), AttributeSet::Single(a)})) {
                minimal = false;
                break;
              }
            }
          }
          if (minimal) fds.push_back({x, AttributeSet::Single(a)});
        }
        lattice.Drop(i);
        continue;
      }
      survivors.emplace(x, Below{cx, level[i].partition.Rank()});
    }

    below = std::move(survivors);
    lattice.Advance();
  }

  SortCanonically(&fds);
  return fds;
}

}  // namespace limbo::fd
