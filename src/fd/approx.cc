#include "fd/approx.h"

#include <algorithm>

#include "fd/lattice.h"

namespace limbo::fd {

using relation::AttributeId;

util::Result<std::vector<ApproximateFd>> MineApproximateFds(
    const relation::Relation& rel, const ApproxMinerOptions& options) {
  if (options.epsilon < 0.0 || options.epsilon >= 1.0) {
    return util::Status::InvalidArgument("epsilon must be in [0, 1)");
  }
  std::vector<ApproximateFd> found;
  const size_t n = rel.NumTuples();
  const size_t m = rel.NumAttributes();
  if (n < 1 || m == 0) return found;

  PartitionLattice lattice(rel);
  std::vector<StrippedPartition> single;  // π_A, level 1 of the lattice
  for (const auto& node : lattice.level()) single.push_back(node.partition);

  // Minimal qualifying LHSs per RHS attribute (for minimality pruning).
  std::vector<std::vector<AttributeSet>> minimal_lhs(m);
  auto dominated = [&](AttributeSet x, AttributeId a) {
    for (AttributeSet seen : minimal_lhs[a]) {
      if (seen.IsSubsetOf(x)) return true;
    }
    return false;
  };

  // X → A qualifies when the tuples it keeps leave g3 within epsilon.
  auto consider = [&](AttributeSet x, AttributeId a, uint64_t kept) {
    const double g3 = 1.0 - static_cast<double>(kept) / static_cast<double>(n);
    if (g3 <= options.epsilon) {
      found.push_back({{x, AttributeSet::Single(a)}, g3});
      minimal_lhs[a].push_back(x);
    }
  };

  // Level 0: ∅ → A keeps the largest A-group.
  if (options.min_lhs == 0) {
    for (AttributeId a = 0; a < m; ++a) {
      size_t largest = 1;  // n >= 1, so some group is non-empty
      for (size_t i = 0; i < single[a].NumClasses(); ++i) {
        largest = std::max(largest, single[a].Class(i).size());
      }
      consider(AttributeSet(), a, largest);
    }
  }

  // Levelwise over LHS sets: g3(X → A) is counted against one probe of
  // π_X per X, without forming π_{X∪A}.
  PartitionProbe probe;
  for (size_t ell = 1; ell <= options.max_lhs && !lattice.level().empty();
       ++ell) {
    if (ell >= options.min_lhs) {
      for (const PartitionLattice::Node& node : lattice.level()) {
        probe.Load(node.partition, n);
        for (AttributeId a = 0; a < m; ++a) {
          if (!node.set.Contains(a) && !dominated(node.set, a)) {
            consider(node.set, a, probe.G3Kept(single[a]));
          }
        }
      }
    }
    if (ell < options.max_lhs) lattice.Advance();
  }

  std::sort(found.begin(), found.end(),
            [](const ApproximateFd& a, const ApproximateFd& b) {
              if (a.fd.lhs.bits() != b.fd.lhs.bits()) {
                return a.fd.lhs.bits() < b.fd.lhs.bits();
              }
              return a.fd.rhs.bits() < b.fd.rhs.bits();
            });
  return found;
}

}  // namespace limbo::fd
