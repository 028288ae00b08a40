#ifndef LIMBO_RELATION_OPS_H_
#define LIMBO_RELATION_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "util/result.h"

namespace limbo::relation {

/// Projects `rel` onto `attributes` (bag semantics — duplicates kept).
/// The projected relation has freshly encoded value ids.
util::Result<Relation> Project(const Relation& rel,
                               const std::vector<AttributeId>& attributes);

/// Projects by attribute name.
util::Result<Relation> ProjectNames(const Relation& rel,
                                    const std::vector<std::string>& names);

/// Tuples grouped exactly by their projection on an attribute set.
/// Groups are numbered in the order of their first tuple.
struct RowGroups {
  /// Group id of each grouped tuple, in input order.
  std::vector<uint32_t> group;
  /// First tuple of each group.
  std::vector<TupleId> first;
  /// Number of tuples in each group.
  std::vector<uint64_t> size;

  size_t NumGroups() const { return first.size(); }
};

/// Groups the tuples of `rel` by their values on `attributes` (all
/// tuples form one group when `attributes` is empty). An FNV-1a hash
/// over the projected value ids picks a bucket; a full comparison
/// confirms every match, so the grouping is exact.
RowGroups GroupRows(const Relation& rel,
                    const std::vector<AttributeId>& attributes);

/// Same over the listed tuples only: `group[i]` is the group of
/// `tuples[i]`, and groups are numbered by their first listed tuple.
RowGroups GroupRows(const Relation& rel,
                    const std::vector<AttributeId>& attributes,
                    std::span<const TupleId> tuples);

/// Returns `rel` with duplicate rows removed (first occurrence kept).
Relation Distinct(const Relation& rel);

/// Returns a relation containing only rows whose ids are in `tuple_ids`.
Relation SelectRows(const Relation& rel, const std::vector<TupleId>& tuple_ids);

/// Equi-join specification: left.attribute == right.attribute. The joined
/// schema keeps all left attributes and the right attributes that are not
/// join keys (natural-join style collapsing).
struct JoinKey {
  std::string left;
  std::string right;
};

/// Hash equi-join of `left` and `right` on `keys` (string equality of cell
/// text). Right-side key columns are dropped from the output.
util::Result<Relation> EquiJoin(const Relation& left, const Relation& right,
                                const std::vector<JoinKey>& keys);

}  // namespace limbo::relation

#endif  // LIMBO_RELATION_OPS_H_
