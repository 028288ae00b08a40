#include "relation/ops.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/strings.h"

namespace limbo::relation {

namespace {

constexpr uint32_t kNoGroup = UINT32_MAX;

util::Status ValidateAttributes(const Relation& rel,
                                const std::vector<AttributeId>& attributes) {
  if (attributes.empty()) {
    return util::Status::InvalidArgument("attribute list is empty");
  }
  for (AttributeId a : attributes) {
    if (a >= rel.NumAttributes()) {
      return util::Status::OutOfRange(
          util::StrFormat("attribute %u out of range (m=%zu)", a,
                          rel.NumAttributes()));
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<Relation> Project(const Relation& rel,
                               const std::vector<AttributeId>& attributes) {
  LIMBO_RETURN_IF_ERROR(ValidateAttributes(rel, attributes));
  std::vector<std::string> names;
  names.reserve(attributes.size());
  for (AttributeId a : attributes) names.push_back(rel.schema().Name(a));
  LIMBO_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(names)));
  RelationBuilder builder(std::move(schema));
  std::vector<std::string> row(attributes.size());
  for (TupleId t = 0; t < rel.NumTuples(); ++t) {
    for (size_t i = 0; i < attributes.size(); ++i) {
      row[i] = rel.TextAt(t, attributes[i]);
    }
    LIMBO_RETURN_IF_ERROR(builder.AddRow(row));
  }
  return std::move(builder).Build();
}

util::Result<Relation> ProjectNames(const Relation& rel,
                                    const std::vector<std::string>& names) {
  std::vector<AttributeId> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    LIMBO_ASSIGN_OR_RETURN(AttributeId a, rel.schema().Find(name));
    attrs.push_back(a);
  }
  return Project(rel, attrs);
}

RowGroups GroupRows(const Relation& rel,
                    const std::vector<AttributeId>& attributes) {
  std::vector<TupleId> all(rel.NumTuples());
  for (TupleId t = 0; t < all.size(); ++t) all[t] = t;
  return GroupRows(rel, attributes, all);
}

RowGroups GroupRows(const Relation& rel,
                    const std::vector<AttributeId>& attributes,
                    std::span<const TupleId> tuples) {
  RowGroups out;
  out.group.resize(tuples.size());
  // Power-of-two bucket heads; groups sharing a bucket chain through
  // `next`, and `hash` skips most full comparisons on a chain.
  size_t buckets = 1;
  while (buckets < tuples.size()) buckets <<= 1;
  std::vector<uint32_t> head(buckets, kNoGroup);
  std::vector<uint32_t> next;
  std::vector<uint64_t> hash;
  auto same = [&](TupleId x, TupleId y) {
    for (AttributeId a : attributes) {
      if (rel.At(x, a) != rel.At(y, a)) return false;
    }
    return true;
  };
  for (size_t i = 0; i < tuples.size(); ++i) {
    const TupleId t = tuples[i];
    uint64_t h = 1469598103934665603ULL;
    for (AttributeId a : attributes) {
      h ^= rel.At(t, a);
      h *= 1099511628211ULL;
    }
    uint32_t& bucket = head[h & (buckets - 1)];
    uint32_t g = bucket;
    while (g != kNoGroup && !(hash[g] == h && same(out.first[g], t))) {
      g = next[g];
    }
    if (g == kNoGroup) {
      g = static_cast<uint32_t>(out.first.size());
      out.first.push_back(t);
      out.size.push_back(0);
      hash.push_back(h);
      next.push_back(bucket);
      bucket = g;
    }
    ++out.size[g];
    out.group[i] = g;
  }
  return out;
}

Relation Distinct(const Relation& rel) {
  std::vector<AttributeId> all(rel.NumAttributes());
  for (size_t a = 0; a < all.size(); ++a) all[a] = static_cast<AttributeId>(a);
  return SelectRows(rel, GroupRows(rel, all).first);
}

Relation SelectRows(const Relation& rel,
                    const std::vector<TupleId>& tuple_ids) {
  std::vector<std::string> names = rel.schema().Names();
  auto schema = Schema::Create(std::move(names));
  LIMBO_CHECK(schema.ok());
  RelationBuilder builder(std::move(schema).value());
  std::vector<std::string> row(rel.NumAttributes());
  for (TupleId t : tuple_ids) {
    LIMBO_CHECK(t < rel.NumTuples());
    for (size_t a = 0; a < rel.NumAttributes(); ++a) {
      row[a] = rel.TextAt(t, static_cast<AttributeId>(a));
    }
    util::Status s = builder.AddRow(row);
    LIMBO_CHECK(s.ok());
  }
  return std::move(builder).Build();
}

util::Result<Relation> EquiJoin(const Relation& left, const Relation& right,
                                const std::vector<JoinKey>& keys) {
  if (keys.empty()) {
    return util::Status::InvalidArgument("join requires >= 1 key");
  }
  std::vector<AttributeId> left_keys;
  std::vector<AttributeId> right_keys;
  for (const JoinKey& k : keys) {
    LIMBO_ASSIGN_OR_RETURN(AttributeId la, left.schema().Find(k.left));
    LIMBO_ASSIGN_OR_RETURN(AttributeId ra, right.schema().Find(k.right));
    left_keys.push_back(la);
    right_keys.push_back(ra);
  }
  // Output schema: all left attributes + right non-key attributes.
  std::vector<AttributeId> right_carry;
  std::vector<std::string> names = left.schema().Names();
  for (size_t a = 0; a < right.NumAttributes(); ++a) {
    const AttributeId ra = static_cast<AttributeId>(a);
    if (std::find(right_keys.begin(), right_keys.end(), ra) !=
        right_keys.end()) {
      continue;
    }
    std::string name = right.schema().Name(ra);
    // Disambiguate collisions with the left schema.
    if (left.schema().Find(name).ok()) name += "_r";
    names.push_back(std::move(name));
    right_carry.push_back(ra);
  }
  LIMBO_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(names)));

  // Build hash table over the right input keyed by the join-key texts.
  std::unordered_map<std::string, std::vector<TupleId>> table;
  for (TupleId t = 0; t < right.NumTuples(); ++t) {
    std::string key;
    for (AttributeId a : right_keys) {
      key += right.TextAt(t, a);
      key += '\x1f';
    }
    table[key].push_back(t);
  }

  RelationBuilder builder(std::move(schema));
  std::vector<std::string> row(left.NumAttributes() + right_carry.size());
  for (TupleId lt = 0; lt < left.NumTuples(); ++lt) {
    std::string key;
    for (AttributeId a : left_keys) {
      key += left.TextAt(lt, a);
      key += '\x1f';
    }
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (TupleId rt : it->second) {
      size_t i = 0;
      for (size_t a = 0; a < left.NumAttributes(); ++a) {
        row[i++] = left.TextAt(lt, static_cast<AttributeId>(a));
      }
      for (AttributeId a : right_carry) {
        row[i++] = right.TextAt(rt, a);
      }
      LIMBO_RETURN_IF_ERROR(builder.AddRow(row));
    }
  }
  return std::move(builder).Build();
}

}  // namespace limbo::relation
