#include "model/model_bundle.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/strings.h"

namespace limbo::model {

namespace {

constexpr char kMagic[8] = {'L', 'I', 'M', 'B', 'O', 'M', 'D', 'L'};

// Section tags, written and required in ascending order.
enum SectionTag : uint32_t {
  kMeta = 1,
  kSchema = 2,
  kDictionary = 3,
  kRepresentatives = 4,
  kAssignments = 5,
  kValueGroups = 6,
  kGrouping = 7,
  kRankedFds = 8,
  kPhase1Tree = 9,
  kLineage = 10,
  kSchemes = 11,
};

/// One row of the section table: the name in error messages, the bundle
/// flag that says whether an optional section is present (null for a
/// required one), and the first format version that may carry it.
struct SectionSpec {
  uint32_t tag;
  const char* name;
  bool ModelBundle::*present;
  uint32_t since;
};

constexpr SectionSpec kSections[] = {
    {kMeta, "meta", nullptr, 1},
    {kSchema, "schema", nullptr, 1},
    {kDictionary, "dictionary", nullptr, 1},
    {kRepresentatives, "representatives", nullptr, 1},
    {kAssignments, "assignments", nullptr, 1},
    {kValueGroups, "value groups", nullptr, 1},
    {kGrouping, "grouping", &ModelBundle::has_grouping, 1},
    {kRankedFds, "ranked FDs", nullptr, 1},
    {kPhase1Tree, "phase-1 tree", &ModelBundle::has_phase1_tree, 2},
    {kLineage, "lineage", &ModelBundle::has_lineage, 2},
    {kSchemes, "schemes", &ModelBundle::has_schemes, 3},
};
constexpr uint32_t kNumTags = kSchemes;

// A corrupt phase-1-tree section must not be able to recurse the parser
// off the stack; real trees with branching >= 2 are far shallower.
constexpr size_t kMaxTreeDepth = 64;

// Fewest bytes a phase-1 leaf entry takes: its id, then a DCF with empty
// support and no count row (mass, support count, count-row length).
constexpr size_t kLeafEntryBytes =
    sizeof(uint32_t) + sizeof(double) + 2 * sizeof(uint64_t);

// Conditional ids of a value group's DCF range over tuples (or tuple
// clusters under Double Clustering), so no id bound applies to them.
constexpr uint64_t kAnyId = UINT64_MAX;

// ---- the two directions of the codec ----
//
// Each section body below is one template over `Io`, which is a Writer or
// a Reader. Both read and write fields through the same calls: `Pod`
// for a fixed-width field (host-endian; doubles as raw IEEE-754 bits),
// `Str` for a length-prefixed string, `Count` for an element count, and
// `Check` for a condition on what was just read.

/// Appends each field of a const bundle. Its checks are no-ops: the
/// bundle in memory is trusted, and the reader checks what it wrote.
class Writer {
 public:
  using Bundle = const ModelBundle;
  static constexpr bool kReading = false;

  explicit Writer(std::string* out) : out_(out) {}

  bool ok() const { return true; }
  /// The writer always writes the current format.
  uint32_t version() const { return kFormatVersion; }

  template <class T>
  T Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&v), sizeof(T));
    return v;
  }
  void Str(const std::string& s) {
    Pod(static_cast<uint64_t>(s.size()));
    out_->append(s);
  }
  void Count(const uint64_t& n, size_t /*min_elem_bytes*/) { Pod(n); }
  bool Fits(uint64_t /*n*/, size_t /*elem_bytes*/) const { return true; }
  void Check(bool /*cond*/, const char* /*fmt*/, const char* = "") {}

 private:
  std::string* out_;
};

/// Fills a bundle from one section body and checks each field where it is
/// read. The first failed read or check is kept, and every later read
/// yields zero, so a body runs as straight-line code. An index or a size
/// taken from a value just read must test ok() first.
class Reader {
 public:
  using Bundle = ModelBundle;
  static constexpr bool kReading = true;

  Reader(const char* data, size_t size, uint32_t version)
      : p_(data), end_(data + size), version_(version) {}

  bool ok() const { return status_.ok(); }
  const util::Status& status() const { return status_; }
  uint32_t version() const { return version_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  template <class T>
  T Pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (ok() && remaining() >= sizeof(T)) {
      std::memcpy(&v, p_, sizeof(T));
      p_ += sizeof(T);
    } else {
      Check(false, "truncated field");
      v = T{};
    }
    return v;
  }
  void Str(std::string& s) {
    uint64_t len = 0;
    Pod(len);
    Check(len <= remaining(), "truncated string");
    if (!ok()) return;
    s.assign(p_, static_cast<size_t>(len));
    p_ += len;
  }
  /// Reads an element count and refuses counts that could not possibly
  /// fit in the remaining bytes — a corrupt length must fail fast, not
  /// drive a multi-gigabyte allocation.
  void Count(uint64_t& n, size_t min_elem_bytes) {
    Pod(n);
    Check(Fits(n, min_elem_bytes), "element count exceeds section size");
    if (!ok()) n = 0;
  }
  bool Fits(uint64_t n, size_t elem_bytes) const {
    return n <= remaining() / elem_bytes;
  }
  /// Records the first failure; the message is formatted only then.
  void Check(bool cond, const char* fmt, const char* what = "") {
    if (cond || !ok()) return;
    status_ = util::Status::InvalidArgument(
        "model bundle: " + util::StrFormat(fmt, what));
  }
  /// Takes the next `n` bytes as a reader of their own (`n` must fit).
  Reader Slice(size_t n) {
    Reader sub(p_, n, version_);
    p_ += n;
    return sub;
  }
  /// The section's status once its body is read: an error, or trailing
  /// bytes the body did not consume.
  util::Status Finish(const char* section) {
    Check(p_ == end_, "trailing bytes in %s section", section);
    return status_;
  }

 private:
  const char* p_;
  const char* end_;
  uint32_t version_;
  util::Status status_;
};

// ---- shared field helpers ----

/// A container's element count: the reader bounds it and sizes `c`.
template <class Io, class C>
uint64_t Size(Io& io, C& c, size_t min_elem_bytes) {
  uint64_t n = c.size();
  io.Count(n, min_elem_bytes);
  if constexpr (Io::kReading) c.resize(n);
  return n;
}

/// A field stored on the wire as `Wire`: the writer narrows it, the
/// reader widens it back.
template <class Wire, class Io, class T>
Wire As(Io& io, T& field) {
  Wire w = static_cast<Wire>(field);
  io.Pod(w);
  if constexpr (Io::kReading) field = static_cast<std::remove_const_t<T>>(w);
  return w;
}

template <class Io, class T>
void Bool(Io& io, T& field) {
  io.Check(As<uint8_t>(io, field) <= 1, "boolean field out of range");
}

template <class Io, class T>
double Finite(Io& io, T& v, const char* what) {
  io.Check(std::isfinite(io.Pod(v)), "non-finite %s", what);
  return v;
}

template <class Io, class T>
void NonNegative(Io& io, T& v, const char* what) {
  io.Check(Finite(io, v, what) >= 0.0, "negative %s", what);
}

template <class Io, class T>
void Positive(Io& io, T& v, const char* what) {
  io.Check(Finite(io, v, what) > 0.0, "%s not > 0", what);
}

/// An attribute bitset: no bit outside the schema's `mask`.
template <class Io, class T>
uint64_t Bits(Io& io, T& bits, uint64_t mask, const char* what) {
  io.Check((io.Pod(bits) & ~mask) == 0, "%s bits out of range", what);
  return bits;
}

/// One sparse (id, mass) entry: finite mass > 0, id below `limit`, and
/// ids strictly increasing after `prev` (-1 before the first entry).
template <class Io, class Id, class Mass>
void Entry(Io& io, Id& id, Mass& mass, int64_t prev, uint64_t limit,
           const char* what) {
  io.Pod(id);
  Positive(io, mass, what);
  io.Check(id < limit, "%s id out of range", what);
  io.Check(static_cast<int64_t>(id) > prev, "%s ids not strictly increasing",
           what);
}

/// The `n` (id, mass) entries of a sparse distribution. The writer walks
/// the stored list; the reader fills a scratch list and installs it.
template <class Io, class Dist>
void Sparse(Io& io, Dist& dist, uint64_t n, uint64_t limit, const char* what) {
  std::vector<core::SparseDistribution::Entry> scratch(
      Io::kReading && io.ok() ? n : 0);
  auto& entries = [&]() -> auto& {
    if constexpr (Io::kReading) {
      return scratch;
    } else {
      return dist.entries();
    }
  }();
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry(io, entries[i].id, entries[i].mass,
          i == 0 ? -1 : static_cast<int64_t>(entries[i - 1].id), limit, what);
  }
  if constexpr (Io::kReading) {
    if (io.ok() && !scratch.empty()) {
      dist = core::SparseDistribution::FromNormalizedPairs(std::move(scratch));
    }
  }
}

/// A DCF: mass, sparse conditional, then the ADCF count row. Phase-1
/// leaf entries are tuple DCFs, which never carry a count row.
template <class Io, class D>
void Dcf(Io& io, D& d, uint64_t id_limit, bool counts_allowed) {
  Positive(io, d.p, "dcf mass");
  uint64_t support = d.cond.SupportSize();
  io.Count(support, sizeof(uint32_t) + sizeof(double));
  Sparse(io, d.cond, support, id_limit, "dcf conditional");
  const uint64_t counts = Size(io, d.attr_counts, sizeof(uint64_t));
  io.Check(counts_allowed || counts == 0,
           "phase-1 leaf entry carries attribute counts");
  for (auto& c : d.attr_counts) io.Pod(c);
}

// ---- the sections, each described once ----

template <class Io>
void Meta(Io& io, typename Io::Bundle& b) {
  io.Check(io.Pod(b.num_rows) != 0, "num_rows is zero");
  for (auto* v : {&b.phi_t, &b.phi_v, &b.psi, &b.mutual_information,
                  &b.threshold, &b.association_margin,
                  &b.value_mutual_information, &b.value_threshold}) {
    NonNegative(io, *v, "meta field");
  }
}

template <class Io>
void Schema(Io& io, typename Io::Bundle& b) {
  std::vector<std::string> names = b.schema.Names();
  Size(io, names, sizeof(uint64_t));
  for (auto& name : names) io.Str(name);
  if constexpr (Io::kReading) {
    if (!io.ok()) return;
    auto schema = relation::Schema::Create(std::move(names));
    io.Check(schema.ok(), "%s", schema.status().message().c_str());
    if (schema.ok()) b.schema = std::move(schema).value();
  }
}

template <class Io>
void Dictionary(Io& io, typename Io::Bundle& b) {
  uint64_t n = b.dictionary.NumValues();
  io.Count(n, 2 * sizeof(uint32_t) + sizeof(uint64_t));
  io.Check(n <= UINT32_MAX, "dictionary too large");
  for (uint64_t v = 0; v < n; ++v) {
    if constexpr (Io::kReading) {
      uint32_t attribute = 0;
      uint32_t support = 0;
      std::string text;
      io.Pod(attribute);
      io.Pod(support);
      io.Str(text);
      io.Check(attribute < b.schema.NumAttributes(),
               "dictionary attribute out of range");
      // InternCounted requires the pair to be fresh; a corrupt file with a
      // repeated pair must not silently shadow the first id.
      io.Check(!io.ok() || !b.dictionary.Find(attribute, text).ok(),
               "duplicate dictionary entry");
      if (io.ok()) b.dictionary.InternCounted(attribute, text, support);
    } else {
      const auto id = static_cast<relation::ValueId>(v);
      io.Pod(b.dictionary.Attribute(id));
      io.Pod(b.dictionary.Support(id));
      io.Str(b.dictionary.Text(id));
    }
  }
}

template <class Io>
void Representatives(Io& io, typename Io::Bundle& b) {
  // CSR layout, mirroring DistributionArena: priors, row offsets, then one
  // flat (id, mass) entry slab — so a loader can hand the rows straight to
  // an arena without per-row bookkeeping.
  auto& reps = b.representatives;
  const uint64_t n = Size(io, reps, sizeof(double) + sizeof(uint64_t));
  for (auto& r : reps) Positive(io, r.p, "representative mass");
  std::vector<uint64_t> offsets(n + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + reps[i].cond.SupportSize();
  }
  for (uint64_t i = 0; i <= n; ++i) {
    io.Check(io.Pod(offsets[i]) >= (i > 0 ? offsets[i - 1] : 0),
             "representative offsets not monotone");
  }
  io.Check(offsets[0] == 0 &&
               io.Fits(offsets[n], sizeof(uint32_t) + sizeof(double)),
           "representative entry slab size mismatch");
  for (uint64_t i = 0; i < n; ++i) {
    // No fit writes an empty row, and δI against one is 0, so it would
    // take every served assignment.
    io.Check(offsets[i + 1] > offsets[i], "representative with empty support");
    Sparse(io, reps[i].cond, offsets[i + 1] - offsets[i],
           b.dictionary.NumValues(), "representative entry");
  }
}

template <class Io>
void Assignments(Io& io, typename Io::Bundle& b) {
  const uint64_t n =
      Size(io, b.assignments, sizeof(uint32_t) + sizeof(double));
  io.Check(n == b.num_rows, "assignment count != num_rows");
  for (auto& label : b.assignments) {
    io.Check(io.Pod(label) < b.representatives.size(),
             "assignment label out of range");
  }
  if constexpr (Io::kReading) b.assignment_loss.resize(n);
  for (auto& loss : b.assignment_loss) Finite(io, loss, "assignment loss");
}

template <class Io>
void ValueGroups(Io& io, typename Io::Bundle& b) {
  Size(io, b.value_groups, sizeof(uint64_t));
  for (auto& g : b.value_groups) {
    Size(io, g.values, sizeof(uint32_t));
    for (auto& v : g.values) {
      io.Check(io.Pod(v) < b.dictionary.NumValues(),
               "value-group member out of range");
    }
    Dcf(io, g.dcf, kAnyId, /*counts_allowed=*/true);
    Bool(io, g.is_duplicate);
  }
  Size(io, b.duplicate_groups, sizeof(uint32_t));
  for (auto& g : b.duplicate_groups) {
    io.Check(io.Pod(g) < b.value_groups.size(),
             "duplicate-group index out of range");
  }
}

template <class Io>
void Grouping(Io& io, typename Io::Bundle& b) {
  const uint64_t mask = fd::AttributeSet::Full(b.schema.NumAttributes()).bits();
  const uint64_t q = Size(io, b.grouping_attributes, sizeof(uint32_t));
  for (auto& a : b.grouping_attributes) {
    io.Check(io.Pod(a) < b.schema.NumAttributes(),
             "grouping attribute out of range");
  }
  io.Check(io.Pod(b.grouping_num_objects) == q, "grouping leaf count mismatch");
  auto& merges = b.grouping_merges;
  Size(io, merges, 3 * sizeof(uint32_t) + 3 * sizeof(double));
  for (uint64_t i = 0; i < merges.size(); ++i) {
    auto& m = merges[i];
    io.Pod(m.left);
    io.Pod(m.right);
    io.Pod(m.merged);
    Finite(io, m.delta_i, "merge loss");
    Finite(io, m.cumulative_loss, "merge loss");
    Finite(io, m.p_merged, "merge mass");
    // scipy-linkage convention: the i-th merge creates cluster q+i from
    // two clusters that already exist.
    const uint64_t limit = q + i;
    io.Check(m.left < limit && m.right < limit && m.left != m.right &&
                 m.merged == limit,
             "merge ids violate the linkage convention");
  }
  const uint64_t members =
      Size(io, b.grouping_cluster_members, sizeof(uint64_t));
  io.Check(members == q + merges.size(), "cluster-member table size mismatch");
  for (auto& bits : b.grouping_cluster_members) {
    Bits(io, bits, mask, "grouping cluster member");
  }
  Finite(io, b.max_merge_loss, "max merge loss");
}

template <class Io>
void RankedFds(Io& io, typename Io::Bundle& b) {
  const uint64_t mask = fd::AttributeSet::Full(b.schema.NumAttributes()).bits();
  io.Pod(b.num_fds);
  Size(io, b.ranked_fds, 2 * sizeof(uint64_t) + sizeof(double) + 1);
  for (auto& r : b.ranked_fds) {
    uint64_t lhs = r.fd.lhs.bits();
    uint64_t rhs = r.fd.rhs.bits();
    Bits(io, lhs, mask, "FD attribute");
    Bits(io, rhs, mask, "FD attribute");
    if constexpr (Io::kReading) {
      r.fd.lhs = fd::AttributeSet(lhs);
      r.fd.rhs = fd::AttributeSet(rhs);
    }
    Finite(io, r.rank, "FD rank");
    Bool(io, r.anchored);
  }
}

/// What the phase-1 tree walk gathers to cross-check the header stats.
struct TreeWalk {
  uint64_t branching = 0;
  uint64_t leaf_capacity = 0;
  uint64_t num_values = 0;
  size_t nodes = 0;
  size_t max_depth = 0;
  std::vector<bool> id_seen;  // per leaf-entry id
};

/// One node of the phase-1 tree at `depth` (1-based), then its subtree.
template <class Io, class Node>
void TreeNode(Io& io, Node& node, TreeWalk& walk, size_t depth) {
  io.Check(depth <= kMaxTreeDepth,
           "phase-1 tree deeper than the format allows");
  if (!io.ok()) return;
  ++walk.nodes;
  walk.max_depth = std::max(walk.max_depth, depth);
  Bool(io, node.is_leaf);
  if (node.is_leaf) {
    const uint64_t n = Size(io, node.entries, kLeafEntryBytes);
    io.Check(n <= walk.leaf_capacity, "phase-1 leaf over capacity");
    if constexpr (Io::kReading) node.entry_ids.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t id = io.Pod(node.entry_ids[i]);
      const bool fresh = id < walk.id_seen.size() && !walk.id_seen[id];
      io.Check(fresh, "phase-1 leaf-entry id out of range or repeated");
      if (fresh) walk.id_seen[id] = true;
      Dcf(io, node.entries[i], walk.num_values, /*counts_allowed=*/false);
    }
    return;
  }
  const uint64_t n = Size(io, node.children, 2 * sizeof(double) + 1);
  io.Check(n >= 1 && n <= walk.branching,
           "phase-1 internal fan-out out of range");
  for (auto& child : node.children) {
    Positive(io, child.p, "phase-1 child mass");
    const uint64_t acc =
        Size(io, child.acc_ids, sizeof(uint32_t) + sizeof(double));
    if constexpr (Io::kReading) child.acc_masses.resize(acc);
    for (uint64_t e = 0; e < acc; ++e) {
      Entry(io, child.acc_ids[e], child.acc_masses[e],
            e == 0 ? -1 : static_cast<int64_t>(child.acc_ids[e - 1]),
            walk.num_values, "phase-1 accumulator");
    }
    TreeNode(io, child.node, walk, depth + 1);
  }
}

template <class Io>
void Phase1Tree(Io& io, typename Io::Bundle& b) {
  auto& t = b.phase1_tree;
  auto& s = t.stats;
  TreeWalk walk;
  walk.branching = As<uint32_t>(io, t.branching);
  walk.leaf_capacity = As<uint32_t>(io, t.leaf_capacity);
  walk.num_values = b.dictionary.NumValues();
  Finite(io, t.threshold, "phase-1 threshold");
  io.Check(walk.branching >= 2 && walk.branching <= (1u << 16) &&
               walk.leaf_capacity >= 1 && walk.leaf_capacity <= (1u << 16) &&
               t.threshold >= 0.0,
           "phase-1 tree options out of range");
  for (auto* v : {&s.height, &s.num_nodes, &s.num_leaf_entries,
                  &s.num_inserts, &s.num_merges}) {
    io.Pod(*v);
  }
  // Every insert either merged into an existing entry or created one, and
  // the fit pipeline inserts each row exactly once. The leaf entries must
  // also fit in the section before the id table below is sized by them.
  io.Check(s.height >= 1 && s.height <= kMaxTreeDepth && s.num_nodes >= 1 &&
               s.num_leaf_entries <= s.num_inserts &&
               s.num_merges == s.num_inserts - s.num_leaf_entries &&
               s.num_leaf_entries <= UINT32_MAX &&
               io.Fits(s.num_leaf_entries, kLeafEntryBytes) &&
               s.num_inserts == b.num_rows,
           "phase-1 tree stats inconsistent");
  walk.id_seen.assign(io.ok() ? s.num_leaf_entries : 0, false);
  TreeNode(io, t.root, walk, /*depth=*/1);
  io.Check(walk.nodes == s.num_nodes && walk.max_depth == s.height,
           "phase-1 tree shape does not match its stats");
  io.Check(std::find(walk.id_seen.begin(), walk.id_seen.end(), false) ==
               walk.id_seen.end(),
           "phase-1 leaf-entry id missing");
  const uint64_t rows = Size(io, b.row_entry_ids, sizeof(uint32_t));
  io.Check(rows == b.num_rows, "phase-1 row-entry count != num_rows");
  for (auto& id : b.row_entry_ids) {
    io.Check(io.Pod(id) < s.num_leaf_entries,
             "phase-1 row-entry id out of range");
  }
}

template <class Io>
void Lineage(Io& io, typename Io::Bundle& b) {
  auto& l = b.lineage;
  io.Pod(l.parent_checksum);
  io.Pod(l.refit_generation);
  io.Check(As<uint32_t>(io, l.drift_class) <=
               static_cast<uint32_t>(DriftClass::kSevere),
           "drift class out of range");
  io.Pod(l.base_rows);
  io.Pod(l.rows_absorbed);
  io.Pod(l.total_rows_absorbed);
  NonNegative(io, l.drift_score, "lineage field");
  NonNegative(io, l.drift_moderate, "lineage field");
  NonNegative(io, l.drift_severe, "lineage field");
  // Version 3 appended the entropy-drift second signal; v2 lineage bodies
  // end after the thresholds. The writer always writes the current
  // version, so a re-saved v2 child gains the field (as 0).
  if (io.version() >= 3) NonNegative(io, l.entropy_drift, "lineage field");
  io.Check(l.refit_generation >= 1 && l.base_rows >= 1 &&
               l.rows_absorbed <= l.total_rows_absorbed &&
               l.base_rows + l.total_rows_absorbed == b.num_rows,
           "lineage row accounting inconsistent");
}

template <class Io>
void Schemes(Io& io, typename Io::Bundle& b) {
  const uint64_t mask = fd::AttributeSet::Full(b.schema.NumAttributes()).bits();
  Finite(io, b.schemes_epsilon, "schemes epsilon");
  io.Pod(b.schemes_max_separator);
  Finite(io, b.schemes_total_entropy, "schemes entropy");
  io.Check(b.schemes_epsilon >= 0.0 && b.schemes_total_entropy >= 0.0 &&
               b.schemes_max_separator <= 64,
           "schemes header field out of range");
  Size(io, b.schemes, 2 * sizeof(uint64_t) + sizeof(double));
  for (auto& s : b.schemes) {
    const uint64_t separator =
        Bits(io, s.separator_bits, mask, "scheme separator");
    NonNegative(io, s.j_measure, "scheme j-measure");
    const uint64_t bags = Size(io, s.bag_bits, sizeof(uint64_t));
    io.Check(bags >= 2, "scheme has fewer than two bags");
    uint64_t covered = 0;
    for (uint64_t g = 0; g < bags; ++g) {
      const uint64_t bag = Bits(io, s.bag_bits[g], mask, "scheme bag");
      // Bags come sorted, each containing the separator, and no attribute
      // outside the separator may repeat — the components partition Ω ∖ X.
      io.Check((separator & ~bag) == 0 &&
                   (g == 0 || bag > s.bag_bits[g - 1]) &&
                   ((covered & bag) & ~separator) == 0,
               "scheme bags malformed");
      covered |= bag;
    }
    io.Check(covered == mask, "scheme bags do not cover the schema");
  }
}

template <class Io>
void Section(Io& io, uint32_t tag, typename Io::Bundle& b) {
  switch (tag) {
    case kMeta: return Meta(io, b);
    case kSchema: return Schema(io, b);
    case kDictionary: return Dictionary(io, b);
    case kRepresentatives: return Representatives(io, b);
    case kAssignments: return Assignments(io, b);
    case kValueGroups: return ValueGroups(io, b);
    case kGrouping: return Grouping(io, b);
    case kRankedFds: return RankedFds(io, b);
    case kPhase1Tree: return Phase1Tree(io, b);
    case kLineage: return Lineage(io, b);
    case kSchemes: return Schemes(io, b);
  }
}

}  // namespace

const char* DriftClassName(DriftClass c) {
  switch (c) {
    case DriftClass::kNone: return "no-drift";
    case DriftClass::kModerate: return "moderate";
    case DriftClass::kSevere: return "severe";
  }
  return "?";
}

uint64_t Fnv1a(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SerializeBundle(const ModelBundle& bundle) {
  std::string payload;
  Writer io(&payload);
  for (const SectionSpec& spec : kSections) {
    if (spec.present != nullptr && !(bundle.*spec.present)) continue;
    io.Pod(spec.tag);
    io.Pod(uint32_t{0});
    const size_t len_at = payload.size();
    io.Pod(uint64_t{0});  // the body length, patched below
    Section(io, spec.tag, bundle);
    const uint64_t len = payload.size() - len_at - sizeof(uint64_t);
    std::memcpy(payload.data() + len_at, &len, sizeof(len));
  }

  std::string out;
  out.reserve(sizeof(kMagic) + 24 + payload.size());
  out.append(kMagic, sizeof(kMagic));
  Writer header(&out);
  header.Pod(kFormatVersion);
  header.Pod(uint32_t{0});
  header.Pod(static_cast<uint64_t>(payload.size()));
  header.Pod(Fnv1a(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

util::Result<ModelBundle> ParseBundle(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic)) {
    return util::Status::InvalidArgument("model bundle: truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("not a .limbo model bundle");
  }
  Reader in(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic), 0);
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
  in.Pod(version);
  in.Pod(reserved);
  in.Pod(payload_len);
  in.Pod(checksum);
  LIMBO_RETURN_IF_ERROR(in.status());
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "model bundle: format version %u, this build reads %u..%u", version,
        kMinFormatVersion, kFormatVersion));
  }
  if (reserved != 0) {
    return util::Status::InvalidArgument(
        "model bundle: nonzero reserved header field");
  }
  if (payload_len != in.remaining()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "model bundle: payload length %llu does not match file size",
        static_cast<unsigned long long>(payload_len)));
  }
  const char* payload = bytes.data() + bytes.size() - payload_len;
  if (Fnv1a(payload, payload_len) != checksum) {
    return util::Status::InvalidArgument(
        "model bundle: payload checksum mismatch (corrupt file)");
  }

  ModelBundle bundle;
  bundle.format_version = version;
  bundle.payload_checksum = checksum;
  Reader sections(payload, payload_len, version);
  uint32_t last_tag = 0;
  bool seen[kNumTags + 1] = {false};
  while (sections.remaining() > 0) {
    uint32_t tag = 0;
    uint32_t tag_reserved = 0;
    uint64_t len = 0;
    sections.Pod(tag);
    sections.Pod(tag_reserved);
    sections.Pod(len);
    sections.Check(tag_reserved == 0, "nonzero reserved section field");
    LIMBO_RETURN_IF_ERROR(sections.status());
    if (tag <= last_tag || tag > kNumTags ||
        kSections[tag - 1].since > version) {
      return util::Status::InvalidArgument(util::StrFormat(
          "model bundle: unknown or out-of-order section tag %u", tag));
    }
    if (len > sections.remaining()) {
      return util::Status::InvalidArgument(
          "model bundle: truncated section");
    }
    const SectionSpec& spec = kSections[tag - 1];
    Reader body = sections.Slice(len);
    Section(body, tag, bundle);
    LIMBO_RETURN_IF_ERROR(body.Finish(spec.name));
    if (spec.present != nullptr) bundle.*spec.present = true;
    last_tag = tag;
    seen[tag] = true;
  }
  for (const SectionSpec& spec : kSections) {
    if (spec.present == nullptr && !seen[spec.tag]) {
      return util::Status::InvalidArgument(
          util::StrFormat("model bundle: missing section %u", spec.tag));
    }
  }
  return bundle;
}

util::Status Save(const ModelBundle& bundle, const std::string& path) {
  // Write-to-temp + fsync + rename: a crash at any point leaves either
  // the old file or the complete new one, never a truncated bundle that
  // only the checksum catches at load time.
  const std::string bytes = SerializeBundle(bundle);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return util::Status::IoError("cannot open " + tmp);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t w =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return util::Status::IoError("write failed: " + tmp);
    }
    written += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return util::Status::IoError("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return util::Status::IoError("close failed: " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return util::Status::IoError("rename failed: " + path);
  }
  return util::Status::Ok();
}

util::Result<ModelBundle> Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseBundle(buf.str());
}

void StoreStructure(core::ValueClusteringResult values,
                    const core::AttributeGroupingResult* grouping,
                    ModelBundle* bundle) {
  bundle->value_mutual_information = values.mutual_information;
  bundle->value_threshold = values.threshold;
  bundle->value_groups = std::move(values.groups);
  bundle->duplicate_groups.clear();
  for (size_t g : values.duplicate_groups) {
    bundle->duplicate_groups.push_back(static_cast<uint32_t>(g));
  }
  if (grouping == nullptr) return;
  bundle->has_grouping = true;
  bundle->grouping_attributes = grouping->attributes;
  bundle->grouping_num_objects = grouping->aib.num_objects();
  bundle->grouping_merges = grouping->aib.merges();
  bundle->grouping_cluster_members.clear();
  for (const fd::AttributeSet& s : grouping->cluster_members) {
    bundle->grouping_cluster_members.push_back(s.bits());
  }
  bundle->max_merge_loss = grouping->max_merge_loss;
}

core::AttributeGroupingResult StoredGrouping(const ModelBundle& bundle) {
  core::AttributeGroupingResult grouping;
  grouping.attributes = bundle.grouping_attributes;
  grouping.aib =
      core::AibResult(bundle.grouping_num_objects, bundle.grouping_merges);
  grouping.cluster_members.reserve(bundle.grouping_cluster_members.size());
  for (uint64_t bits : bundle.grouping_cluster_members) {
    grouping.cluster_members.push_back(fd::AttributeSet(bits));
  }
  grouping.max_merge_loss = bundle.max_merge_loss;
  return grouping;
}

}  // namespace limbo::model
