// Goldens for the levelwise partition miners: TANE, minimal keys and
// approximate FDs. Each case pins the count and an FNV-1a digest of the
// miner's output (attribute-set bits, and the IEEE bits of g3 for
// approximate FDs) on DB2, on 3k DBLP tuples, and on a random relation
// whose minimal keys are wider than 4 and which has a constant column (3k
// DBLP has no key, and neither DB2 nor DBLP tells the key bounds or TANE's
// min_lhs apart). The values were recorded while each miner still walked
// the attribute-set lattice on its own, so a match shows the shared
// lattice keeps every result.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "fd/approx.h"
#include "fd/keys.h"
#include "fd/tane.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::fd {
namespace {

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value_ ^= (word >> (8 * byte)) & 0xff;
      value_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 1469598103934665603ull;
};

struct Pinned {
  size_t count;
  uint64_t digest;
  bool operator==(const Pinned&) const = default;
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << "{" << p.count << ", " << p.digest << "ull}";
}

Pinned PinTane(const relation::Relation& rel, size_t min_lhs) {
  TaneOptions options;
  options.min_lhs = min_lhs;
  auto fds = Tane::Mine(rel, options);
  EXPECT_TRUE(fds.ok());
  Digest d;
  for (const FunctionalDependency& f : *fds) {
    d.Add(f.lhs.bits());
    d.Add(f.rhs.bits());
  }
  return {fds->size(), d.value()};
}

Pinned PinKeys(const relation::Relation& rel, size_t max_size) {
  KeyMinerOptions options;
  options.max_size = max_size;
  auto keys = MineMinimalKeys(rel, options);
  EXPECT_TRUE(keys.ok());
  Digest d;
  for (AttributeSet k : *keys) d.Add(k.bits());
  return {keys->size(), d.value()};
}

Pinned PinApprox(const relation::Relation& rel,
                 const ApproxMinerOptions& options) {
  auto fds = MineApproximateFds(rel, options);
  EXPECT_TRUE(fds.ok());
  Digest d;
  for (const ApproximateFd& f : *fds) {
    d.Add(f.fd.lhs.bits());
    d.Add(f.fd.rhs.bits());
    d.Add(std::bit_cast<uint64_t>(f.g3));
  }
  return {fds->size(), d.value()};
}

struct Golden {
  Pinned tane;            // min_lhs = 0
  Pinned tane_min_lhs_1;  // min_lhs = 1
  Pinned keys_unbounded;  // max_size = 0
  Pinned keys_width_4;    // max_size = 4
  Pinned approx;          // defaults
  Pinned approx_exact;    // epsilon = 0
  Pinned approx_min_lhs_1;
};

void ExpectGolden(const relation::Relation& rel, const Golden& want) {
  EXPECT_EQ(PinTane(rel, 0), want.tane) << "Tane::Mine";
  EXPECT_EQ(PinTane(rel, 1), want.tane_min_lhs_1) << "Tane::Mine min_lhs=1";
  EXPECT_EQ(PinKeys(rel, 0), want.keys_unbounded) << "keys max_size=0";
  EXPECT_EQ(PinKeys(rel, 4), want.keys_width_4) << "keys max_size=4";
  EXPECT_EQ(PinApprox(rel, {}), want.approx) << "approx defaults";
  ApproxMinerOptions exact;
  exact.epsilon = 0.0;
  EXPECT_EQ(PinApprox(rel, exact), want.approx_exact) << "approx epsilon=0";
  ApproxMinerOptions min_lhs_1;
  min_lhs_1.min_lhs = 1;
  EXPECT_EQ(PinApprox(rel, min_lhs_1), want.approx_min_lhs_1)
      << "approx min_lhs=1";
}

constexpr Golden kDb2 = {
    {718, 2811051138824922512ull},  {718, 2811051138824922512ull},
    {4, 6699995706653903555ull},    {4, 6699995706653903555ull},
    {703, 2753854552312507501ull},  {619, 4692249120702826237ull},
    {703, 2753854552312507501ull},
};

constexpr Golden kDblp3k = {
    {22, 4856360536961990819ull},   {22, 4856360536961990819ull},
    {0, 1469598103934665603ull},    {0, 1469598103934665603ull},
    {24, 17299796075715640991ull},  {21, 15601644362902162743ull},
    {90, 4192869003021261832ull},
};

constexpr Golden kRandom = {
    {20, 3512148838617863860ull},   {26, 11212022717803605450ull},
    {9, 4189642897640713143ull},    {1, 6364040294477443027ull},
    {5, 12322938799827369066ull},   {1, 9895753017085000290ull},
    {11, 1533495944847709892ull},
};

TEST(MinersGoldenTest, Db2) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  ASSERT_TRUE(rel.ok());
  ExpectGolden(*rel, kDb2);
}

TEST(MinersGoldenTest, Dblp3k) {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 3000;
  ExpectGolden(datagen::GenerateDblp(dblp), kDblp3k);
}

TEST(MinersGoldenTest, RandomWithWideKeys) {
  // Column domains: one constant column, then growing alphabets.
  const std::vector<uint64_t> domains = {1, 3, 3, 4, 5, 7, 9, 12};
  util::Random rng(3);
  std::vector<std::string> header;
  for (size_t a = 0; a < domains.size(); ++a) {
    header.push_back("A" + std::to_string(a));
  }
  std::vector<std::vector<std::string>> rows;
  for (size_t t = 0; t < 120; ++t) {
    std::vector<std::string> row;
    for (uint64_t d : domains) row.push_back(std::to_string(rng.Uniform(d)));
    rows.push_back(std::move(row));
  }
  ExpectGolden(testing::MakeRelation(header, rows), kRandom);
}

}  // namespace
}  // namespace limbo::fd
