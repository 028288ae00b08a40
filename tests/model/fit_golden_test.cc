// Goldens for the default model fit: the byte size and an FNV-1a digest
// of the saved bundle, on DB2 and on 3k DBLP tuples, at 1, 2, 4 and 8
// worker lanes, plus the bundle's parse-and-rewrite round trip. The
// bundle freezes every stage of a fit (Phase-1 leaves, AIB merges,
// Phase-3 assignments, value groups, the dendrogram, ranked FDs and the
// refit tree), so a layout change anywhere under FitModel that moves one
// bit fails here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "model/fit.h"
#include "model/model_bundle.h"

namespace limbo::model {
namespace {

struct Pinned {
  size_t bytes;
  uint64_t digest;
};

/// FNV-1a over the bundle file's bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Fits `rel` with default options, saves the bundle and pins the file.
Pinned PinFit(const relation::Relation& rel) {
  auto bundle = FitModel(rel);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (!bundle.ok()) return {};
  const std::string path = ::testing::TempDir() + "/fit_golden." +
                           std::to_string(getpid()) + ".limbo";
  const util::Status saved = Save(*bundle, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  // The reader half: parsing the file and writing it again must give back
  // the same bytes, so no field is lost or altered on the way in.
  auto parsed = ParseBundle(bytes);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (parsed.ok()) {
    EXPECT_TRUE(SerializeBundle(*parsed) == bytes);
  }
  return {bytes.size(), Fnv1a(bytes)};
}

// Recorded before the packed AIB triangle, the geometric arena growth and
// the flat stripped partitions landed, so a match shows they keep every
// bit of the fit.
constexpr Pinned kDb2 = {68268, 3585910314486373092ull};
constexpr Pinned kDblp3k = {1004780, 1536427394274399433ull};

/// The lane count under test, set through LIMBO_THREADS like
/// Phase1GoldenTest: FitModel's default options resolve their lanes there,
/// and ctest runs every test in its own process.
class FitBundleGolden : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    setenv("LIMBO_THREADS", std::to_string(GetParam()).c_str(), 1);
  }
};

TEST_P(FitBundleGolden, Db2) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  ASSERT_TRUE(rel.ok());
  const Pinned got = PinFit(*rel);
  EXPECT_EQ(got.bytes, kDb2.bytes);
  EXPECT_EQ(got.digest, kDb2.digest);
}

TEST_P(FitBundleGolden, Dblp3k) {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 3000;
  const Pinned got = PinFit(datagen::GenerateDblp(dblp));
  EXPECT_EQ(got.bytes, kDblp3k.bytes);
  EXPECT_EQ(got.digest, kDblp3k.digest);
}

INSTANTIATE_TEST_SUITE_P(Lanes, FitBundleGolden,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace limbo::model
