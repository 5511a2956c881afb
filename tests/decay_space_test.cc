#include "core/decay_space.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/metricity.h"
#include "geom/point.h"
#include "geom/rng.h"

namespace decaylib::core {
namespace {

TEST(DecaySpaceTest, DefaultFillIsUniform) {
  const DecaySpace space(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(space(i, j), i == j ? 0.0 : 1.0);
    }
  }
}

TEST(DecaySpaceTest, SetAndGetAsymmetric) {
  DecaySpace space(3);
  space.Set(0, 1, 5.0);
  space.Set(1, 0, 7.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(space(1, 0), 7.0);
  EXPECT_FALSE(space.IsSymmetric());
}

TEST(DecaySpaceTest, SetSymmetric) {
  DecaySpace space(3);
  space.SetSymmetric(0, 2, 4.0);
  EXPECT_DOUBLE_EQ(space(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(space(2, 0), 4.0);
  EXPECT_TRUE(space.IsSymmetric());
}

TEST(DecaySpaceTest, FromMatrixIgnoresDiagonal) {
  const std::vector<std::vector<double>> m{
      {9.0, 1.0, 2.0}, {1.0, 9.0, 3.0}, {2.0, 3.0, 9.0}};
  const DecaySpace space = DecaySpace::FromMatrix(m);
  EXPECT_DOUBLE_EQ(space(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(space(1, 2), 3.0);
}

TEST(DecaySpaceTest, GeometricMatchesDistancePower) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  const DecaySpace space = DecaySpace::Geometric(pts, 2.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(space(0, 2), 100.0);
  EXPECT_DOUBLE_EQ(space(1, 2), 25.0);
  EXPECT_TRUE(space.IsSymmetric());
}

TEST(DecaySpaceTest, FromDistancePower) {
  const std::vector<std::vector<double>> d{{0.0, 2.0}, {2.0, 0.0}};
  const DecaySpace space = DecaySpace::FromDistancePower(d, 3.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 8.0);
}

TEST(DecaySpaceTest, MinMaxSpread) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 2.0);
  space.SetSymmetric(0, 2, 8.0);
  space.SetSymmetric(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(space.MinDecay(), 2.0);
  EXPECT_DOUBLE_EQ(space.MaxDecay(), 8.0);
  EXPECT_DOUBLE_EQ(space.DecaySpread(), 4.0);
}

TEST(DecaySpaceTest, ValidatePassesOnGoodSpace) {
  DecaySpace space(3);
  EXPECT_FALSE(space.Validate().has_value());
}

TEST(DecaySpaceTest, ScaledMultipliesAllDecays) {
  DecaySpace space(2);
  space.SetSymmetric(0, 1, 3.0);
  const DecaySpace scaled = space.Scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
}

TEST(DecaySpaceTest, SymmetrizationVariants) {
  DecaySpace space(2);
  space.Set(0, 1, 4.0);
  space.Set(1, 0, 9.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedMin()(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedMax()(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedGeomMean()(0, 1), 6.0);
  EXPECT_TRUE(space.SymmetrizedGeomMean().IsSymmetric());
}

TEST(DecaySpaceTest, SubspacePreservesDecays) {
  DecaySpace space(4);
  space.SetSymmetric(1, 3, 11.0);
  const std::vector<int> nodes{3, 1};
  const DecaySpace sub = space.Subspace(nodes);
  EXPECT_EQ(sub.size(), 2);
  EXPECT_DOUBLE_EQ(sub(0, 1), 11.0);  // (3, 1) in the original
}

TEST(DecaySpaceTest, IsSymmetricWithTolerance) {
  DecaySpace space(2);
  space.Set(0, 1, 1.0);
  space.Set(1, 0, 1.0 + 1e-12);
  EXPECT_FALSE(space.IsSymmetric(0.0));
  EXPECT_TRUE(space.IsSymmetric(1e-9));
}

// Lazy geometric spaces: every entry, however it is reached, equals the
// per-entry oracle below bit for bit.  150 points span three fill tiles;
// the box straddles the origin so coordinate differences take both signs.
class LazyGeometricTest : public ::testing::Test {
 protected:
  static constexpr int kN = 150;
  static constexpr double kAlpha = 2.7;

  void SetUp() override {
    geom::Rng rng(2024);
    for (int i = 0; i < kN; ++i) {
      pts_.push_back({rng.Uniform(-40.0, 40.0), rng.Uniform(-40.0, 40.0)});
    }
  }

  double Oracle(int p, int q) const {
    if (p == q) return 0.0;
    return geom::GeometricDecay(pts_[static_cast<std::size_t>(p)],
                                pts_[static_cast<std::size_t>(q)], kAlpha);
  }

  // Exact (EXPECT_EQ) comparison of every entry against `expected`.
  template <typename Expected>
  static void ExpectEntries(const DecaySpace& space, int n,
                            const Expected& expected, const char* what) {
    ASSERT_EQ(space.size(), n) << what;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(space(i, j), expected(i, j))
            << what << " entry (" << i << ", " << j << ")";
      }
    }
  }

  static constexpr long long kMatrixBytes = 8LL * kN * kN;
  static constexpr long long kLazyBytesBound = 32LL * kN;  // O(n)

  std::vector<geom::Vec2> pts_;
};

TEST_F(LazyGeometricTest, EntriesMatchOracleBeforeAndAfterFill) {
  const auto oracle = [&](int p, int q) { return Oracle(p, q); };
  const DecaySpace space = DecaySpace::Geometric(pts_, kAlpha);
  EXPECT_LE(space.MemoryBytes(), kLazyBytesBound);
  EXPECT_EQ(space.size(), kN);  // size needs no fill

  const DecaySpace lazy_copy = space;  // copied before any fill
  EXPECT_LE(lazy_copy.MemoryBytes(), kLazyBytesBound);

  // The first read fills; reads after it see the same entries.
  EXPECT_EQ(space(3, 141), Oracle(3, 141));
  EXPECT_GE(space.MemoryBytes(), kMatrixBytes);
  ExpectEntries(space, kN, oracle, "filled");
  const std::span<const double> raw = space.Raw();
  ASSERT_EQ(raw.size(), static_cast<std::size_t>(kN) * kN);
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      const std::size_t at = static_cast<std::size_t>(i * kN + j);
      ASSERT_EQ(raw[at], Oracle(i, j));
    }
  }
  EXPECT_TRUE(space.IsSymmetric());

  // The lazy copy is independent: still points-only until its own read.
  EXPECT_LE(lazy_copy.MemoryBytes(), kLazyBytesBound);
  ExpectEntries(lazy_copy, kN, oracle, "lazy copy");
  EXPECT_GE(lazy_copy.MemoryBytes(), kMatrixBytes);

  const DecaySpace filled_copy = space;  // copied after the fill
  EXPECT_GE(filled_copy.MemoryBytes(), kMatrixBytes);
  ExpectEntries(filled_copy, kN, oracle, "filled copy");

  DecaySpace assigned(2);
  assigned = DecaySpace::Geometric(pts_, kAlpha);  // move-assigned, lazy
  EXPECT_LE(assigned.MemoryBytes(), kLazyBytesBound);
  const DecaySpace moved_lazy = std::move(assigned);
  EXPECT_LE(moved_lazy.MemoryBytes(), kLazyBytesBound);
  ExpectEntries(moved_lazy, kN, oracle, "moved lazy");

  DecaySpace copy_assigned(2);
  copy_assigned = filled_copy;
  const DecaySpace moved_filled = std::move(copy_assigned);
  ExpectEntries(moved_filled, kN, oracle, "moved filled");
}

TEST_F(LazyGeometricTest, DerivedSpacesMatchOracle) {
  // Each derived space starts from a fresh, unfilled source.
  const DecaySpace scaled = DecaySpace::Geometric(pts_, kAlpha).Scaled(3.5);
  ExpectEntries(scaled, kN,
                [&](int p, int q) { return Oracle(p, q) * 3.5; }, "scaled");

  const std::vector<int> nodes{149, 0, 77, 64, 63, 5, 128};
  const DecaySpace sub = DecaySpace::Geometric(pts_, kAlpha).Subspace(nodes);
  ExpectEntries(
      sub, static_cast<int>(nodes.size()),
      [&](int p, int q) {
        return Oracle(nodes[static_cast<std::size_t>(p)],
                      nodes[static_cast<std::size_t>(q)]);
      },
      "subspace");

  // Geometric decay is bit-symmetric, so min-symmetrising changes nothing.
  const DecaySpace sym = DecaySpace::Geometric(pts_, kAlpha).SymmetrizedMin();
  ExpectEntries(sym, kN, [&](int p, int q) { return Oracle(p, q); },
                "symmetrized min");
}

TEST_F(LazyGeometricTest, MaterializeAndSetFillOnce) {
  DecaySpace space = DecaySpace::Geometric(pts_, kAlpha);
  space.Materialize();
  EXPECT_GE(space.MemoryBytes(), kMatrixBytes);
  space.Materialize();  // no-op
  ExpectEntries(space, kN, [&](int p, int q) { return Oracle(p, q); },
                "materialized");

  // Writing into a lazy space fills it first, then overrides one entry.
  DecaySpace edited = DecaySpace::Geometric(pts_, kAlpha);
  edited.Set(4, 9, 123.0);
  ExpectEntries(
      edited, kN,
      [&](int p, int q) { return p == 4 && q == 9 ? 123.0 : Oracle(p, q); },
      "edited");
}

TEST(DecaySpaceTest, MatrixSpacesReportTheirMatrixBytes) {
  const DecaySpace space(5);
  EXPECT_GE(space.MemoryBytes(), 8 * 25);
}

TEST(QuasiMetricTest, GeometricSpaceRecoversDistances) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {1.0, 1.0}};
  const double alpha = 3.5;
  const DecaySpace space = DecaySpace::Geometric(pts, alpha);
  const QuasiMetric d(space, alpha);
  EXPECT_NEAR(d(0, 1), 5.0, 1e-9);
  EXPECT_NEAR(d(0, 2), std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(d(1, 1), 0.0);
}

TEST(QuasiMetricTest, TriangleHoldsAtMetricity) {
  // Any space: the quasi-metric built with zeta = metricity satisfies the
  // triangle inequality by definition.
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 1.0);
  space.SetSymmetric(1, 2, 1.0);
  space.SetSymmetric(0, 2, 100.0);
  const double zeta = Metricity(space);
  ASSERT_GT(zeta, 1.0);
  const QuasiMetric d(space, zeta);
  EXPECT_LE(d.MaxTriangleViolation(), 1e-6);
}

TEST(QuasiMetricTest, TriangleViolatedBelowMetricity) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 1.0);
  space.SetSymmetric(1, 2, 1.0);
  space.SetSymmetric(0, 2, 100.0);
  const double zeta = Metricity(space);
  const QuasiMetric d(space, zeta * 0.5);
  EXPECT_GT(d.MaxTriangleViolation(), 0.0);
}

TEST(QuasiMetricTest, MatrixMatchesOperator) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 2.0);
  space.SetSymmetric(1, 2, 3.0);
  space.SetSymmetric(0, 2, 4.0);
  const QuasiMetric d(space, 2.0);
  const auto m = d.Matrix();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                       d(i, j));
    }
  }
}

}  // namespace
}  // namespace decaylib::core
