#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "common/rng.h"

namespace costsense::lp {
namespace {

using linalg::Vector;

Problem MakeProblem(size_t n, Vector obj, bool maximize) {
  Problem p;
  p.num_vars = n;
  p.objective = std::move(obj);
  p.maximize = maximize;
  return p;
}

void AddConstraint(Problem& p, const Vector& coeffs, Relation rel,
                   double rhs) {
  const std::span<double> row = p.AddConstraint(rel, rhs);
  std::copy(coeffs.begin(), coeffs.end(), row.begin());
}

TEST(SimplexTest, BasicMaximization) {
  // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6  =>  x=4, y=0, obj=12.
  Problem p = MakeProblem(2, Vector{3.0, 2.0}, true);
  AddConstraint(p, Vector{1.0, 1.0}, Relation::kLessEqual, 4.0);
  AddConstraint(p, Vector{1.0, 3.0}, Relation::kLessEqual, 6.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 12.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(SimplexTest, InteriorOptimum) {
  // max x + y  s.t. x <= 2, y <= 3  =>  (2,3).
  Problem p = MakeProblem(2, Vector{1.0, 1.0}, true);
  AddConstraint(p, Vector{1.0, 0.0}, Relation::kLessEqual, 2.0);
  AddConstraint(p, Vector{0.0, 1.0}, Relation::kLessEqual, 3.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 5.0, 1e-9);
}

TEST(SimplexTest, Minimization) {
  // min 2x + 3y  s.t. x + y >= 4, x <= 3  =>  x=3, y=1, obj=9.
  Problem p = MakeProblem(2, Vector{2.0, 3.0}, false);
  AddConstraint(p, Vector{1.0, 1.0}, Relation::kGreaterEqual, 4.0);
  AddConstraint(p, Vector{1.0, 0.0}, Relation::kLessEqual, 3.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 9.0, 1e-9);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x  s.t. x + y = 5, x <= 3  =>  x=3, y=2.
  Problem p = MakeProblem(2, Vector{1.0, 0.0}, true);
  AddConstraint(p, Vector{1.0, 1.0}, Relation::kEqual, 5.0);
  AddConstraint(p, Vector{1.0, 0.0}, Relation::kLessEqual, 3.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  Problem p = MakeProblem(1, Vector{1.0}, true);
  AddConstraint(p, Vector{1.0}, Relation::kLessEqual, 1.0);
  AddConstraint(p, Vector{1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(Solve(p).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Problem p = MakeProblem(1, Vector{1.0}, true);
  AddConstraint(p, Vector{1.0}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(Solve(p).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // -x <= -2 means x >= 2; min x => 2.
  Problem p = MakeProblem(1, Vector{1.0}, false);
  AddConstraint(p, Vector{-1.0}, Relation::kLessEqual, -2.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple constraints meeting at the optimum (degeneracy) must not
  // cycle under Bland's rule.
  Problem p = MakeProblem(2, Vector{1.0, 1.0}, true);
  AddConstraint(p, Vector{1.0, 0.0}, Relation::kLessEqual, 1.0);
  AddConstraint(p, Vector{0.0, 1.0}, Relation::kLessEqual, 1.0);
  AddConstraint(p, Vector{1.0, 1.0}, Relation::kLessEqual, 2.0);
  AddConstraint(p, Vector{2.0, 1.0}, Relation::kLessEqual, 3.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 2.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityHandled) {
  // Duplicate equality rows leave an artificial basic at zero level.
  Problem p = MakeProblem(2, Vector{1.0, 2.0}, true);
  AddConstraint(p, Vector{1.0, 1.0}, Relation::kEqual, 3.0);
  AddConstraint(p, Vector{2.0, 2.0}, Relation::kEqual, 6.0);
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 6.0, 1e-9);  // y = 3
}

// Property sweep: LP solutions on random box-constrained problems match
// brute-force vertex enumeration (an optimum of a linear objective over a
// box is at a vertex).
class BoxLpTest : public ::testing::TestWithParam<int> {};

TEST_P(BoxLpTest, MatchesVertexEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  const size_t n = 1 + rng.Index(6);
  Vector lo(n), hi(n), obj(n);
  for (size_t i = 0; i < n; ++i) {
    lo[i] = rng.Uniform(0.0, 2.0);
    hi[i] = lo[i] + rng.Uniform(0.1, 5.0);
    obj[i] = rng.Uniform(-3.0, 3.0);
  }
  Problem p = MakeProblem(n, obj, true);
  for (size_t i = 0; i < n; ++i) {
    Vector row(n);
    row[i] = 1.0;
    AddConstraint(p, row, Relation::kLessEqual, hi[i]);
    Vector row2(n);
    row2[i] = 1.0;
    AddConstraint(p, row2, Relation::kGreaterEqual, lo[i]);
  }
  const Solution s = Solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  double best = -1e300;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    double v = 0.0;
    for (size_t i = 0; i < n; ++i) {
      v += obj[i] * ((mask >> i) & 1 ? hi[i] : lo[i]);
    }
    best = std::max(best, v);
  }
  EXPECT_NEAR(s.objective_value, best, 1e-7 * (1.0 + std::fabs(best)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxLpTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace costsense::lp
