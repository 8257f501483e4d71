#include "lp/simplex.h"

#include <cmath>
#include <limits>

#include "common/macros.h"

namespace costsense::lp {
namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau over the standard-form problem
///   maximize c.x  s.t.  A x = b,  x >= 0,  b >= 0,
/// with an explicit basis. Phase 1 uses artificial variables. A view over
/// a Workspace's buffers: `a` holds rows * cols cells, `b` rows, `basis`
/// rows, all zeroed by the caller.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols, double* a, double* b, size_t* basis)
      : rows_(rows), cols_(cols), a_(a), b_(b), basis_(basis) {}

  double& At(size_t r, size_t c) { return a_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return a_[r * cols_ + c]; }
  double& Rhs(size_t r) { return b_[r]; }
  double Rhs(size_t r) const { return b_[r]; }
  size_t& Basis(size_t r) { return basis_[r]; }
  size_t Basis(size_t r) const { return basis_[r]; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  void Pivot(size_t pr, size_t pc) {
    const double inv = 1.0 / At(pr, pc);
    for (size_t c = 0; c < cols_; ++c) At(pr, c) *= inv;
    Rhs(pr) *= inv;
    At(pr, pc) = 1.0;  // kill roundoff on the pivot itself
    for (size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double f = At(r, pc);
      if (std::fabs(f) < kEps) {
        At(r, pc) = 0.0;
        continue;
      }
      for (size_t c = 0; c < cols_; ++c) At(r, c) -= f * At(pr, c);
      Rhs(r) -= f * Rhs(pr);
      At(r, pc) = 0.0;
    }
    Basis(pr) = pc;
  }

  /// Runs primal simplex on the objective `obj` (maximization), restricted
  /// to columns [0, usable_cols). Returns false if unbounded.
  bool Optimize(const double* obj, size_t usable_cols) {
    // Dantzig pricing (steepest reduced cost) for speed; after a generous
    // iteration budget switch to Bland's rule, which cannot cycle.
    const size_t bland_after = 4 * (rows_ + usable_cols) + 64;
    size_t iterations = 0;
    while (true) {
      const bool bland = ++iterations > bland_after;
      // Compute multipliers y implicitly: reduced cost of column j is
      // obj[j] - sum_r obj[basis_r] * a(r, j).
      size_t enter = usable_cols;
      double best_red = kEps;
      for (size_t j = 0; j < usable_cols; ++j) {
        double red = obj[j];
        for (size_t r = 0; r < rows_; ++r) {
          const double arj = At(r, j);
          if (arj != 0.0) red -= obj[basis_[r]] * arj;
        }
        if (red > best_red) {
          enter = j;
          if (bland) break;  // first improving column
          best_red = red;
        }
      }
      if (enter == usable_cols) return true;  // optimal

      // Ratio test; Bland tie-break on smallest basis index.
      size_t leave = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < rows_; ++r) {
        const double arj = At(r, enter);
        if (arj > kEps) {
          const double ratio = Rhs(r) / arj;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leave == rows_ || basis_[r] < basis_[leave]))) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == rows_) return false;  // unbounded
      Pivot(leave, enter);
    }
  }

 private:
  size_t rows_, cols_;
  double* a_;
  double* b_;
  size_t* basis_;
};

}  // namespace

std::span<double> Problem::AddConstraint(Relation rel, double rhs_value) {
  coeffs.resize(coeffs.size() + num_vars, 0.0);
  relations.push_back(rel);
  rhs.push_back(rhs_value);
  return {coeffs.data() + coeffs.size() - num_vars, num_vars};
}

void Problem::ClearConstraints() {
  coeffs.clear();
  relations.clear();
  rhs.clear();
}

Solution Solve(const Problem& problem) {
  Workspace workspace;
  return Solve(problem, workspace);
}

Solution Solve(const Problem& problem, Workspace& workspace) {
  const size_t n = problem.num_vars;
  COSTSENSE_CHECK(problem.objective.size() == n);
  const size_t m = problem.num_constraints();
  COSTSENSE_CHECK(problem.coeffs.size() == m * n &&
                  problem.relations.size() == m);

  // Count extra columns: one slack/surplus per inequality, one artificial
  // per >= or = row (and per <= row with negative rhs after normalization).
  size_t num_slack = 0;
  for (Relation rel : problem.relations) {
    if (rel != Relation::kEqual) ++num_slack;
  }
  // Lay out columns as [x (n) | slack/surplus (num_slack) | artificial (m)].
  // Not every row needs an artificial, but reserving one per row keeps the
  // layout simple; unused ones just never enter the basis.
  const size_t art_base = n + num_slack;
  const size_t total_cols = art_base + m;

  // One zeroed buffer: the m x total_cols cells, the m right-hand sides,
  // then the phase-1 and phase-2 objectives.
  std::vector<double>& cells = workspace.cells_;
  cells.assign(m * total_cols + m + 2 * total_cols, 0.0);
  double* const rhs_cells = cells.data() + m * total_cols;
  double* const phase1 = rhs_cells + m;
  double* const obj = phase1 + total_cols;
  workspace.basis_.assign(m, 0);
  workspace.artificial_.assign(m, 0);
  char* const art_used = workspace.artificial_.data();

  Tableau t(m, total_cols, cells.data(), rhs_cells, workspace.basis_.data());
  size_t slack_next = n;

  for (size_t r = 0; r < m; ++r) {
    const double* coeffs = problem.coeffs.data() + r * n;
    double sign = 1.0;
    double rhs = problem.rhs[r];
    const Relation given = problem.relations[r];
    Relation rel = given;
    if (rhs < 0.0) {
      // Normalize to non-negative rhs; flips the relation.
      sign = -1.0;
      rhs = -rhs;
      if (rel == Relation::kLessEqual) {
        rel = Relation::kGreaterEqual;
      } else if (rel == Relation::kGreaterEqual) {
        rel = Relation::kLessEqual;
      }
    }
    for (size_t j = 0; j < n; ++j) t.At(r, j) = sign * coeffs[j];
    t.Rhs(r) = rhs;

    if (given != Relation::kEqual) {
      const size_t sc = slack_next++;
      if (rel == Relation::kLessEqual) {
        t.At(r, sc) = 1.0;
        t.Basis(r) = sc;  // slack starts basic
        continue;
      }
      t.At(r, sc) = -1.0;  // surplus
    }
    // >= or = row: needs an artificial to form the initial basis.
    const size_t ac = art_base + r;
    t.At(r, ac) = 1.0;
    t.Basis(r) = ac;
    art_used[r] = 1;
  }

  // Phase 1: maximize -(sum of artificials).
  bool any_artificial = false;
  for (size_t r = 0; r < m; ++r) any_artificial |= art_used[r] != 0;
  if (any_artificial) {
    for (size_t r = 0; r < m; ++r) {
      if (art_used[r] != 0) phase1[art_base + r] = -1.0;
    }
    const bool bounded = t.Optimize(phase1, total_cols);
    COSTSENSE_CHECK_MSG(bounded, "phase-1 objective cannot be unbounded");
    double infeas = 0.0;
    for (size_t r = 0; r < m; ++r) {
      if (t.Basis(r) >= art_base) infeas += t.Rhs(r);
    }
    if (infeas > 1e-7) {
      Solution s;
      s.status = SolveStatus::kInfeasible;
      return s;
    }
    // Pivot any degenerate artificials out of the basis where possible.
    for (size_t r = 0; r < m; ++r) {
      if (t.Basis(r) < art_base) continue;
      size_t pc = art_base;
      for (size_t j = 0; j < art_base; ++j) {
        if (std::fabs(t.At(r, j)) > kEps) {
          pc = j;
          break;
        }
      }
      if (pc < art_base) t.Pivot(r, pc);
      // Otherwise the row is all-zero (redundant constraint); harmless.
    }
  }

  // Phase 2 on the real objective (restricted to non-artificial columns).
  const double flip = problem.maximize ? 1.0 : -1.0;
  for (size_t j = 0; j < n; ++j) obj[j] = flip * problem.objective[j];
  if (!t.Optimize(obj, art_base)) {
    Solution s;
    s.status = SolveStatus::kUnbounded;
    return s;
  }

  Solution s;
  s.status = SolveStatus::kOptimal;
  s.x = linalg::Vector(n);
  for (size_t r = 0; r < m; ++r) {
    if (t.Basis(r) < n) s.x[t.Basis(r)] = t.Rhs(r);
  }
  s.objective_value = linalg::Dot(s.x, problem.objective);
  return s;
}

}  // namespace costsense::lp
