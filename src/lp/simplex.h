#ifndef COSTSENSE_LP_SIMPLEX_H_
#define COSTSENSE_LP_SIMPLEX_H_

#include <span>
#include <vector>

#include "linalg/vector.h"

namespace costsense::lp {

/// Relation of a linear constraint's left side to its right side.
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// A linear program over non-negative variables x >= 0:
///   maximize (or minimize) objective . x  subject to the constraints.
///
/// costsense uses LPs for two jobs in the paper's algorithms:
///  * deciding candidate optimality of a plan (does a feasible cost vector
///    exist under which the plan beats all others — paper Section 4.4), and
///  * exact worst-case relative-cost maximization over the feasible cost
///    region (the companion fractional maximizer in fractional.h replaces
///    the 2^n vertex sweep when the resource count is large).
///
/// Constraints are stored flat, one coefficient row of num_vars entries
/// per constraint, so building a problem allocates per problem, not per
/// row, and clear() keeps the capacity for the next one.
struct Problem {
  size_t num_vars = 0;
  linalg::Vector objective;
  /// Row r's coefficients are coeffs[r * num_vars, (r + 1) * num_vars).
  std::vector<double> coeffs;
  std::vector<Relation> relations;
  std::vector<double> rhs;
  bool maximize = true;

  size_t num_constraints() const { return rhs.size(); }

  /// Appends the constraint row . x  <rel>  rhs with an all-zero row and
  /// returns the row for filling (valid until the next append).
  std::span<double> AddConstraint(Relation rel, double rhs);

  /// Drops every constraint, keeping the buffers' capacity.
  void ClearConstraints();
};

/// Outcome of a solve.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded };

/// Optimal point and value (valid when status == kOptimal).
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective_value = 0.0;
  linalg::Vector x;
};

/// Scratch buffers for Solve: the tableau, its basis and the phase
/// objectives. They keep their capacity from one solve to the next, so a
/// caller that solves many small LPs with one Workspace allocates only
/// when a problem outgrows every earlier one.
class Workspace {
 public:
  Workspace() = default;

 private:
  friend Solution Solve(const Problem& problem, Workspace& workspace);
  std::vector<double> cells_;
  std::vector<size_t> basis_;
  std::vector<char> artificial_;
};

/// Solves `problem` with a dense two-phase primal simplex using Bland's
/// rule (no cycling). Suitable for the small instances this library
/// generates (tens of variables and constraints).
Solution Solve(const Problem& problem);
Solution Solve(const Problem& problem, Workspace& workspace);

}  // namespace costsense::lp

#endif  // COSTSENSE_LP_SIMPLEX_H_
