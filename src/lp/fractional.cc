#include "lp/fractional.h"

#include <cmath>
#include <utility>

#include "linalg/vector.h"

namespace costsense::lp {

Result<FractionalSolution> MaximizeRatioOverBox(const linalg::Vector& a,
                                                const linalg::Vector& b,
                                                const linalg::Vector& lower,
                                                const linalg::Vector& upper) {
  const size_t n = a.size();
  if (b.size() != n || lower.size() != n || upper.size() != n) {
    return Status::InvalidArgument("dimension mismatch");
  }
  bool b_nonzero = false;
  for (size_t i = 0; i < n; ++i) {
    if (lower[i] <= 0.0) {
      return Status::InvalidArgument("box lower bounds must be positive");
    }
    if (upper[i] < lower[i]) {
      return Status::InvalidArgument("box upper bound below lower bound");
    }
    if (a[i] < 0.0 || b[i] < 0.0) {
      return Status::InvalidArgument("usage vectors must be non-negative");
    }
    if (b[i] > 0.0) b_nonzero = true;
  }
  if (!b_nonzero) {
    return Status::InvalidArgument("denominator vector is identically zero");
  }

  // Dinkelbach's algorithm, which is exact here: for a fixed ratio guess
  // lambda, the parametric problem max_x (a - lambda*b) . x over the box
  // separates per coordinate (x_i = upper_i where a_i > lambda*b_i, else
  // lower_i). Iterating lambda <- ratio(x) increases lambda monotonically
  // and terminates at the optimum in at most n+1 distinct vertices — and,
  // unlike a simplex tableau, it is immune to the 15-orders-of-magnitude
  // coefficient spread of real usage/cost vectors.
  linalg::Vector x = lower;
  double lambda = linalg::Dot(a, x) / linalg::Dot(b, x);
  // The candidate vertex is rebuilt in full each iteration, so one buffer
  // swapped with x serves every iteration.
  linalg::Vector next(n);
  for (int iter = 0; iter < 200; ++iter) {
    for (size_t i = 0; i < n; ++i) {
      next[i] = (a[i] - lambda * b[i] > 0.0) ? upper[i] : lower[i];
    }
    const double denom = linalg::Dot(b, next);
    if (denom <= 0.0) break;  // numerator-only dims; lambda is unbounded
    const double next_lambda = linalg::Dot(a, next) / denom;
    if (next_lambda <= lambda * (1.0 + 1e-14)) break;
    lambda = next_lambda;
    std::swap(x, next);
  }
  FractionalSolution out;
  out.value = lambda;
  out.x = std::move(x);
  return out;
}

}  // namespace costsense::lp
