#include "core/feasible_region.h"

#include <cmath>

#include "common/macros.h"
#include "common/strings.h"

namespace costsense::core {

namespace {

// The box invariants, shared by the CHECKing constructor and the
// Status-returning factories. Non-finite bounds are rejected outright: an
// infinite upper bound would make every vertex sweep and LP degenerate,
// and a NaN silently poisons comparisons.
Status CheckBoxBounds(const CostVector& lower, const CostVector& upper) {
  if (lower.size() != upper.size()) {
    return Status::InvalidArgument(
        StrFormat("box bounds disagree on dimension: %zu vs %zu",
                  lower.size(), upper.size()));
  }
  for (size_t i = 0; i < lower.size(); ++i) {
    if (!std::isfinite(lower[i]) || !std::isfinite(upper[i])) {
      return Status::InvalidArgument(
          StrFormat("box bounds must be finite (dim %zu: [%g, %g])", i,
                    lower[i], upper[i]));
    }
    if (!(lower[i] > 0.0)) {
      return Status::InvalidArgument(StrFormat(
          "cost lower bounds must be positive (dim %zu: %g)", i, lower[i]));
    }
    if (lower[i] > upper[i]) {
      return Status::InvalidArgument(StrFormat(
          "lower bound above upper (dim %zu: [%g, %g])", i, lower[i],
          upper[i]));
    }
  }
  return Status::Ok();
}

}  // namespace

Box::Box(CostVector lower, CostVector upper)
    : lower_(std::move(lower)), upper_(std::move(upper)) {
  const Status s = CheckBoxBounds(lower_, upper_);
  COSTSENSE_CHECK_MSG(s.ok(), s.ToString().c_str());
}

Box Box::MultiplicativeBand(const CostVector& baseline, double delta) {
  COSTSENSE_CHECK_MSG(delta >= 1.0, "delta must be >= 1");
  CostVector lo(baseline.size());
  CostVector hi(baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    lo[i] = baseline[i] / delta;
    hi[i] = baseline[i] * delta;
  }
  return Box(std::move(lo), std::move(hi));
}

Result<Box> Box::Validated(CostVector lower, CostVector upper) {
  const Status s = CheckBoxBounds(lower, upper);
  if (!s.ok()) return s;
  return Box(std::move(lower), std::move(upper));
}

Result<Box> Box::ValidatedMultiplicativeBand(const CostVector& baseline,
                                             double delta) {
  if (!std::isfinite(delta) || delta < 1.0) {
    return Status::InvalidArgument(
        StrFormat("delta must be finite and >= 1 (got %g)", delta));
  }
  CostVector lo(baseline.size());
  CostVector hi(baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    lo[i] = baseline[i] / delta;
    hi[i] = baseline[i] * delta;
  }
  return Validated(std::move(lo), std::move(hi));
}

uint64_t Box::VertexCount() const {
  COSTSENSE_CHECK_MSG(dims() < 64, "vertex enumeration limited to 63 dims");
  return uint64_t{1} << dims();
}

CostVector Box::Vertex(uint64_t mask) const {
  CostVector v(dims());
  VertexInto(mask, v);
  return v;
}

void Box::VertexInto(uint64_t mask, std::span<double> out) const {
  COSTSENSE_CHECK(out.size() == dims());
  for (size_t i = 0; i < dims(); ++i) {
    out[i] = (mask >> i) & 1 ? upper_[i] : lower_[i];
  }
}

CostVector Box::Center() const {
  CostVector v(dims());
  CenterInto(v.span());
  return v;
}

void Box::CenterInto(std::span<double> out) const {
  COSTSENSE_CHECK(out.size() == dims());
  for (size_t i = 0; i < dims(); ++i) {
    out[i] = std::sqrt(lower_[i] * upper_[i]);
  }
}

bool Box::Contains(const CostVector& c, double tol) const {
  if (c.size() != dims()) return false;
  for (size_t i = 0; i < dims(); ++i) {
    const double slack = tol * (upper_[i] - lower_[i] + 1.0);
    if (c[i] < lower_[i] - slack || c[i] > upper_[i] + slack) return false;
  }
  return true;
}

CostVector Box::SampleLogUniform(Rng& rng) const {
  CostVector v(dims());
  SampleLogUniformInto(rng, v.span());
  return v;
}

void Box::SampleLogUniformInto(Rng& rng, std::span<double> out) const {
  COSTSENSE_CHECK(out.size() == dims());
  for (size_t i = 0; i < dims(); ++i) {
    out[i] = (lower_[i] == upper_[i]) ? lower_[i]
                                      : rng.LogUniform(lower_[i], upper_[i]);
  }
}

}  // namespace costsense::core
