#ifndef COSTSENSE_CORE_FEASIBLE_REGION_H_
#define COSTSENSE_CORE_FEASIBLE_REGION_H_

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "common/status.h"
#include "core/vectors.h"

namespace costsense::core {

/// The feasible cost region (paper Section 3.3) as an axis-aligned box in
/// cost space: the true cost vector is assumed to lie within
/// [c_i / delta, c_i * delta] per resource, around the optimizer's
/// estimated costs. The paper's worst-case experiments (Section 6.1) use
/// exactly this multiplicative band.
class Box {
 public:
  /// Builds a box from explicit bounds; lower must be positive and finite
  /// and element-wise <= the (finite) upper (CHECKed).
  Box(CostVector lower, CostVector upper);

  /// The paper's construction: each estimated cost c_i may be off by a
  /// multiplicative factor in [1/delta, delta]. Requires delta >= 1 and a
  /// positive baseline.
  static Box MultiplicativeBand(const CostVector& baseline, double delta);

  /// Validating factories: the same invariants as the constructors above,
  /// reported as a typed InvalidArgument instead of a process-fatal CHECK.
  /// For bounds that arrive from outside the process's own arithmetic —
  /// request payloads, configuration, extraction output — where a bad
  /// value must degrade one analysis, not kill the run.
  [[nodiscard]] static Result<Box> Validated(CostVector lower, CostVector upper);
  [[nodiscard]] static Result<Box> ValidatedMultiplicativeBand(const CostVector& baseline,
                                                 double delta);

  size_t dims() const { return lower_.size(); }
  const CostVector& lower() const { return lower_; }
  const CostVector& upper() const { return upper_; }

  /// Number of vertices, 2^dims (CHECK-fails above 63 dims).
  uint64_t VertexCount() const;

  /// Vertex by bitmask: bit i set selects upper_[i], clear selects
  /// lower_[i]. The paper's Observation 2 reduces worst-case analysis to a
  /// sweep over exactly these points.
  CostVector Vertex(uint64_t mask) const;

  /// Writes Vertex(mask) into `out` without allocating; out must already
  /// have dims() elements (CHECKed). Vertex-sweep loops mutate one scratch
  /// vector in place instead of allocating 2^d fresh ones.
  void VertexInto(uint64_t mask, CostVector& out) const {
    VertexInto(mask, out.span());
  }
  void VertexInto(uint64_t mask, std::span<double> out) const;

  /// Geometric center: per-dim sqrt(lower*upper) — the multiplicative
  /// midpoint, which maps back to the baseline for MultiplicativeBand
  /// boxes. (The arithmetic midpoint would be biased toward the upper
  /// bound under multiplicative error.)
  CostVector Center() const;
  /// Writes Center() into `out` (dims() elements, CHECKed).
  void CenterInto(std::span<double> out) const;

  /// True if `c` lies inside the box (with tolerance `tol` per dim,
  /// relative to the dim's width).
  bool Contains(const CostVector& c, double tol = 1e-12) const;

  /// Samples a point log-uniformly per dimension: each coordinate is
  /// lower_i * (upper_i/lower_i)^u with u ~ U[0,1]. Matches the
  /// multiplicative-error model.
  CostVector SampleLogUniform(Rng& rng) const;
  /// Writes SampleLogUniform(rng) into `out` (dims() elements, CHECKed),
  /// drawing from `rng` exactly as it does.
  void SampleLogUniformInto(Rng& rng, std::span<double> out) const;

 private:
  CostVector lower_;
  CostVector upper_;
};

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_FEASIBLE_REGION_H_
