#ifndef COSTSENSE_LINALG_KERNELS_H_
#define COSTSENSE_LINALG_KERNELS_H_

#include <cstddef>

namespace costsense::linalg {

/// Low-level dense kernels over raw double buffers, used by the batched
/// plan-cost layer (core::PlanMatrix).
///
/// Bit-compatibility contract: every kernel that reduces along a vector
/// accumulates strictly left to right, the same order as Dot(). Batched
/// results are therefore bit-identical to the one-vector-at-a-time code
/// they replace; the speedup comes from contiguous storage, shared loads
/// and the removal of per-call allocation, not from reassociation.

/// out[r] = A[r] . x for a row-major matrix A of shape rows x cols. Rows
/// are processed in blocks of four that share each x[j] load; each row's
/// accumulation stays left-to-right, so each entry has the same rounding
/// as Dot(Vector, Vector) on that row.
void MatVecRowMajor(const double* a, size_t rows, size_t cols,
                    const double* x, double* out);

/// Index of the smallest element, lowest index on ties — the same winner a
/// serial first-strictly-less scan selects. n must be positive.
size_t ArgMin(const double* x, size_t n);

}  // namespace costsense::linalg

#endif  // COSTSENSE_LINALG_KERNELS_H_
