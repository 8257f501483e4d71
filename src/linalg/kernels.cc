#include "linalg/kernels.h"

#include "common/macros.h"

namespace costsense::linalg {

namespace {

/// Left-to-right dot product over raw buffers: the rounding of
/// Dot(Vector, Vector).
double DotRaw(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

void MatVecRowMajor(const double* a, size_t rows, size_t cols,
                    const double* x, double* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a + (r + 0) * cols;
    const double* a1 = a + (r + 1) * cols;
    const double* a2 = a + (r + 2) * cols;
    const double* a3 = a + (r + 3) * cols;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double xj = x[j];
      s0 += a0[j] * xj;
      s1 += a1[j] * xj;
      s2 += a2[j] * xj;
      s3 += a3[j] * xj;
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    out[r] = DotRaw(a + r * cols, x, cols);
  }
}

size_t ArgMin(const double* x, size_t n) {
  COSTSENSE_CHECK(n > 0);
  size_t best = 0;
  double best_value = x[0];
  for (size_t i = 1; i < n; ++i) {
    if (x[i] < best_value) {
      best_value = x[i];
      best = i;
    }
  }
  return best;
}

}  // namespace costsense::linalg
