#ifndef COSTSENSE_LINALG_VECTOR_H_
#define COSTSENSE_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace costsense::linalg {

/// A dense real vector. This is the representation of both resource *usage*
/// vectors U and resource *cost* vectors C in the paper's framework; the
/// plan-cost functional is the dot product T = U . C (paper Eq. 3).
class Vector {
 public:
  Vector() = default;
  /// Creates a zero vector of dimension `n`.
  explicit Vector(size_t n) : data_(n, 0.0) {}
  /// Creates a vector of dimension `n` filled with `value`.
  Vector(size_t n, double value) : data_(n, value) {}
  /// Creates a vector from a brace list: Vector v{1.0, 2.0}.
  Vector(std::initializer_list<double> values) : data_(values) {}
  /// Adopts an existing buffer.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  const std::vector<double>& data() const { return data_; }
  /// The elements as a span, for code that fills a vector in place.
  std::span<double> span() { return data_; }
  std::span<const double> span() const { return data_; }

  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  /// Element-wise arithmetic. Dimensions must match (CHECKed).
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double k);

  friend Vector operator+(Vector a, const Vector& b) { return a += b; }
  friend Vector operator-(Vector a, const Vector& b) { return a -= b; }
  friend Vector operator*(Vector a, double k) { return a *= k; }
  friend Vector operator*(double k, Vector a) { return a *= k; }

  friend bool operator==(const Vector& a, const Vector& b) {
    return a.data_ == b.data_;
  }

  /// Returns the element-wise (Hadamard) product; used to apply a vector of
  /// multiplicative cost errors to a baseline cost vector.
  Vector Hadamard(const Vector& other) const;

  /// Euclidean norm.
  double Norm() const;
  /// Max-absolute-value norm.
  double InfNorm() const;
  /// Sum of elements.
  double Sum() const;
  /// Largest element value (requires non-empty).
  double Max() const;
  /// Smallest element value (requires non-empty).
  double Min() const;

  /// True if every element of this vector is <= the matching element of
  /// `other` plus `tol`.
  bool AllLessEqual(const Vector& other, double tol = 0.0) const;

  /// Renders "[a, b, c]" with compact doubles.
  std::string ToString() const;

 private:
  std::vector<double> data_;
};

/// Dot product a . b; dimensions must match (CHECKed). This is the plan
/// total-cost functional of the paper (Eq. 3).
double Dot(const Vector& a, const Vector& b);

/// Returns true if |a_i - b_i| <= tol for all i (and sizes match).
bool ApproxEqual(const Vector& a, const Vector& b, double tol);

}  // namespace costsense::linalg

#endif  // COSTSENSE_LINALG_VECTOR_H_
