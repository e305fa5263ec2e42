#pragma once
// Canonical floating-point operation counts for the DLA routines measured in
// the paper's evaluation. All figures/tables report MFLOPS computed from
// these counts, so they live in one place.

#include <cstdint>

namespace augem {

/// MFLOPS given a flop count and elapsed seconds (the paper's unit).
inline double mflops(double flops, double seconds) {
  return seconds > 0 ? flops / seconds / 1.0e6 : 0.0;
}

/// 2*m*n*k flops for C(m×n) += A(m×k) * B(k×n).
inline double gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// 2*m*n flops for y(m) += A(m×n) * x(n).
inline double gemv_flops(std::int64_t m, std::int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n);
}

/// 2*n flops for y += alpha * x.
inline double axpy_flops(std::int64_t n) { return 2.0 * static_cast<double>(n); }

/// 2*n flops for dot(x, y).
inline double dot_flops(std::int64_t n) { return 2.0 * static_cast<double>(n); }

/// n flops for x = alpha * x (SCAL).
inline double scal_flops(std::int64_t n) { return static_cast<double>(n); }

/// 2*m*n flops for A += alpha * x * y^T (GER).
inline double ger_flops(std::int64_t m, std::int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n);
}

/// SYMM C(m×n) = A(m×m, symmetric) * B(m×n): 2*m*m*n.
inline double symm_flops(std::int64_t m, std::int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(n);
}

/// SYRK C(n×n) += A(n×k) * A^T: n*(n+1)*k (only a triangle is updated).
inline double syrk_flops(std::int64_t n, std::int64_t k) {
  return static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}

/// SYR2K C(n×n) += A*B^T + B*A^T over a triangle: 2*n*(n+1)*k.
inline double syr2k_flops(std::int64_t n, std::int64_t k) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}

/// TRMM B(m×n) = L(m×m, triangular) * B: m*m*n.
inline double trmm_flops(std::int64_t m, std::int64_t n) {
  return static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(n);
}

/// TRSM B(m×n) = L^{-1} * B: m*m*n.
inline double trsm_flops(std::int64_t m, std::int64_t n) {
  return static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(n);
}

}  // namespace augem
