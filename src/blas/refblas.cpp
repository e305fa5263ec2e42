#include "blas/driver.hpp"
#include "blas/libraries.hpp"
#include "blas/reference.hpp"

namespace augem::blas {

namespace {

/// Scalar block kernel: one plain dot product per C element, no register
/// tiling, no SIMD.
void block_kernel_scalar(index_t mc, index_t nc, index_t kc, const double* pa,
                         const double* pb, double* c, index_t ldc) {
  for (index_t j = 0; j < nc; ++j) {
    for (index_t i = 0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
  }
}

/// Reference implementation: the scalar block kernel on one thread for
/// GEMM and the Level-3 routines, the naive blas::ref loops for Level 1/2.
class RefBlas final : public Blas {
 public:
  std::string name() const override { return "refblas"; }

  void gemv(index_t m, index_t n, double alpha, const double* a, index_t lda,
            const double* x, double beta, double* y) override {
    ref::gemv(m, n, alpha, a, lda, x, beta, y);
  }

  void axpy(index_t n, double alpha, const double* x, double* y) override {
    ref::axpy(n, alpha, x, y);
  }

  double dot(index_t n, const double* x, const double* y) override {
    return ref::dot(n, x, y);
  }

  void scal(index_t n, double alpha, double* x) override {
    ref::scal(n, alpha, x);
  }

 private:
  GemmPlan gemm_plan(index_t, index_t, index_t) override {
    return {serial_gemm_context(default_block_sizes(host_arch())),
            block_kernel_scalar};
  }
};

}  // namespace

std::unique_ptr<Blas> make_refblas() { return std::make_unique<RefBlas>(); }

}  // namespace augem::blas
