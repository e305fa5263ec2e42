// atlsim: the ATLAS stand-in (DESIGN.md §2).
//
// Register-tiled, scalar-replaced *plain C* — the kind of code the ATLAS
// generator emits — compiled by the general-purpose compiler with
// auto-vectorization enabled (-O3 -funroll-loops, see CMakeLists). No
// intrinsics, no assembly: the compiler decides everything machine-level.
// The paper's thesis is that this approach leaves performance on the table
// versus template-generated assembly.

#include "blas/driver.hpp"
#include "blas/libraries.hpp"

namespace augem::blas {

namespace {

/// 4×4 register tile in plain C, every accumulator scalar-replaced.
void block_kernel_c(index_t mc, index_t nc, index_t kc, const double* pa,
                    const double* pb, double* c, index_t ldc) {
  const index_t m_main = mc / 4 * 4;
  const index_t n_main = nc / 4 * 4;
  for (index_t j = 0; j < n_main; j += 4) {
    for (index_t i = 0; i < m_main; i += 4) {
      double r00 = 0, r10 = 0, r20 = 0, r30 = 0;
      double r01 = 0, r11 = 0, r21 = 0, r31 = 0;
      double r02 = 0, r12 = 0, r22 = 0, r32 = 0;
      double r03 = 0, r13 = 0, r23 = 0, r33 = 0;
      const double* ap = pa + i;
      const double* bp = pb + j;
      for (index_t l = 0; l < kc; ++l) {
        const double a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
        const double b0 = bp[0], b1 = bp[1], b2 = bp[2], b3 = bp[3];
        r00 += a0 * b0; r10 += a1 * b0; r20 += a2 * b0; r30 += a3 * b0;
        r01 += a0 * b1; r11 += a1 * b1; r21 += a2 * b1; r31 += a3 * b1;
        r02 += a0 * b2; r12 += a1 * b2; r22 += a2 * b2; r32 += a3 * b2;
        r03 += a0 * b3; r13 += a1 * b3; r23 += a2 * b3; r33 += a3 * b3;
        ap += mc;
        bp += nc;
      }
      double* c0 = &at(c, ldc, i, j);
      double* c1 = &at(c, ldc, i, j + 1);
      double* c2 = &at(c, ldc, i, j + 2);
      double* c3 = &at(c, ldc, i, j + 3);
      c0[0] += r00; c0[1] += r10; c0[2] += r20; c0[3] += r30;
      c1[0] += r01; c1[1] += r11; c1[2] += r21; c1[3] += r31;
      c2[0] += r02; c2[1] += r12; c2[2] += r22; c2[3] += r32;
      c3[0] += r03; c3[1] += r13; c3[2] += r23; c3[3] += r33;
    }
  }
  for (index_t j = 0; j < nc; ++j) {
    const index_t i0 = j < n_main ? m_main : 0;
    for (index_t i = i0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
  }
}

class AtlSim final : public Blas {
 public:
  AtlSim() : ctx_(threaded_gemm_context(default_block_sizes(host_arch()))) {}

  std::string name() const override { return "atlsim"; }

  void gemv(index_t m, index_t n, double alpha, const double* a, index_t lda,
            const double* x, double beta, double* y) override {
    beta_scale(y, m, beta);
    if (alpha == 0.0) return;
    for (index_t j = 0; j < n; ++j) {
      const double s = alpha * x[j];
      const double* col = &at(a, lda, 0, j);
      for (index_t i = 0; i < m; ++i) y[i] += col[i] * s;
    }
  }

  void axpy(index_t n, double alpha, const double* x, double* y) override {
    if (alpha == 0.0) return;
    for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  }

  double dot(index_t n, const double* x, const double* y) override {
    double acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    index_t i = 0;
    for (; i + 4 <= n; i += 4) {
      acc0 += x[i] * y[i];
      acc1 += x[i + 1] * y[i + 1];
      acc2 += x[i + 2] * y[i + 2];
      acc3 += x[i + 3] * y[i + 3];
    }
    double total = (acc0 + acc1) + (acc2 + acc3);
    for (; i < n; ++i) total += x[i] * y[i];
    return total;
  }

  void scal(index_t n, double alpha, double* x) override {
    if (alpha == 0.0) {
      for (index_t i = 0; i < n; ++i) x[i] = 0.0;
      return;
    }
    for (index_t i = 0; i < n; ++i) x[i] *= alpha;
  }

 private:
  GemmPlan gemm_plan(index_t, index_t, index_t) override {
    return {ctx_, block_kernel_c};
  }

  GemmContext ctx_;
};

}  // namespace

std::unique_ptr<Blas> make_atlsim() { return std::make_unique<AtlSim>(); }

}  // namespace augem::blas
