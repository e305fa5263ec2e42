#include "runtime/runtime_blas.hpp"

#include <algorithm>

#include "augem/augem_blas.hpp"
#include "blas/driver.hpp"
#include "support/threadpool.hpp"

namespace augem::runtime {

namespace {

using blas::at;
using blas::index_t;
using blas::Trans;
using frontend::KernelKind;

class RuntimeBlas final : public blas::Blas {
 public:
  explicit RuntimeBlas(KernelRuntime& rt) : rt_(rt) {}

  std::string name() const override { return "AUGEM-runtime"; }

  void gemm_batch_strided(index_t m, index_t n, index_t k, double alpha,
                          const double* a, index_t lda, index_t stride_a,
                          const double* b, index_t ldb, index_t stride_b,
                          double beta, double* c, index_t ldc,
                          index_t stride_c, index_t batch, const double* bias,
                          index_t stride_bias, bool relu) override {
    if (m <= 0 || n <= 0 || batch <= 0) return;
    if (k <= 0 || alpha == 0.0) {
      // Degenerate update (no depth, or alpha == 0 meaning A/B are never
      // read — netlib semantics, so no 0 * Inf = NaN from the operands).
      // The reference loop applies the beta/bias/relu epilogue; resolving
      // a kernel for it would be absurd.
      Blas::gemm_batch_strided(m, n, k, alpha, a, lda, stride_a, b, ldb,
                               stride_b, beta, c, ldc, stride_c, batch, bias,
                               stride_bias, relu);
      return;
    }
    if (!use_small_gemm_kernel(m, n, k)) {
      // Above the small-kernel window the blocked path wins; run it per
      // instance (it parallelizes internally) and fuse the epilogue after.
      for (index_t p = 0; p < batch; ++p) {
        gemm(Trans::kNo, Trans::kNo, m, n, k, alpha, a + p * stride_a, lda,
             b + p * stride_b, ldb, beta, c + p * stride_c, ldc);
        apply_epilogue(m, n, c + p * stride_c, ldc,
                       bias == nullptr ? nullptr : bias + p * stride_bias,
                       relu);
      }
      return;
    }

    // Dispatch is resolved ONCE per (shape, epilogue) key; the batch then
    // streams through the cached kernel pointer with no per-instance
    // classification, cache probe, or packing.
    frontend::SmallGemmSpec spec;
    spec.m = static_cast<int>(m);
    spec.n = static_cast<int>(n);
    spec.k = static_cast<int>(k);
    const bool zero_first = beta == 0.0;
    spec.epilogue.scale = !(alpha == 1.0 && (beta == 1.0 || zero_first));
    spec.epilogue.bias = bias != nullptr;
    spec.epilogue.relu = relu;
    const auto kernel = rt_.resolve_small(spec);
    auto* fn = kernel->fn<SmallGemmFn>();

    auto run_instance = [&](index_t p) {
      const double* ap = a + p * stride_a;
      const double* bp = b + p * stride_b;
      double* cp = c + p * stride_c;
      const double* biasp = bias == nullptr ? nullptr : bias + p * stride_bias;
      if (zero_first)
        // beta == 0 overwrite semantics: the kernel always reads C, so
        // clear the instance first (0 * 0 is a clean 0 for the scale form).
        for (index_t j = 0; j < n; ++j)
          std::fill_n(&at(cp, ldc, 0, j), m, 0.0);
      fn(ap, lda, bp, ldb, cp, ldc, biasp, alpha, beta);
    };

    // Partition instances across the pool; below a handful of instances the
    // submit handshake costs more than it saves.
    ThreadPool& pool = ThreadPool::global();
    if (batch < 4 * pool.num_threads() || pool.num_threads() == 1) {
      for (index_t p = 0; p < batch; ++p) run_instance(p);
      return;
    }
    const int nt = pool.num_threads();
    pool.run([&](int tid) {
      const index_t lo = batch * tid / nt;
      const index_t hi = batch * (tid + 1) / nt;
      for (index_t p = lo; p < hi; ++p) run_instance(p);
    });
  }

  void gemv(index_t m, index_t n, double alpha, const double* a, index_t lda,
            const double* x, double beta, double* y) override {
    if (m <= 0) return;
    if (n <= 0 || alpha == 0.0) {
      blas::beta_scale(y, m, beta);
      return;
    }
    const auto kernel =
        rt_.resolve(KernelKind::kGemv, classify_vector_shape(m));
    gemv_with_blas_semantics(kernel->fn<KernelSet::GemvFn>(), m, n, alpha, a,
                             lda, x, beta, y);
  }

  void ger(index_t m, index_t n, double alpha, const double* x,
          const double* y, double* a, index_t lda) override {
    // One AXPY per column, as in Blas::ger, but resolved once per call: a
    // code-cache hit costs about as much as a 1000-element AXPY.
    if (m <= 0 || n <= 0 || alpha == 0.0) return;
    const auto kernel =
        rt_.resolve(KernelKind::kAxpy, classify_vector_shape(m));
    for (index_t j = 0; j < n; ++j)
      axpy_with_blas_semantics(kernel->fn<KernelSet::AxpyFn>(), m,
                               alpha * y[j], x, &at(a, lda, 0, j));
  }

  void axpy(index_t n, double alpha, const double* x, double* y) override {
    if (n <= 0 || alpha == 0.0) return;
    const auto kernel =
        rt_.resolve(KernelKind::kAxpy, classify_vector_shape(n));
    axpy_with_blas_semantics(kernel->fn<KernelSet::AxpyFn>(), n, alpha, x, y);
  }

  double dot(index_t n, const double* x, const double* y) override {
    if (n <= 0) return 0.0;
    const auto kernel = rt_.resolve(KernelKind::kDot, classify_vector_shape(n));
    return dot_with_blas_semantics(kernel->fn<KernelSet::DotFn>(), n, x, y);
  }

  void scal(index_t n, double alpha, double* x) override {
    if (n <= 0) return;
    if (alpha == 0.0) {  // overwrite: scal-to-zero must clear NaN/Inf
      std::fill(x, x + n, 0.0);
      return;
    }
    const auto kernel =
        rt_.resolve(KernelKind::kScal, classify_vector_shape(n));
    scal_with_blas_semantics(kernel->fn<KernelSet::ScalFn>(), n, alpha, x);
  }

 private:
  /// Post-GEMM bias/relu pass for batch instances served by the blocked
  /// path (the small kernels fuse this into their stores instead).
  static void apply_epilogue(index_t m, index_t n, double* c, index_t ldc,
                             const double* bias, bool relu) {
    if (bias == nullptr && !relu) return;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        double v = at(c, ldc, i, j);
        if (bias != nullptr) v += bias[i];
        if (relu) v = v > 0.0 ? v : 0.0;  // MAXPD: NaN clamps to 0
        at(c, ldc, i, j) = v;
      }
    }
  }

  /// One GEMM kernel resolved through the cache for the shape-matched
  /// tuning key, wrapped for ragged edges, on the shape-aware context with
  /// the jr split kept on the kernel's column-tile multiple (the
  /// bit-exactness condition of the threaded driver, see blas/driver.hpp).
  /// The block kernel holds the resolved module, so an eviction from the
  /// code cache during the call cannot unmap it.
  blas::GemmPlan gemm_plan(index_t m, index_t n, index_t k) override {
    auto kernel = rt_.resolve(KernelKind::kGemm, classify_gemm_shape(m, n, k));
    blas::GemmPlan plan;
    plan.ctx = blas::gemm_context_for_shape(host_arch(), m, n, k);
    plan.ctx.jr_granule = std::max<index_t>(8, kernel->nr);
    const index_t mr = kernel->mr, nr = kernel->nr;
    plan.kernel = padded_gemm_block_kernel(
        [kernel = std::move(kernel)](long mc, long nc, long kc,
                                     const double* pa, const double* pb,
                                     double* c, long ldc) {
          kernel->fn<KernelSet::GemmFn>()(mc, nc, kc, pa, pb, c, ldc);
        },
        mr, nr);
    return plan;
  }

  KernelRuntime& rt_;
};

}  // namespace

std::unique_ptr<blas::Blas> make_runtime_blas() {
  return make_runtime_blas(KernelRuntime::global());
}

std::unique_ptr<blas::Blas> make_runtime_blas(KernelRuntime& runtime) {
  return std::make_unique<RuntimeBlas>(runtime);
}

}  // namespace augem::runtime
