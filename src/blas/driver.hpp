#pragma once
// The Goto block-partitioned GEMM driver (paper §4.1). Shared by every
// library (blas/blas.hpp): each supplies a *block kernel* computing
// C(mc×nc) += PA(mc×kc) * PB(kc×nc) over packed panels; the driver owns the
// cache blocking, packing, beta handling and — through a GemmContext — the
// multi-threaded macro-loop decomposition.

#include <cstdint>
#include <functional>
#include <vector>

#include "blas/types.hpp"
#include "support/arch.hpp"
#include "support/threadpool.hpp"

namespace augem::blas {

/// Cache blocking parameters.
struct BlockSizes {
  index_t mc = 128;  ///< A-block rows (L2 resident)
  index_t nc = 512;  ///< B-panel columns (L3 / memory streamed)
  index_t kc = 256;  ///< shared depth (A block + B panel rows, L1/L2)
};

/// Derives block sizes from the cache hierarchy: kc*8 bytes of a B column
/// must leave room in L1 beside the A micro-panel; mc*kc doubles of packed
/// A target half of L2, but mc stops at 128 rows so the packed A block's
/// column stride (mc*8 bytes, one jump per k step of every register tile)
/// stays 1 KB; the kc×nc packed B panel targets half of the LLC.
BlockSizes default_block_sizes(const CpuArch& arch);

/// C(mc×nc, ldc) += PA * PB over packed panels (see blas/pack.hpp for the
/// layouts). Must handle arbitrary mc/nc/kc ≥ 0. Under the threaded driver
/// the kernel is invoked concurrently from several threads on disjoint C
/// blocks, so it must be reentrant (stateless or thread-local state only).
using BlockKernel =
    std::function<void(index_t mc, index_t nc, index_t kc, const double* pa,
                       const double* pb, double* c, index_t ldc)>;

/// Execution context of one GEMM entry: blocking plus threading.
///
/// With threads == 1 (or no pool) every phase of the driver runs on the
/// caller. Otherwise the BLIS-style 2D decomposition is used: all
/// participants pack each B panel (a column slice of every chunk each) —
/// shared read-only afterwards — then split the (ic block × jr chunk) grid
/// round-robin, each thread packing its A blocks into per-thread scratch;
/// blocked_gemm cuts its panels into jr chunks only when C has fewer ic
/// blocks than participants (tall-skinny). jr splits land on jr_granule
/// column multiples so every block kernel sees the same register-tile
/// boundaries as the serial sweep — the parallel result is bit-identical
/// to the serial one for any kernel whose per-element operation order
/// depends only on the position inside its column tile (true of all
/// kernels in this repository; granule 8 covers every generated tile width
/// nr ∈ {2, 4, 8}).
struct GemmContext {
  BlockSizes sizes;
  int threads = 1;            ///< participants used (clamped to pool size)
  ThreadPool* pool = nullptr; ///< null → serial regardless of `threads`
  index_t jr_granule = 8;     ///< jr split alignment, ≥ the kernel tile width
};

/// What a library runs a GEMM with (blas::Blas::gemm_plan): the threading
/// context and the block kernel. The kernel owns whatever keeps its code
/// mapped — the runtime's captures the resolved module — so a plan stays
/// runnable for as long as it lives.
struct GemmPlan {
  GemmContext ctx;
  BlockKernel kernel;
};

/// Shape-aware blocking for the dispatching runtime (docs/runtime.md):
/// starts from default_block_sizes(arch) and clamps each block to the
/// problem extent (rounded up to the register-tile granule), so a small or
/// skinny GEMM never packs panels sized for the cache-blocked regime.
BlockSizes block_sizes_for_shape(const CpuArch& arch, index_t m, index_t n,
                                 index_t k);

/// Execution context for one (m, n, k) problem on `arch`: shape-clamped
/// block sizes, and a serial macro loop for problems too small to repay a
/// pool wake (threading is a per-call decision, not a per-library one).
/// The threaded and serial paths are bit-identical, so this only affects
/// speed.
GemmContext gemm_context_for_shape(const CpuArch& arch, index_t m, index_t n,
                                   index_t k);

/// Serial context: every phase on the calling thread.
GemmContext serial_gemm_context(const BlockSizes& sizes);

/// Context on the process-global pool, sized by AUGEM_NUM_THREADS or the
/// detected core count.
GemmContext threaded_gemm_context(const BlockSizes& sizes);

/// Full GEMM: C = alpha*op(A)*op(B) + beta*C. Each (jc, pc) step packs one
/// kc×nc panel of op(B) and runs blocked_gemm_prepacked on it (beta at
/// pc == 0), decomposed across ctx.threads workers.
void blocked_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                  double alpha, const double* a, index_t lda, const double* b,
                  index_t ldb, double beta, double* c, index_t ldc,
                  const GemmContext& ctx, const BlockKernel& kernel);

// ---- prepacked panels ----------------------------------------------------
//
// blocked_gemm packs one kc×nc panel per (jc, pc) step and consumes it once.
// The Level-3 routines (blas/level3.hpp) decompose into many GEMM panels
// that share one operand: SYRK consumes the same op(A) panel for the
// diagonal temporary and the off-diagonal update, TRSM's trailing updates
// re-read every already-solved block. A PackedB holds such an operand in
// the kernel layout, packed once, and blocked_gemm_prepacked consumes it
// repeatedly, counting the reuse (Level3Stats) so tests can assert panels
// are shared. pack_a_block/pack_b_block (blas/pack.hpp) and the two
// helpers below are the only code that writes the packed layout.

/// Writes one packed sub-panel in kernel layout, column-major with leading
/// dimension kc: dst[j*kc + l] must become logical element (k0 + l, j0 + j)
/// of the panel operand, l < kc, j < w. The writer abstracts the source (a
/// plain matrix, a symmetric expansion, a masked triangle, the in-solve
/// B…).
using PanelWriter = std::function<void(index_t k0, index_t j0, index_t kc,
                                       index_t w, double* dst)>;

/// Packs an alpha-folded mc×kc A block: pa[l*mc + i] must become
/// alpha * element (i0 + i, p0 + l) of the left operand.
using APacker = std::function<void(index_t i0, index_t p0, index_t mc,
                                   index_t kc, double* pa)>;

/// The PanelWriter of a panel operand whose logical element (l, j) is
/// elem(l, j).
template <class Elem>
PanelWriter panel_writer(Elem elem) {
  return [elem](index_t k0, index_t j0, index_t kc, index_t w, double* dst) {
    for (index_t j = 0; j < w; ++j)
      for (index_t l = 0; l < kc; ++l) dst[j * kc + l] = elem(k0 + l, j0 + j);
  };
}

/// The APacker of a left operand whose logical element (i, l) is
/// elem(i, l), folded with `coeff`.
template <class Elem>
APacker a_packer(Elem elem, double coeff) {
  return [elem, coeff](index_t i0, index_t p0, index_t mc, index_t kc,
                       double* pa) {
    for (index_t l = 0; l < kc; ++l)
      for (index_t i = 0; i < mc; ++i)
        pa[l * mc + i] = coeff * elem(i0 + i, p0 + l);
  };
}

/// Packed-panel accounting, aggregated across one Level-3 call.
struct Level3Stats {
  std::int64_t panels_packed = 0;  ///< chunk-panels written by pack_rows
  std::int64_t panel_reuses = 0;   ///< kernel consumptions beyond the first
};

/// A k×n panel packed once into the block kernel's column-major layout
/// and consumed by many blocked_gemm_prepacked calls. Storage is chunked:
/// k-chunks of `kc` rows, each split into column chunks of `jw` columns
/// (the jr tiling, fixed at pack time so serial and threaded consumers see
/// identical kernel-call boundaries — the bit-identity condition of the
/// threaded driver). Chunk (qk, qj) lives at
/// data + qk*kc*n + rows(qk)*qj*jw, column-major with leading dimension
/// rows(qk) = chunk_rows(qk). The storage pointer is borrowed (a scratch
/// buffer).
class PackedB {
 public:
  PackedB(index_t k, index_t n, index_t kc, index_t jw, double* storage);

  /// Doubles a PackedB of this geometry needs.
  static std::size_t storage_doubles(index_t k, index_t n, index_t kc);

  /// Packs rows [k0, k1) of the panel through `writer`. The range must
  /// cover whole k-chunks (k0 aligned; k1 aligned or == k). With a
  /// threaded ctx every participant writes its column slice of every
  /// chunk, so even a one-chunk panel packs on all threads.
  void pack_rows(index_t k0, index_t k1, const PanelWriter& writer,
                 const GemmContext& ctx, Level3Stats* stats = nullptr);

  index_t k() const { return k_; }
  index_t n() const { return n_; }
  index_t kc() const { return kc_; }
  index_t jw() const { return jw_; }
  index_t jchunks() const { return jchunks_; }
  index_t chunk_rows(index_t qk) const {
    return qk + 1 < kchunks_ ? kc_ : k_ - qk * kc_;
  }
  index_t chunk_cols(index_t qj) const {
    return qj + 1 < jchunks_ ? jw_ : n_ - qj * jw_;
  }
  const double* chunk(index_t qk, index_t qj) const {
    return data_ + qk * kc_ * n_ + chunk_rows(qk) * qj * jw_;
  }
  double* chunk(index_t qk, index_t qj) {
    return data_ + qk * kc_ * n_ + chunk_rows(qk) * qj * jw_;
  }

  /// Consumption counters per (qk, qj) chunk, maintained by
  /// blocked_gemm_prepacked for the reuse statistics. Allocated on first
  /// use, so a panel consumed without a Level3Stats never allocates.
  std::vector<std::int32_t>& uses() {
    if (uses_.empty())
      uses_.assign(static_cast<std::size_t>(kchunks_ * jchunks_), 0);
    return uses_;
  }

 private:
  index_t k_, n_, kc_, jw_;
  index_t kchunks_, jchunks_;
  double* data_;
  std::vector<std::int32_t> uses_;
};

/// A jr chunk width for full-width panel consumers: splits n into enough
/// granule-aligned chunks for the pool to spread tall-skinny updates,
/// independent of the thread count (serial and threaded runs must tile
/// identically).
index_t default_jr_width(index_t n, index_t granule);

/// C(m × (j1-j0)) += sum over k-chunks in [k0, k1) of A(m×kc) * PB-chunk,
/// with beta applied to C first (beta_scale semantics). `apack` packs each
/// alpha-folded A block on demand; the panel rows come prepacked from
/// `pb`. Ranges must be chunk-aligned: k0/k1 on kc boundaries (or == k),
/// j0/j1 on jw boundaries (or == n). c points at the C element for panel
/// column j0. k-chunks run in ascending order, one pool run each, so
/// threaded accumulation is bit-identical to serial. Reuse accounting
/// lands in `stats` and pb.uses(), and only when `stats` is given.
void blocked_gemm_prepacked(index_t m, index_t j0, index_t j1, index_t k0,
                            index_t k1, PackedB& pb, double beta, double* c,
                            index_t ldc, const GemmContext& ctx,
                            const BlockKernel& kernel, const APacker& apack,
                            Level3Stats* stats = nullptr);

}  // namespace augem::blas
