#include "blas/driver.hpp"

#include <algorithm>

#include "blas/pack.hpp"
#include "support/error.hpp"
#include "support/scratch.hpp"

namespace augem::blas {

BlockSizes default_block_sizes(const CpuArch& arch) {
  BlockSizes s;
  // kc: a kc-deep B micro-panel (a few columns) plus the A micro-panel
  // must sit in L1 with room to spare; 256 on a 32KB L1 (the value the
  // paper's testbeds and OpenBLAS use on this CPU class).
  s.kc = std::clamp<index_t>(arch.l1d_bytes / (8 * 16), 64, 256);
  // mc: the packed mc×kc A block targets half of L2, up to kMaxMc rows.
  // Each k step of a register tile jumps mc*8 bytes in packed A: on a 2 MB
  // L2 the uncapped 512 rows ran gemm_large 20% slower than caps of 96 to
  // 256, which tie (EXPERIMENTS.md, "Cap on the A block height mc").
  constexpr index_t kMaxMc = 128;
  s.mc = std::clamp<index_t>(arch.l2_bytes / 2 / (8 * s.kc), 32, kMaxMc);
  // Round to friendly multiples of the largest register tile we generate.
  s.kc = s.kc / 8 * 8;
  s.mc = s.mc / 8 * 8;
  // nc: the packed kc×nc B panel targets half of the LLC — it is streamed
  // once per (jc, pc) step and, under the threaded driver, shared read-only
  // by every core of the socket.
  s.nc = std::clamp<index_t>(arch.l3_bytes / 2 / (8 * s.kc), 240, 4096);
  s.nc = s.nc / 8 * 8;
  return s;
}

BlockSizes block_sizes_for_shape(const CpuArch& arch, index_t m, index_t n,
                                 index_t k) {
  BlockSizes s = default_block_sizes(arch);
  // Clamp to the problem, rounded up to the 8-granule every generated
  // register tile divides: packing scratch shrinks from cache-sized to
  // problem-sized, and the macro loops make exactly one trip per clamped
  // dimension.
  const auto clamp_to = [](index_t block, index_t extent) {
    if (extent <= 0) return std::min<index_t>(block, 8);
    return std::min(block, (extent + 7) / 8 * 8);
  };
  s.mc = clamp_to(s.mc, m);
  s.nc = clamp_to(s.nc, n);
  s.kc = clamp_to(s.kc, k);
  return s;
}

GemmContext gemm_context_for_shape(const CpuArch& arch, index_t m, index_t n,
                                   index_t k) {
  const BlockSizes sizes = block_sizes_for_shape(arch, m, n, k);
  // Threading repays its pool wakes only past a work threshold;
  // 2mnk flops below ~16 MFLOP run serial (the crossover every scaling
  // bench on the CI class machines shows is in the 1-64 MFLOP decade).
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  if (flops < 16.0e6) return serial_gemm_context(sizes);
  return threaded_gemm_context(sizes);
}

GemmContext serial_gemm_context(const BlockSizes& sizes) {
  GemmContext ctx;
  ctx.sizes = sizes;
  ctx.threads = 1;
  return ctx;
}

GemmContext threaded_gemm_context(const BlockSizes& sizes) {
  GemmContext ctx;
  ctx.sizes = sizes;
  ctx.pool = &ThreadPool::global();
  ctx.threads = ctx.pool->num_threads();
  return ctx;
}

namespace {

/// The failure path of the geometry and range checks, out of line so each
/// check costs the per-call path a compare.
[[noreturn, gnu::cold, gnu::noinline]] void fail_check(const char* what,
                                                       index_t a, index_t b) {
  AUGEM_FAIL(what << " (" << a << ", " << b << ")");
}

/// Chunk count of an extent a ≥ 0, and the chunk index of a chunk-aligned
/// offset. One-chunk extents skip the 64-bit divide (~20 cycles): a small
/// GEMM runs a dozen of these per call.
index_t ceil_div(index_t a, index_t b) {
  return a <= b ? (a > 0 ? 1 : 0) : (a + b - 1) / b;
}

/// Participants a context runs on: its thread count clamped to its pool.
int participants(const GemmContext& ctx) {
  return ctx.pool != nullptr ? std::min(ctx.threads, ctx.pool->num_threads())
                             : 1;
}

/// Runs body(tid, T) for each of the T participants of ctx: inline on the
/// caller when T == 1, else as one pool run whose tids beyond T idle (a
/// context may use fewer threads than its pool has). Inlined, and the pool
/// task holds a copy of the body, so a serial call never spills the body's
/// captures to memory — small GEMMs pay for every instruction here.
template <class Body>
[[gnu::always_inline]] inline void for_each_participant(const GemmContext& ctx,
                                                        const Body& body) {
  const index_t T = participants(ctx);
  if (T <= 1) {
    body(0, 1);
    return;
  }
  ctx.pool->run([body, T](int tid) {
    if (tid < T) body(tid, T);
  });
}

/// beta_scale over the m×n block at c. Columns split contiguously across
/// the participants, so each element is scaled exactly once (bit-identical
/// to the serial sweep).
void scale_columns(index_t m, index_t n, double beta, double* c, index_t ldc,
                   const GemmContext& ctx) {
  if (beta == 1.0) return;
  for_each_participant(ctx, [=](index_t tid, index_t T) {
    for (index_t j = n * tid / T; j < n * (tid + 1) / T; ++j)
      beta_scale(&at(c, ldc, 0, j), m, beta);
  });
}

}  // namespace

void blocked_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                  double alpha, const double* a, index_t lda, const double* b,
                  index_t ldb, double beta, double* c, index_t ldc,
                  const GemmContext& ctx, const BlockKernel& kernel) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0) {
    scale_columns(m, n, beta, c, ldc, ctx);
    return;
  }
  const BlockSizes& s = ctx.sizes;
  const index_t T = participants(ctx);
  const index_t granule = std::max<index_t>(1, ctx.jr_granule);
  const index_t iblocks = ceil_div(m, s.mc);
  double* storage = scratch_doubles(static_cast<std::size_t>(s.kc * s.nc),
                                    Scratch::kGemmPackB);

  for (index_t jc = 0; jc < n; jc += s.nc) {
    const index_t nc = std::min(s.nc, n - jc);
    // The jr split activates only when C has fewer row blocks than
    // participants (tall-skinny); chunk boundaries stay on granule
    // multiples so every kernel call sees the serial sweep's register-tile
    // boundaries.
    index_t jw = nc;
    if (iblocks < T && nc > granule) {
      const index_t want = ceil_div(T, iblocks);
      jw = std::max(granule, ceil_div(ceil_div(nc, want), granule) * granule);
    }
    for (index_t pc = 0; pc < k; pc += s.kc) {
      const index_t kc = std::min(s.kc, k - pc);
      const auto write_b = [=](index_t l0, index_t j0, index_t rows, index_t w,
                               double* dst) {
        pack_b_block(tb, b, ldb, pc + l0, jc + j0, rows, w, dst);
      };
      const auto pack_a = [=](index_t i0, index_t p0, index_t mc,
                              index_t rows, double* pa) {
        pack_a_block(ta, a, lda, i0, pc + p0, mc, rows, alpha, pa);
      };
      // std::ref: the std::function parameters wrap the lambdas without a
      // heap allocation per step.
      PackedB pb(kc, nc, kc, jw, storage);
      pb.pack_rows(0, kc, std::ref(write_b), ctx);
      blocked_gemm_prepacked(m, 0, nc, 0, kc, pb, pc == 0 ? beta : 1.0,
                             &at(c, ldc, 0, jc), ldc, ctx, kernel,
                             std::ref(pack_a));
    }
  }
}

// ---- prepacked panels -----------------------------------------------------

PackedB::PackedB(index_t k, index_t n, index_t kc, index_t jw, double* storage)
    : k_(k), n_(n), kc_(kc), jw_(jw), data_(storage) {
  if (k <= 0 || n <= 0 || kc <= 0 || jw <= 0 || storage == nullptr)
    fail_check("invalid PackedB geometry: k, n", k, n);
  kchunks_ = ceil_div(k, kc);
  jchunks_ = ceil_div(n, jw);
}

std::size_t PackedB::storage_doubles(index_t k, index_t n, index_t kc) {
  // Chunk qk lives at qk*kc*n whatever its actual row count, so storage is
  // full-kc-sized per chunk (only the last chunk may leave slack).
  return static_cast<std::size_t>(ceil_div(k, kc) * kc * n);
}

void PackedB::pack_rows(index_t k0, index_t k1, const PanelWriter& writer,
                        const GemmContext& ctx, Level3Stats* stats) {
  const index_t q0 = ceil_div(k0, kc_);
  const index_t q1 = ceil_div(k1, kc_);
  if (q0 * kc_ != k0 || (k1 != k_ && q1 * kc_ != k1) || k0 > k1 || k1 > k_)
    fail_check("pack_rows range is not chunk-aligned", k0, k1);
  if (k1 <= k0) return;
  // Participant tid of T writes columns [w*tid/T, w*(tid+1)/T) of every
  // chunk in range: disjoint column slices, each contiguous in the
  // column-major chunk, that tile the range.
  for_each_participant(ctx, [=, this, &writer](index_t tid, index_t T) {
    for (index_t qk = q0; qk < q1; ++qk) {
      const index_t rows = chunk_rows(qk);
      for (index_t qj = 0; qj < jchunks_; ++qj) {
        const index_t w = chunk_cols(qj);
        const index_t j0 = w * tid / T;
        const index_t j1 = w * (tid + 1) / T;
        if (j1 > j0)
          writer(qk * kc_, qj * jw_ + j0, rows, j1 - j0,
                 chunk(qk, qj) + j0 * rows);
      }
    }
  });
  if (stats != nullptr) stats->panels_packed += (q1 - q0) * jchunks_;
}

index_t default_jr_width(index_t n, index_t granule) {
  // Enough chunks to feed a pool on single-block-row updates, but fixed
  // independent of the thread count so serial and threaded consumers make
  // identical kernel calls (the bit-identity condition).
  constexpr index_t kTargetChunks = 16;
  const index_t g = std::max<index_t>(1, granule);
  if (n <= g) return g;
  return std::max(g, ceil_div(ceil_div(n, kTargetChunks), g) * g);
}

void blocked_gemm_prepacked(index_t m, index_t j0, index_t j1, index_t k0,
                            index_t k1, PackedB& pb, double beta, double* c,
                            index_t ldc, const GemmContext& ctx,
                            const BlockKernel& kernel, const APacker& apack,
                            Level3Stats* stats) {
  if (m <= 0 || j1 <= j0) return;
  const index_t jw = pb.jw();
  const index_t kc = pb.kc();
  const index_t qj0 = ceil_div(j0, jw);
  const index_t qj1 = ceil_div(j1, jw);
  const index_t qk0 = ceil_div(k0, kc);
  const index_t qk1 = ceil_div(k1, kc);
  if (qj0 * jw != j0 || (j1 != pb.n() && qj1 * jw != j1))
    fail_check("column range is not jr-chunk-aligned", j0, j1);
  if (qk0 * kc != k0 || (k1 != pb.k() && qk1 * kc != k1) || k1 > pb.k())
    fail_check("k range is not chunk-aligned", k0, k1);

  scale_columns(m, j1 - j0, beta, c, ldc, ctx);
  if (k1 <= k0) return;

  const index_t mc = ctx.sizes.mc;
  const index_t iblocks = ceil_div(m, mc);

  for (index_t qk = qk0; qk < qk1; ++qk) {
    const index_t kcq = pb.chunk_rows(qk);
    const index_t p0 = qk * kc;
    // The (ic block × jr chunk) grid, row-major, round-robin: participant
    // tid takes items tid, tid + T, … A blocks are packed privately per
    // thread, once per block it visits: redundant across jr chunks of one
    // block, but free of sharing traffic. Each k-chunk is one pool run, so
    // the accumulation order into any C tile matches the serial loop.
    for_each_participant(ctx, [&](index_t tid, index_t T) {
      double* pa = scratch_doubles(static_cast<std::size_t>(mc * kcq),
                                   Scratch::kGemmPackA);
      index_t it = 0;
      index_t next = tid;
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        bool packed = false;
        for (index_t qj = qj0; qj < qj1; ++qj, ++it) {
          if (it != next) continue;
          next += T;
          if (!packed) {
            apack(ic, p0, mcb, kcq, pa);
            packed = true;
          }
          kernel(mcb, pb.chunk_cols(qj), kcq, pa, pb.chunk(qk, qj),
                 &at(c, ldc, ic, qj * jw - j0), ldc);
        }
      }
    });
    // Reuse accounting on the calling thread: every chunk in range was
    // consumed once per ic block this call.
    if (stats == nullptr) continue;
    for (index_t qj = qj0; qj < qj1; ++qj) {
      auto& u = pb.uses()[static_cast<std::size_t>(qk * pb.jchunks() + qj)];
      stats->panel_reuses += iblocks - (u == 0 ? 1 : 0);
      u += static_cast<std::int32_t>(iblocks);
    }
  }
}

}  // namespace augem::blas
