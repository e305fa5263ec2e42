#include "blas/level3.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/scratch.hpp"

namespace augem::blas {

namespace {

void beta_scale_triangle(Uplo uplo, index_t n, double beta, double* c,
                         index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    if (uplo == Uplo::kLower)
      beta_scale(&at(c, ldc, j, j), n - j, beta);
    else
      beta_scale(&at(c, ldc, 0, j), j + 1, beta);
  }
}

void check_pivot(double piv) {
  AUGEM_CHECK(std::isfinite(piv) && piv != 0.0,
              "non-finite or zero pivot in triangular solve");
}

void zero_matrix(index_t m, index_t n, double* b, index_t ldb) {
  for (index_t j = 0; j < n; ++j) beta_scale(&at(b, ldb, 0, j), m, 0.0);
}

// Element accessors for panel_writer / a_packer (blas/driver.hpp): a
// plain column-major matrix, and op(tri(A)) with everything outside the
// effective triangle read as zero.

auto dense(const double* x, index_t ld) {
  return [x, ld](index_t i, index_t j) { return at(x, ld, i, j); };
}

auto masked_triangle(const double* a, index_t lda, Uplo uplo, Trans trans) {
  return [=](index_t i, index_t j) {
    return tri_at(a, lda, uplo, trans, i, j);
  };
}

}  // namespace

void level3_symm(const Level3Config& cfg, Side side, Uplo uplo, index_t m,
                 index_t n, double alpha, const double* a, index_t lda,
                 const double* b, index_t ldb, double beta, double* c,
                 index_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (alpha == 0.0) {  // netlib: beta update only, A and B unread
    for (index_t j = 0; j < n; ++j) beta_scale(&at(c, ldc, 0, j), m, beta);
    return;
  }
  // kLeft: the panel is B, packed once; the symmetric expansion happens in
  // the A-packer, which reads only the stored triangle through sym_at.
  // kRight: the panel is the expanded symmetric A (n×n), packed once; B
  // streams through the A-packer unchanged.
  const bool left = side == Side::kLeft;
  const index_t ka = left ? m : n;
  const index_t kc = std::min(cfg.ctx.sizes.kc, ka);
  const index_t jw = default_jr_width(n, cfg.ctx.jr_granule);
  ScratchLease storage(PackedB::storage_doubles(ka, n, kc),
                       Scratch::kLevel3PackB);
  PackedB pb(ka, n, kc, jw, storage.data());
  const auto sym = [=](index_t i, index_t j) {
    return sym_at(a, lda, uplo, i, j);
  };
  pb.pack_rows(0, ka, left ? panel_writer(dense(b, ldb)) : panel_writer(sym),
               cfg.ctx, cfg.stats);
  blocked_gemm_prepacked(
      m, 0, n, 0, ka, pb, beta, c, ldc, cfg.ctx, cfg.kernel,
      left ? a_packer(sym, alpha) : a_packer(dense(b, ldb), alpha), cfg.stats);
}

namespace {

/// Shared SYRK/SYR2K core: walks C's column blocks, computing the diagonal
/// block into a dense temporary (so only the stored triangle of C is
/// touched) and the off-diagonal rows directly — both from the same packed
/// op(X)^T panel chunks.
struct RankUpdatePanel {
  const double* x;
  index_t ldx;
  Trans trans;
};

/// jr chunk width of the SYRK/SYR2K panels. C's column blocks must start
/// on chunk boundaries; splitting each block into default_jr_width chunks
/// (when they divide it) lets one column block's GEMMs spread over the pool.
index_t rank_panel_width(const Level3Config& cfg) {
  const index_t jw = default_jr_width(cfg.block, cfg.ctx.jr_granule);
  return cfg.block % jw == 0 ? jw : cfg.block;
}

void pack_rank_panel(PackedB& pb, const RankUpdatePanel& p,
                     const Level3Config& cfg) {
  // Element (l, j) of op(X)^T = op(X)(j, l).
  pb.pack_rows(0, pb.k(), panel_writer([&p](index_t l, index_t j) {
                 return op_at(p.x, p.ldx, p.trans, j, l);
               }),
               cfg.ctx, cfg.stats);
}

void rank_update_sweep(const Level3Config& cfg, Uplo uplo, index_t n,
                       index_t k, double alpha, const RankUpdatePanel& left1,
                       PackedB& panel1, const RankUpdatePanel* left2,
                       PackedB* panel2, double* c, index_t ldc) {
  const index_t nbk = cfg.block;
  ScratchLease tmp(static_cast<std::size_t>(nbk * nbk), Scratch::kLevel3TmpA);
  const auto left_packer = [](const RankUpdatePanel& p, index_t row0,
                              double coeff) {
    return a_packer(
        [&p, row0](index_t i, index_t l) {
          return op_at(p.x, p.ldx, p.trans, row0 + i, l);
        },
        coeff);
  };
  for (index_t bj = 0; bj < n; bj += nbk) {
    const index_t nb = std::min(nbk, n - bj);
    // Diagonal block via the temporary (beta 0 overwrites stale contents).
    blocked_gemm_prepacked(nb, bj, bj + nb, 0, k, panel1, 0.0, tmp.data(), nb,
                           cfg.ctx, cfg.kernel, left_packer(left1, bj, 1.0),
                           cfg.stats);
    if (panel2 != nullptr)
      blocked_gemm_prepacked(nb, bj, bj + nb, 0, k, *panel2, 1.0, tmp.data(),
                             nb, cfg.ctx, cfg.kernel,
                             left_packer(*left2, bj, 1.0), cfg.stats);
    for (index_t jj = 0; jj < nb; ++jj) {
      const index_t ii0 = uplo == Uplo::kLower ? jj : 0;
      const index_t ii1 = uplo == Uplo::kLower ? nb : jj + 1;
      for (index_t ii = ii0; ii < ii1; ++ii)
        at(c, ldc, bj + ii, bj + jj) += alpha * tmp.data()[jj * nb + ii];
    }
    // Off-diagonal rows straight into C, consuming the same panel chunks.
    const index_t r0 = uplo == Uplo::kLower ? bj + nb : 0;
    const index_t rows = uplo == Uplo::kLower ? n - (bj + nb) : bj;
    if (rows <= 0) continue;
    blocked_gemm_prepacked(rows, bj, bj + nb, 0, k, panel1, 1.0,
                           &at(c, ldc, r0, bj), ldc, cfg.ctx, cfg.kernel,
                           left_packer(left1, r0, alpha), cfg.stats);
    if (panel2 != nullptr)
      blocked_gemm_prepacked(rows, bj, bj + nb, 0, k, *panel2, 1.0,
                             &at(c, ldc, r0, bj), ldc, cfg.ctx, cfg.kernel,
                             left_packer(*left2, r0, alpha), cfg.stats);
  }
}

}  // namespace

void level3_syrk(const Level3Config& cfg, Uplo uplo, Trans trans, index_t n,
                 index_t k, double alpha, const double* a, index_t lda,
                 double beta, double* c, index_t ldc) {
  if (n <= 0) return;
  beta_scale_triangle(uplo, n, beta, c, ldc);
  if (alpha == 0.0 || k <= 0) return;  // netlib: A unread

  const index_t kc = std::min(cfg.ctx.sizes.kc, k);
  ScratchLease storage(PackedB::storage_doubles(k, n, kc),
                       Scratch::kLevel3PackB);
  PackedB panel(k, n, kc, rank_panel_width(cfg), storage.data());
  const RankUpdatePanel opa{a, lda, trans};
  pack_rank_panel(panel, opa, cfg);
  rank_update_sweep(cfg, uplo, n, k, alpha, opa, panel, nullptr, nullptr, c,
                    ldc);
}

void level3_syr2k(const Level3Config& cfg, Uplo uplo, Trans trans, index_t n,
                  index_t k, double alpha, const double* a, index_t lda,
                  const double* b, index_t ldb, double beta, double* c,
                  index_t ldc) {
  if (n <= 0) return;
  beta_scale_triangle(uplo, n, beta, c, ldc);
  if (alpha == 0.0 || k <= 0) return;  // netlib: A and B unread

  const index_t kc = std::min(cfg.ctx.sizes.kc, k);
  ScratchLease storage_b(PackedB::storage_doubles(k, n, kc),
                         Scratch::kLevel3PackB);
  ScratchLease storage_a(PackedB::storage_doubles(k, n, kc),
                         Scratch::kLevel3PackB2);
  const index_t jw = rank_panel_width(cfg);
  PackedB panel_bt(k, n, kc, jw, storage_b.data());
  PackedB panel_at(k, n, kc, jw, storage_a.data());
  const RankUpdatePanel opa{a, lda, trans};
  const RankUpdatePanel opb{b, ldb, trans};
  // C = alpha*(op(A)*op(B)^T + op(B)*op(A)^T) + beta*C: op(A) rows pair
  // with the packed op(B)^T panel and vice versa; each panel is consumed
  // twice per column block (diagonal temporary + off-diagonal rows).
  pack_rank_panel(panel_bt, opb, cfg);
  pack_rank_panel(panel_at, opa, cfg);
  rank_update_sweep(cfg, uplo, n, k, alpha, opa, panel_bt, &opb, &panel_at, c,
                    ldc);
}

void level3_trmm(const Level3Config& cfg, Side side, Uplo uplo, Trans trans,
                 index_t m, index_t n, double alpha, const double* a,
                 index_t lda, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  if (alpha == 0.0) {  // netlib dtrmm: B := 0, A unread
    zero_matrix(m, n, b, ldb);
    return;
  }
  // B := alpha*op(tri(A))*B (kLeft) or alpha*B*op(tri(A)) (kRight) as ONE
  // prepacked GEMM over the whole masked triangle (tri_at zeroes everything
  // outside it), so no block decomposition of the triangle is needed.
  // kLeft packs B as the panel before the in-place overwrite starts and
  // masks the triangle in the A-packer. kRight packs the masked triangle as
  // the panel; B is both the left operand and the overwritten output across
  // k-chunks, so the A-packer reads a copy.
  const bool left = side == Side::kLeft;
  const index_t ka = left ? m : n;
  const index_t kc = std::min(cfg.ctx.sizes.kc, ka);
  ScratchLease storage(PackedB::storage_doubles(ka, n, kc),
                       Scratch::kLevel3PackB);
  ScratchLease copy(left ? 0 : static_cast<std::size_t>(m) *
                                   static_cast<std::size_t>(n),
                    Scratch::kLevel3TmpA);
  if (!left)
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) copy.data()[j * m + i] = at(b, ldb, i, j);
  PackedB pb(ka, n, kc, default_jr_width(n, cfg.ctx.jr_granule),
             storage.data());
  const auto tri = masked_triangle(a, lda, uplo, trans);
  pb.pack_rows(0, ka, left ? panel_writer(dense(b, ldb)) : panel_writer(tri),
               cfg.ctx, cfg.stats);
  blocked_gemm_prepacked(
      m, 0, n, 0, ka, pb, 0.0, b, ldb, cfg.ctx, cfg.kernel,
      left ? a_packer(tri, alpha) : a_packer(dense(copy.data(), m), alpha),
      cfg.stats);
}

void level3_trsm(const Level3Config& cfg, Side side, Uplo uplo, Trans trans,
                 index_t m, index_t n, double alpha, const double* a,
                 index_t lda, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  if (alpha == 0.0) {  // netlib dtrsm: B := 0, A unread
    zero_matrix(m, n, b, ldb);
    return;
  }
  if (alpha != 1.0)
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) at(b, ldb, i, j) *= alpha;

  const bool upper = effective_upper(uplo, trans);
  const index_t nbk = cfg.block;
  if (side == Side::kLeft) {
    // The solved-panel reuse case: each solved block of X packs once
    // (chunk size = the solve block, so chunks align with solve order) and
    // every later trailing update consumes those same chunks.
    ScratchLease storage(PackedB::storage_doubles(m, n, nbk),
                         Scratch::kLevel3PackB);
    const index_t jw = default_jr_width(n, cfg.ctx.jr_granule);
    PackedB solved(m, n, nbk, jw, storage.data());
    const PanelWriter solved_writer = panel_writer(dense(b, ldb));
    const index_t nblk = (m + nbk - 1) / nbk;
    for (index_t step = 0; step < nblk; ++step) {
      const index_t bi = (upper ? nblk - 1 - step : step) * nbk;
      const index_t mb = std::min(nbk, m - bi);
      const index_t s0 = upper ? bi + mb : 0;    // solved row range
      const index_t s1 = upper ? m : bi;
      if (s1 > s0) {
        // B_bi -= op(A)(bi, solved) * X(solved, :) from the packed chunks;
        // the coefficient region is strictly inside the effective
        // triangle, hence dense stored data.
        const auto coeffs = [=](index_t i, index_t l) {
          return op_at(a, lda, trans, bi + i, l);
        };
        blocked_gemm_prepacked(mb, 0, n, s0, s1, solved, 1.0,
                               &at(b, ldb, bi, 0), ldb, cfg.ctx, cfg.kernel,
                               a_packer(coeffs, -1.0), cfg.stats);
      }
      // Scalar in-block substitution (the paper's §5 TRSM caveat).
      for (index_t j = 0; j < n; ++j) {
        for (index_t s = 0; s < mb; ++s) {
          const index_t ii = upper ? mb - 1 - s : s;
          double acc = at(b, ldb, bi + ii, j);
          const index_t p0 = upper ? ii + 1 : 0;
          const index_t p1 = upper ? mb : ii;
          for (index_t p = p0; p < p1; ++p)
            acc -=
                op_at(a, lda, trans, bi + ii, bi + p) * at(b, ldb, bi + p, j);
          const double piv = op_at(a, lda, trans, bi + ii, bi + ii);
          check_pivot(piv);
          at(b, ldb, bi + ii, j) = acc / piv;
        }
      }
      // Publish the solved block into the shared panel for later updates.
      solved.pack_rows(bi, bi + mb, solved_writer, cfg.ctx, cfg.stats);
    }
  } else {
    // X*op(A) = B: the masked triangle packs once (A is read-only); the
    // left operand of every trailing update is the already-solved columns
    // of B, packed on demand.
    ScratchLease storage(PackedB::storage_doubles(n, n, nbk),
                         Scratch::kLevel3PackB);
    PackedB tri(n, n, nbk, nbk, storage.data());
    tri.pack_rows(0, n, panel_writer(masked_triangle(a, lda, uplo, trans)),
                  cfg.ctx, cfg.stats);
    const index_t nblk = (n + nbk - 1) / nbk;
    for (index_t step = 0; step < nblk; ++step) {
      const index_t bj = (upper ? step : nblk - 1 - step) * nbk;
      const index_t jb = std::min(nbk, n - bj);
      const index_t s0 = upper ? 0 : bj + jb;    // solved column range
      const index_t s1 = upper ? bj : n;
      if (s1 > s0) {
        blocked_gemm_prepacked(m, bj, bj + jb, s0, s1, tri, 1.0,
                               &at(b, ldb, 0, bj), ldb, cfg.ctx, cfg.kernel,
                               a_packer(dense(b, ldb), -1.0), cfg.stats);
      }
      for (index_t s = 0; s < jb; ++s) {
        const index_t jj = upper ? s : jb - 1 - s;
        const double piv = op_at(a, lda, trans, bj + jj, bj + jj);
        check_pivot(piv);
        const index_t p0 = upper ? 0 : jj + 1;
        const index_t p1 = upper ? jj : jb;
        for (index_t i = 0; i < m; ++i) {
          double acc = at(b, ldb, i, bj + jj);
          for (index_t p = p0; p < p1; ++p)
            acc -=
                at(b, ldb, i, bj + p) * op_at(a, lda, trans, bj + p, bj + jj);
          at(b, ldb, i, bj + jj) = acc / piv;
        }
      }
    }
  }
}

}  // namespace augem::blas
