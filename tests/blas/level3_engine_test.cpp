// The Level-3 engine every Blas runs (blas/level3.hpp): every routine ×
// variant against the scalar reference, bit-identity between the serial and
// threaded contexts (the decomposition is fixed at pack time), and the
// measured packed-panel reuse the engine exists for — SYRK's diagonal and
// off-diagonal updates must consume the same chunks, TRSM's trailing
// updates must re-read every solved block without repacking it.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

constexpr Side kSides[] = {Side::kLeft, Side::kRight};
constexpr Uplo kUplos[] = {Uplo::kLower, Uplo::kUpper};
constexpr Trans kTranses[] = {Trans::kNo, Trans::kYes};

void naive_block(index_t mc, index_t nc, index_t kc, const double* pa,
                 const double* pb, double* c, index_t ldc) {
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
}

// Small blocks so modest test sizes cross every mc/kc/jw/NB boundary.
BlockSizes tiny_sizes() {
  BlockSizes s;
  s.mc = 8;
  s.nc = 64;
  s.kc = 6;
  return s;
}

class Level3Engine : public ::testing::TestWithParam<bool> {
 protected:
  Level3Config config(Level3Stats* stats = nullptr) const {
    Level3Config cfg;
    cfg.ctx = GetParam() ? threaded_gemm_context(tiny_sizes())
                         : serial_gemm_context(tiny_sizes());
    cfg.kernel = naive_block;
    cfg.block = 16;
    cfg.stats = stats;
    return cfg;
  }
  Rng rng_{77};
};

TEST_P(Level3Engine, SymmAllVariants) {
  const index_t m = 53, n = 29;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      const index_t ka = side == Side::kLeft ? m : n;
      std::vector<double> a(static_cast<std::size_t>(ka * ka)),
          b(static_cast<std::size_t>(m * n)), c(static_cast<std::size_t>(m * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      level3_symm(config(), side, uplo, m, n, 1.25, a.data(), ka, b.data(), m,
                  -0.5, c.data(), m);
      ref::symm(side, uplo, m, n, 1.25, a.data(), ka, b.data(), m, -0.5,
                c_ref.data(), m);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], c_ref[i], 1e-10)
            << i << " side=" << static_cast<int>(side)
            << " uplo=" << static_cast<int>(uplo);
    }
  }
}

TEST_P(Level3Engine, SyrkAllVariantsOnlyStoredTriangleTouched) {
  const index_t n = 45, k = 19;
  for (Uplo uplo : kUplos) {
    for (Trans trans : kTranses) {
      const index_t lda = trans == Trans::kNo ? n : k;
      std::vector<double> a(static_cast<std::size_t>(n * k)),
          c(static_cast<std::size_t>(n * n));
      rng_.fill(a);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      level3_syrk(config(), uplo, trans, n, k, 2.0, a.data(), lda, 0.75,
                  c.data(), n);
      ref::syrk(uplo, trans, n, k, 2.0, a.data(), lda, 0.75, c_ref.data(), n);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) {
          const bool stored = uplo == Uplo::kLower ? i >= j : i <= j;
          if (stored)
            ASSERT_NEAR(at(c.data(), n, i, j), at(c_ref.data(), n, i, j),
                        1e-10)
                << i << "," << j;
          else  // opposite triangle is out of the routine's footprint
            ASSERT_EQ(at(c.data(), n, i, j), at(c_ref.data(), n, i, j))
                << i << "," << j;
        }
    }
  }
}

TEST_P(Level3Engine, Syr2kAllVariants) {
  const index_t n = 40, k = 23;
  for (Uplo uplo : kUplos) {
    for (Trans trans : kTranses) {
      const index_t ld = trans == Trans::kNo ? n : k;
      std::vector<double> a(static_cast<std::size_t>(n * k)),
          b(static_cast<std::size_t>(n * k)), c(static_cast<std::size_t>(n * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      level3_syr2k(config(), uplo, trans, n, k, 1.5, a.data(), ld, b.data(),
                   ld, 0.25, c.data(), n);
      ref::syr2k(uplo, trans, n, k, 1.5, a.data(), ld, b.data(), ld, 0.25,
                 c_ref.data(), n);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], c_ref[i], 1e-10) << i;
    }
  }
}

TEST_P(Level3Engine, TrmmAllVariants) {
  const index_t m = 53, n = 26;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      for (Trans trans : kTranses) {
        const index_t ka = side == Side::kLeft ? m : n;
        std::vector<double> a(static_cast<std::size_t>(ka * ka)),
            b(static_cast<std::size_t>(m * n));
        rng_.fill(a);
        rng_.fill(b);
        std::vector<double> b_ref = b;
        level3_trmm(config(), side, uplo, trans, m, n, 1.25, a.data(), ka,
                    b.data(), m);
        ref::trmm(side, uplo, trans, m, n, 1.25, a.data(), ka, b_ref.data(),
                  m);
        for (std::size_t i = 0; i < b.size(); ++i)
          ASSERT_NEAR(b[i], b_ref[i], 1e-9)
              << i << " side=" << static_cast<int>(side)
              << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
      }
    }
  }
}

TEST_P(Level3Engine, TrsmAllVariants) {
  const index_t m = 53, n = 26;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      for (Trans trans : kTranses) {
        const index_t ka = side == Side::kLeft ? m : n;
        std::vector<double> a(static_cast<std::size_t>(ka * ka)),
            b(static_cast<std::size_t>(m * n));
        rng_.fill(a);
        for (index_t i = 0; i < ka; ++i)
          at(a.data(), ka, i, i) = 3.0 + i % 5;
        rng_.fill(b);
        std::vector<double> b_ref = b;
        level3_trsm(config(), side, uplo, trans, m, n, 0.75, a.data(), ka,
                    b.data(), m);
        ref::trsm(side, uplo, trans, m, n, 0.75, a.data(), ka, b_ref.data(),
                  m);
        for (std::size_t i = 0; i < b.size(); ++i)
          ASSERT_NEAR(b[i], b_ref[i], 1e-8)
              << i << " side=" << static_cast<int>(side)
              << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
      }
    }
  }
}

TEST_P(Level3Engine, TrsmRejectsNonFinitePivot) {
  const index_t m = 20, n = 7;
  std::vector<double> a(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n));
  rng_.fill(a);
  for (index_t i = 0; i < m; ++i) at(a.data(), m, i, i) = 2.0;
  at(a.data(), m, 17, 17) = std::numeric_limits<double>::quiet_NaN();
  rng_.fill(b);
  try {
    level3_trsm(config(), Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0,
                a.data(), m, b.data(), m);
    FAIL() << "NaN pivot must throw";
  } catch (const augem::Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite or zero pivot"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, Level3Engine,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "threaded" : "serial";
                         });

// ---- serial ≡ threaded bit-identity ---------------------------------------

TEST(Level3EngineIdentity, SerialAndThreadedAreBitIdentical) {
  Rng rng(91);
  const index_t m = 61, n = 33;
  std::vector<double> sa(static_cast<std::size_t>(m * m)),
      b0(static_cast<std::size_t>(m * n)), c0(static_cast<std::size_t>(m * m)),
      d0(static_cast<std::size_t>(n * n));
  rng.fill(sa);
  for (index_t i = 0; i < m; ++i) at(sa.data(), m, i, i) = 4.0 + i % 3;
  rng.fill(b0);
  rng.fill(c0);
  rng.fill(d0);

  Level3Config serial;
  serial.ctx = serial_gemm_context(tiny_sizes());
  serial.kernel = naive_block;
  serial.block = 16;
  Level3Config threaded = serial;
  threaded.ctx = threaded_gemm_context(tiny_sizes());

  const auto run_all = [&](const Level3Config& cfg, std::vector<double>& c,
                           std::vector<double>& b, std::vector<double>& d) {
    level3_symm(cfg, Side::kLeft, Uplo::kUpper, m, n, 1.5, sa.data(), m,
                b.data(), m, 0.5, c.data(), m);
    level3_syrk(cfg, Uplo::kLower, Trans::kNo, m, n, 1.25, b.data(), m, 0.5,
                c.data(), m);
    level3_syr2k(cfg, Uplo::kUpper, Trans::kYes, n, m, 0.75, b.data(), m,
                 c.data(), m, 1.0, d.data(), n);
    level3_trmm(cfg, Side::kLeft, Uplo::kLower, Trans::kYes, m, n, 1.25,
                sa.data(), m, b.data(), m);
    level3_trsm(cfg, Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0,
                sa.data(), m, b.data(), m);
  };

  std::vector<double> cs = c0, bs = b0, ds = d0, ct = c0, bt = b0, dt = d0;
  run_all(serial, cs, bs, ds);
  run_all(threaded, ct, bt, dt);
  ASSERT_EQ(0, std::memcmp(cs.data(), ct.data(), cs.size() * sizeof(double)));
  ASSERT_EQ(0, std::memcmp(bs.data(), bt.data(), bs.size() * sizeof(double)));
  ASSERT_EQ(0, std::memcmp(ds.data(), dt.data(), ds.size() * sizeof(double)));
}

// ---- measured packed-panel reuse ------------------------------------------

TEST(Level3EngineStats, SyrkSharesPanelBetweenDiagonalAndOffDiagonal) {
  Rng rng(17);
  const index_t n = 48, k = 20;  // three 16-wide column blocks
  std::vector<double> a(static_cast<std::size_t>(n * k)),
      c(static_cast<std::size_t>(n * n), 0.0);
  rng.fill(a);
  Level3Stats stats;
  Level3Config cfg;
  cfg.ctx = serial_gemm_context(tiny_sizes());
  cfg.kernel = naive_block;
  cfg.block = 16;
  cfg.stats = &stats;
  level3_syrk(cfg, Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n, 0.0,
              c.data(), n);
  EXPECT_GT(stats.panels_packed, 0);
  // Each column block's chunks feed its diagonal temporary AND the
  // off-diagonal rows below it — strictly more consumptions than packs.
  EXPECT_GT(stats.panel_reuses, 0);
}

TEST(Level3EngineStats, TrsmTrailingUpdatesReuseSolvedPanels) {
  Rng rng(18);
  const index_t m = 48, n = 24;  // three 16-row solve blocks
  std::vector<double> a(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n));
  rng.fill(a);
  for (index_t i = 0; i < m; ++i) at(a.data(), m, i, i) = 3.0;
  rng.fill(b);
  Level3Stats stats;
  Level3Config cfg;
  cfg.ctx = serial_gemm_context(tiny_sizes());
  cfg.kernel = naive_block;
  cfg.block = 16;
  cfg.stats = &stats;
  level3_trsm(cfg, Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0, a.data(),
              m, b.data(), m);
  EXPECT_GT(stats.panels_packed, 0);
  // Block 0's solved chunks are consumed by the trailing updates of blocks
  // 1 and 2 (and across multiple mc sub-blocks) without being repacked.
  EXPECT_GT(stats.panel_reuses, 0);
}

TEST(Level3EngineStats, SymmPacksEachPanelChunkExactlyOnce) {
  Rng rng(19);
  const index_t m = 48, n = 24;
  std::vector<double> a(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n)), c(static_cast<std::size_t>(m * n));
  rng.fill(a);
  rng.fill(b);
  rng.fill(c);
  // The threaded context packs every chunk in per-participant row slices;
  // the count stays one per chunk.
  for (const GemmContext& ctx : {serial_gemm_context(tiny_sizes()),
                                 threaded_gemm_context(tiny_sizes())}) {
    SCOPED_TRACE(ctx.threads);
    Level3Stats stats;
    Level3Config cfg;
    cfg.ctx = ctx;
    cfg.kernel = naive_block;
    cfg.block = 16;
    cfg.stats = &stats;
    level3_symm(cfg, Side::kLeft, Uplo::kLower, m, n, 1.0, a.data(), m,
                b.data(), m, 0.0, c.data(), m);
    // B is k×n = 48×24 at kc=6 → 8 k-chunks; every chunk packs exactly
    // once and is consumed by all six mc row blocks (m/mc = 48/8).
    const std::int64_t jchunks =
        (n + default_jr_width(n, cfg.ctx.jr_granule) - 1) /
        default_jr_width(n, cfg.ctx.jr_granule);
    EXPECT_EQ(stats.panels_packed, 8 * jchunks);
    EXPECT_EQ(stats.panel_reuses, 8 * jchunks * (48 / 8 - 1));
  }
}

}  // namespace
}  // namespace augem::blas
