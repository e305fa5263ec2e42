// RuntimeBlas serves the five Table-6 Level-3 routines through the JIT
// cache: the panel GEMMs run generated block kernels resolved per call
// shape, and every variant must agree with the scalar reference.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "blas/reference.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/rng.hpp"

namespace augem::runtime {
namespace {

using blas::at;
using blas::index_t;
using blas::Side;
using blas::Trans;
using blas::Uplo;

constexpr Side kSides[] = {Side::kLeft, Side::kRight};
constexpr Uplo kUplos[] = {Uplo::kLower, Uplo::kUpper};
constexpr Trans kTranses[] = {Trans::kNo, Trans::kYes};

/// Hermetic runtime: in-memory cache, untuned defaults (CI speed).
RuntimeConfig memory_config() {
  RuntimeConfig cfg;
  cfg.use_persistent = false;
  cfg.tune_on_miss = false;
  return cfg;
}

class RuntimeLevel3 : public ::testing::Test {
 protected:
  KernelRuntime rt_{memory_config()};
  std::unique_ptr<blas::Blas> lib_ = make_runtime_blas(rt_);
  Rng rng_{5150};
};

TEST_F(RuntimeLevel3, SymmAllVariants) {
  const index_t m = 67, n = 31;
  for (Side side : kSides)
    for (Uplo uplo : kUplos) {
      const index_t ka = side == Side::kLeft ? m : n;
      std::vector<double> a(static_cast<std::size_t>(ka * ka)),
          b(static_cast<std::size_t>(m * n)), c(static_cast<std::size_t>(m * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> want = c;
      lib_->symm(side, uplo, m, n, 1.5, a.data(), ka, b.data(), m, -0.25,
                 c.data(), m);
      blas::ref::symm(side, uplo, m, n, 1.5, a.data(), ka, b.data(), m, -0.25,
                      want.data(), m);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], want[i], 1e-10)
            << i << " side=" << static_cast<int>(side)
            << " uplo=" << static_cast<int>(uplo);
    }
}

TEST_F(RuntimeLevel3, SyrkAndSyr2kAllVariants) {
  const index_t n = 59, k = 21;
  for (Uplo uplo : kUplos)
    for (Trans trans : kTranses) {
      const index_t ld = trans == Trans::kNo ? n : k;
      std::vector<double> a(static_cast<std::size_t>(n * k)),
          b(static_cast<std::size_t>(n * k)), c(static_cast<std::size_t>(n * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> want = c;
      lib_->syrk(uplo, trans, n, k, 1.25, a.data(), ld, 0.5, c.data(), n);
      blas::ref::syrk(uplo, trans, n, k, 1.25, a.data(), ld, 0.5, want.data(),
                      n);
      lib_->syr2k(uplo, trans, n, k, -0.75, a.data(), ld, b.data(), ld, 1.0,
                  c.data(), n);
      blas::ref::syr2k(uplo, trans, n, k, -0.75, a.data(), ld, b.data(), ld,
                       1.0, want.data(), n);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], want[i], 1e-9)
            << i << " uplo=" << static_cast<int>(uplo)
            << " trans=" << static_cast<int>(trans);
    }
}

TEST_F(RuntimeLevel3, TrmmRoundTripsTrsmAllVariants) {
  const index_t m = 67, n = 23;
  for (Side side : kSides)
    for (Uplo uplo : kUplos)
      for (Trans trans : kTranses) {
        const index_t ka = side == Side::kLeft ? m : n;
        std::vector<double> a(static_cast<std::size_t>(ka * ka)),
            b(static_cast<std::size_t>(m * n));
        rng_.fill(a);
        for (index_t i = 0; i < ka; ++i)
          at(a.data(), ka, i, i) = 4.0 + i % 3;
        rng_.fill(b);
        const std::vector<double> orig = b;
        lib_->trmm(side, uplo, trans, m, n, 2.0, a.data(), ka, b.data(), m);
        lib_->trsm(side, uplo, trans, m, n, 0.5, a.data(), ka, b.data(), m);
        for (std::size_t i = 0; i < b.size(); ++i)
          ASSERT_NEAR(b[i], orig[i], 1e-8)
              << i << " side=" << static_cast<int>(side)
              << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
      }
}

TEST_F(RuntimeLevel3, PanelGemmsResolveShapeMatchedKernels) {
  // The Level-3 panels go through the same shape-classified GEMM entries as
  // plain gemm calls: a small SYRK must populate the small-regime key, not
  // the cache-blocked one.
  const index_t n = 12, k = 8;
  std::vector<double> a(static_cast<std::size_t>(n * k)),
      c(static_cast<std::size_t>(n * n), 0.0);
  rng_.fill(a);
  lib_->syrk(Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n, 0.0, c.data(),
             n);
  const auto small = rt_.resolve(frontend::KernelKind::kGemm,
                                 classify_gemm_shape(n, n, k));
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->key.shape, classify_gemm_shape(n, n, k));
  // Served from the cache the syrk call populated — no extra build.
  const auto builds = rt_.counters().builds;
  (void)rt_.resolve(frontend::KernelKind::kGemm, classify_gemm_shape(n, n, k));
  EXPECT_EQ(rt_.counters().builds, builds);
}

TEST_F(RuntimeLevel3, DegenerateAndAlphaZeroShortCircuitTheRuntime) {
  // No kernel resolution may happen for calls that never touch a panel.
  const auto builds = rt_.counters().builds;
  lib_->symm(Side::kLeft, Uplo::kLower, 0, 5, 1.0, nullptr, 1, nullptr, 1,
             2.0, nullptr, 1);
  lib_->trmm(Side::kRight, Uplo::kUpper, Trans::kYes, 4, -1, 1.0, nullptr, 1,
             nullptr, 1);
  std::vector<double> c(9, 1.0);
  lib_->syrk(Uplo::kUpper, Trans::kNo, 3, 4, 0.0, nullptr, 1, 0.5, c.data(),
             3);
  EXPECT_EQ(rt_.counters().builds, builds);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i <= j; ++i) EXPECT_EQ(at(c.data(), 3, i, j), 0.5);
  // The batch fast path short-circuits alpha == 0 the same way: operands
  // unread (no 0 * Inf = NaN), no kernel resolved, only the epilogue runs.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> a(4, inf), bmat(4, inf), cb(4, 2.0);
  lib_->gemm_batch_strided(2, 2, 2, 0.0, a.data(), 2, 4, bmat.data(), 2, 4,
                           0.5, cb.data(), 2, 4, 1, nullptr, 0, false);
  EXPECT_EQ(rt_.counters().builds, builds);
  for (double v : cb) EXPECT_EQ(v, 1.0);
}

TEST_F(RuntimeLevel3, EvictionDuringACallNeverUnmapsItsKernel) {
  // A one-entry code cache and a second thread resolving other kernel keys
  // for as long as a long SYRK runs: the SYRK's GEMM kernel is evicted
  // while its panels still call it. The kernel must stay mapped, because
  // the Level-3 call's plan — not the cache — owns it. The thread cycles
  // through every other (kind, shape class) key and 64 small-GEMM keys
  // until the call returns, so the eviction relies neither on one
  // well-timed resolve nor on how the cache groups its keys.
  RuntimeConfig cfg = memory_config();
  cfg.code_cache_capacity = 1;
  KernelRuntime rt(cfg);
  const auto lib = make_runtime_blas(rt);
  const index_t n = 1500, k = 4000;
  const ShapeClass gemm_shape = classify_gemm_shape(n, n, k);
  std::vector<std::pair<frontend::KernelKind, ShapeClass>> others;
  for (auto kind : {frontend::KernelKind::kAxpy, frontend::KernelKind::kDot,
                    frontend::KernelKind::kScal, frontend::KernelKind::kGemv,
                    frontend::KernelKind::kGemm})
    for (auto shape :
         {ShapeClass::kSmall, ShapeClass::kSkinny, ShapeClass::kLarge})
      if (kind != frontend::KernelKind::kGemm || shape != gemm_shape)
        others.emplace_back(kind, shape);
  const auto resolve_other = [&](std::size_t i) {
    i %= others.size() + 64;
    if (i < others.size()) {
      (void)rt.resolve(others[i].first, others[i].second);
      return;
    }
    i -= others.size();
    frontend::SmallGemmSpec spec;
    spec.m = static_cast<int>(1 + i % 4);
    spec.n = static_cast<int>(1 + i / 4 % 4);
    spec.k = static_cast<int>(1 + i / 16);
    (void)rt.resolve_small(spec);
  };

  std::vector<double> a(static_cast<std::size_t>(n * k)),
      c(static_cast<std::size_t>(n * n));
  rng_.fill(a);
  rng_.fill(c);
  const std::vector<double> c0 = c;
  (void)rt.resolve(frontend::KernelKind::kGemm, gemm_shape);  // warm

  std::jthread evict([&](std::stop_token stop) {
    for (std::size_t i = 0; !stop.stop_requested(); ++i) resolve_other(i);
  });
  lib->syrk(Uplo::kLower, Trans::kNo, n, k, 0.5, a.data(), n, 2.0, c.data(),
            n);
  evict.request_stop();
  evict.join();

  EXPECT_GT(rt.code_stats().evictions, 0u);
  // Spot-check the stored triangle against the definition.
  for (index_t j = 0; j < n; j += 97)
    for (index_t i = j; i < n; i += 89) {
      double dot = 0.0;
      for (index_t l = 0; l < k; ++l)
        dot += at(a.data(), n, i, l) * at(a.data(), n, j, l);
      ASSERT_NEAR(at(c.data(), n, i, j),
                  0.5 * dot + 2.0 * at(c0.data(), n, i, j),
                  1e-10 * static_cast<double>(k))
          << i << "," << j;
    }
}

}  // namespace
}  // namespace augem::runtime
