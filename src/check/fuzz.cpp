#include "check/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "asmgen/codegen.hpp"
#include "augem/augem.hpp"
#include "augem/augem_blas.hpp"
#include "blas/driver.hpp"
#include "blas/level3.hpp"
#include "blas/libraries.hpp"
#include "blas/reference.hpp"
#include "check/ulp.hpp"
#include "frontend/kernels.hpp"
#include "ir/interp.hpp"
#include "jit/jit.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/arch.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"

namespace augem::check {

namespace {

using blas::index_t;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using frontend::BLayout;
using frontend::KernelKind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- deterministic seeding ------------------------------------------------

/// splitmix64 finalizer: one well-mixed sub-seed per (master seed, index),
/// so any single case reproduces without replaying the ones before it.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- guarded buffers ------------------------------------------------------

/// Guard elements appended past every payload, holding a fixed bit pattern.
/// A path that writes past the end of its output (or any input) flips them.
constexpr std::size_t kGuardLen = 8;

double guard_value() {
  const std::uint64_t bits = 0xdeadbeefcafef00dull;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

struct Buf {
  std::vector<double> v;  ///< payload followed by kGuardLen guard elements
  std::size_t n;          ///< payload length

  Buf(std::size_t n_, Rng& rng) : v(n_ + kGuardLen), n(n_) {
    rng.fill(std::span<double>(v.data(), n));
    std::fill(v.begin() + static_cast<std::ptrdiff_t>(n), v.end(),
              guard_value());
  }

  double* data() { return v.data(); }
  const double* cdata() const { return v.data(); }

  bool guard_ok() const {
    const double g = guard_value();
    for (std::size_t i = n; i < v.size(); ++i)
      if (std::memcmp(&v[i], &g, sizeof(double)) != 0) return false;
    return true;
  }

  std::vector<double> payload() const {
    return std::vector<double>(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(n));
  }
};

// ---- special-value poisoning ----------------------------------------------

enum class Poison { kNone, kNaN, kInf, kMix };

const char* poison_name(Poison p) {
  switch (p) {
    case Poison::kNone: return "none";
    case Poison::kNaN: return "nan";
    case Poison::kInf: return "inf";
    case Poison::kMix: return "mix";
  }
  return "?";
}

void poison(Buf& b, Rng& rng, Poison p) {
  if (p == Poison::kNone || b.n == 0) return;
  const int count = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < count; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(b.n) - 1));
    switch (p) {
      case Poison::kNone: break;
      case Poison::kNaN: b.v[pos] = kNaN; break;
      case Poison::kInf: b.v[pos] = rng.uniform_int(0, 1) ? kInf : -kInf; break;
      case Poison::kMix: {
        const double menu[4] = {kNaN, kInf, -kInf, 0.0};
        b.v[pos] = menu[rng.uniform_int(0, 3)];
        break;
      }
    }
  }
}

// ---- kernel configurations ------------------------------------------------

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&menu)[N]) {
  return menu[rng.uniform_int(0, static_cast<std::int64_t>(N) - 1)];
}

constexpr std::int64_t kSlackMenu[3] = {0, 1, 5};
constexpr std::int64_t kSmallSlackMenu[3] = {0, 1, 3};

KernelConfig draw_config(Rng& rng) {
  KernelConfig c;
  constexpr KernelKind kOps[5] = {KernelKind::kGemm, KernelKind::kGemv,
                                  KernelKind::kAxpy, KernelKind::kDot,
                                  KernelKind::kScal};
  c.kind = pick(rng, kOps);
  constexpr Isa kIsas[4] = {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4};
  c.config.isa = pick(rng, kIsas);
  constexpr opt::VecStrategy kStrategies[3] = {opt::VecStrategy::kVdup,
                                               opt::VecStrategy::kShuf,
                                               opt::VecStrategy::kScalar};
  c.config.strategy = pick(rng, kStrategies);
  if (c.kind == KernelKind::kGemm)
    c.layout =
        rng.uniform_int(0, 1) ? BLayout::kColMajor : BLayout::kRowPanel;
  constexpr int kTiles[4] = {1, 2, 4, 8};
  c.params.mr = pick(rng, kTiles);
  c.params.nr = pick(rng, kTiles);
  constexpr int kKus[3] = {1, 2, 4};
  c.params.ku = pick(rng, kKus);
  constexpr int kUnrolls[5] = {1, 2, 4, 8, 16};
  c.params.unroll = pick(rng, kUnrolls);
  c.params.prefetch.enabled = rng.uniform_int(0, 1) != 0;
  constexpr int kDistances[4] = {4, 8, 16, 32};
  c.params.prefetch.distance = pick(rng, kDistances);
  return c;
}

// ---- kernel-contract oracles ----------------------------------------------
// Plain-C mirrors of the generated kernels' contracts (no alpha/beta special
// cases — those are BLAS-level semantics and live in blas::ref, which is the
// oracle for the driver/wrapper checks below). Kept local so src/ never
// depends on test headers.

void oracle_gemm_block(index_t mc, index_t nc, index_t kc, const double* a,
                       const double* b, double* c, index_t ldc,
                       BLayout layout) {
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < mc; ++i) {
      double res = 0.0;
      for (index_t l = 0; l < kc; ++l) {
        const double bv =
            layout == BLayout::kRowPanel ? b[l * nc + j] : b[j * kc + l];
        res += a[l * mc + i] * bv;
      }
      c[j * ldc + i] += res;
    }
}

void oracle_gemv(index_t m, index_t n, const double* a, index_t lda,
                 const double* x, double* y) {
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < m; ++j) y[j] += a[i * lda + j] * x[i];
}

void oracle_axpy(index_t n, double alpha, const double* x, double* y) {
  for (index_t i = 0; i < n; ++i) y[i] += x[i] * alpha;
}

double oracle_dot(index_t n, const double* x, const double* y) {
  double res = 0.0;
  for (index_t i = 0; i < n; ++i) res += x[i] * y[i];
  return res;
}

void oracle_scal(index_t n, double alpha, double* x) {
  for (index_t i = 0; i < n; ++i) x[i] = x[i] * alpha;
}

// ---- comparison -----------------------------------------------------------

std::string fmt_mismatch(const char* what, std::size_t i, double got,
                         double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << "[" << i << "]: got " << got << ", want " << want
     << " (ulp distance " << ulp_distance(got, want) << ")";
  return os.str();
}

std::optional<std::string> compare_out(const char* what, const double* got,
                                       const double* want, std::size_t count,
                                       const CompareSpec& spec) {
  for (std::size_t i = 0; i < count; ++i)
    if (!spec.close(got[i], want[i]))
      return fmt_mismatch(what, i, got[i], want[i]);
  return std::nullopt;
}

std::optional<std::string> check_untouched(const char* what, const Buf& buf,
                                           const std::vector<double>& before) {
  if (!buf.guard_ok()) return std::string(what) + ": guard region overwritten";
  // Zero-extent buffers have nothing to compare (and data() may be null,
  // which memcmp's nonnull contract forbids even for length 0).
  if (!before.empty() &&
      std::memcmp(buf.v.data(), before.data(),
                  before.size() * sizeof(double)) != 0)
    return std::string(what) + ": read-only input was modified";
  return std::nullopt;
}

// ---- problem instances ----------------------------------------------------

/// A dimension near the "interesting" boundaries of `unit` (an unroll or
/// tile factor): 0, 1, exact multiples, multiples ± 1, and small primes.
std::int64_t dim_near(Rng& rng, std::int64_t unit) {
  unit = std::max<std::int64_t>(1, unit);
  const std::int64_t q = rng.uniform_int(1, 3);
  switch (rng.uniform_int(0, 7)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return unit * q;
    case 3: return std::max<std::int64_t>(0, unit * q - 1);
    case 4: return unit * q + 1;
    case 5: {
      constexpr std::int64_t kPrimes[6] = {2, 3, 5, 7, 13, 31};
      return pick(rng, kPrimes);
    }
    default: return rng.uniform_int(1, 4 * unit);
  }
}

double draw_alpha(Rng& rng, bool allow_nonfinite) {
  const std::int64_t roll = rng.uniform_int(0, allow_nonfinite ? 7 : 5);
  switch (roll) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return -1.0;
    case 3: return 0.5;
    case 6: return kNaN;
    case 7: return rng.uniform_int(0, 1) ? kInf : -kInf;
    default: return rng.uniform(-2.0, 2.0);
  }
}

/// Kernel-contract-level instance. Meaning of d[] per op:
///   GEMM: d0=mc (multiple of mr), d1=nc (multiple of nr), d2=kc, d3=ldc slack
///   GEMV: d0=m, d1=n, d2=lda slack
///   AXPY/DOT/SCAL: d0=n
struct KInstance {
  std::int64_t d[4] = {0, 0, 0, 0};
  double alpha = 1.0;  ///< axpy/scal only (kernel ABIs without alpha ignore it)
  Poison p = Poison::kNone;

  std::string to_string(KernelKind op) const {
    std::ostringstream os;
    os.precision(17);
    switch (op) {
      case KernelKind::kGemm:
        os << "mc=" << d[0] << " nc=" << d[1] << " kc=" << d[2]
           << " ldc=" << d[0] + d[3];
        break;
      case KernelKind::kGemv:
        os << "m=" << d[0] << " n=" << d[1]
           << " lda=" << std::max<std::int64_t>(1, d[0] + d[2]);
        break;
      default:
        os << "n=" << d[0] << " alpha=" << alpha;
        break;
    }
    os << " poison=" << poison_name(p);
    return os.str();
  }
};

KInstance draw_kinstance(Rng& rng, const KernelConfig& cfg) {
  KInstance in;
  switch (cfg.kind) {
    case KernelKind::kGemm:
      in.d[0] = cfg.params.mr * rng.uniform_int(1, 3);
      in.d[1] = cfg.params.nr * rng.uniform_int(1, 3);
      in.d[2] = dim_near(rng, cfg.params.ku);
      in.d[3] = pick(rng, kSlackMenu);
      break;
    case KernelKind::kGemv:
      in.d[0] = dim_near(rng, cfg.params.unroll);
      in.d[1] = dim_near(rng, 4);
      in.d[2] = pick(rng, kSlackMenu);
      break;
    default:
      in.d[0] = dim_near(rng, cfg.params.unroll);
      in.alpha = draw_alpha(rng, /*allow_nonfinite=*/true);
      break;
  }
  constexpr Poison kPoisons[8] = {Poison::kNone, Poison::kNone, Poison::kNone,
                                  Poison::kNone, Poison::kNone, Poison::kNaN,
                                  Poison::kInf,  Poison::kMix};
  in.p = pick(rng, kPoisons);
  return in;
}

// ---- per-case runtime -----------------------------------------------------

struct CaseRt {
  std::uint64_t case_seed = 0;
  KernelConfig cfg;
  /// Set once generation succeeds (GeneratedKernel has no default state).
  std::optional<asmgen::GeneratedKernel> g;
  std::unique_ptr<jit::CompiledModule> mod;  ///< null when the JIT path is off
};

enum class Path { kInterp, kVm, kJit };

const char* path_name(Path p) {
  switch (p) {
    case Path::kInterp: return "interp";
    case Path::kVm: return "vm";
    case Path::kJit: return "jit";
  }
  return "?";
}

/// Runs one kernel-level path on one instance and cross-checks it against
/// the kernel-contract oracle. Data is a pure function of (case seed,
/// instance), so shrinking re-runs stay deterministic.
std::optional<std::string> check_kernel(CaseRt& rt, Path path,
                                        const KInstance& in) {
  Rng rng(mix(rt.case_seed, 0xda7a));
  const asmgen::GeneratedKernel& g = *rt.g;

  switch (rt.cfg.kind) {
    case KernelKind::kGemm: {
      const index_t mc = in.d[0], nc = in.d[1], kc = in.d[2];
      const index_t ldc = mc + in.d[3];
      Buf a(static_cast<std::size_t>(mc * kc), rng);
      Buf b(static_cast<std::size_t>(nc * kc), rng);
      Buf c(static_cast<std::size_t>(nc * ldc), rng);
      poison(a, rng, in.p);
      poison(b, rng, in.p);
      poison(c, rng, in.p);
      const std::vector<double> a0 = a.payload(), b0 = b.payload();
      std::vector<double> want = c.payload();
      oracle_gemm_block(mc, nc, kc, a.cdata(), b.cdata(), want.data(), ldc,
                        rt.cfg.layout);
      switch (path) {
        case Path::kInterp: {
          ir::Env env;
          env["mc"] = mc;
          env["nc"] = nc;
          env["kc"] = kc;
          env["ldc"] = ldc;
          env["A"] = a.data();
          env["B"] = b.data();
          env["C"] = c.data();
          ir::interpret(g.source, std::move(env));
          break;
        }
        case Path::kVm: {
          vm::Machine m(g.insts);
          m.call({mc, nc, kc, a.cdata(), b.cdata(), c.data(), ldc});
          break;
        }
        case Path::kJit: {
          auto* fn = rt.mod->fn<void(long, long, long, const double*,
                                     const double*, double*, long)>(g.name);
          fn(mc, nc, kc, a.cdata(), b.cdata(), c.data(), ldc);
          break;
        }
      }
      CompareSpec spec{.depth = kc + 1, .scale = 1.0};
      if (auto m = compare_out("C", c.cdata(), want.data(), c.n, spec))
        return m;
      if (!c.guard_ok()) return std::string("C: guard region overwritten");
      if (auto m = check_untouched("A", a, a0)) return m;
      if (auto m = check_untouched("B", b, b0)) return m;
      return std::nullopt;
    }

    case KernelKind::kGemv: {
      const index_t m = in.d[0], n = in.d[1];
      const index_t lda = std::max<index_t>(1, m + in.d[2]);
      Buf a(static_cast<std::size_t>(n * lda), rng);
      Buf x(static_cast<std::size_t>(n), rng);
      Buf y(static_cast<std::size_t>(m), rng);
      poison(a, rng, in.p);
      poison(x, rng, in.p);
      poison(y, rng, in.p);
      const std::vector<double> a0 = a.payload(), x0 = x.payload();
      std::vector<double> want = y.payload();
      oracle_gemv(m, n, a.cdata(), lda, x.cdata(), want.data());
      switch (path) {
        case Path::kInterp: {
          ir::Env env;
          env["m"] = m;
          env["n"] = n;
          env["A"] = a.data();
          env["lda"] = lda;
          env["x"] = x.data();
          env["y"] = y.data();
          ir::interpret(g.source, std::move(env));
          break;
        }
        case Path::kVm: {
          vm::Machine machine(g.insts);
          machine.call({m, n, a.cdata(), lda, x.cdata(), y.data()});
          break;
        }
        case Path::kJit: {
          auto* fn = rt.mod->fn<void(long, long, const double*, long,
                                     const double*, double*)>(g.name);
          fn(m, n, a.cdata(), lda, x.cdata(), y.data());
          break;
        }
      }
      CompareSpec spec{.depth = n + 1, .scale = 1.0};
      if (auto mm = compare_out("y", y.cdata(), want.data(), y.n, spec))
        return mm;
      if (!y.guard_ok()) return std::string("y: guard region overwritten");
      if (auto mm = check_untouched("A", a, a0)) return mm;
      if (auto mm = check_untouched("x", x, x0)) return mm;
      return std::nullopt;
    }

    case KernelKind::kAxpy:
    case KernelKind::kDot:
    case KernelKind::kScal: {
      const index_t n = in.d[0];
      Buf x(static_cast<std::size_t>(n), rng);
      Buf y(static_cast<std::size_t>(n), rng);
      poison(x, rng, in.p);
      poison(y, rng, in.p);
      const std::vector<double> x0 = x.payload(), y0 = y.payload();

      if (rt.cfg.kind == KernelKind::kDot) {
        const double want = oracle_dot(n, x.cdata(), y.cdata());
        double got = 0.0;
        switch (path) {
          case Path::kInterp: {
            ir::Env env;
            env["n"] = n;
            env["x"] = x.data();
            env["y"] = y.data();
            got = ir::interpret(g.source, std::move(env));
            break;
          }
          case Path::kVm: {
            vm::Machine machine(g.insts);
            got = machine.call({n, x.cdata(), y.cdata()});
            break;
          }
          case Path::kJit: {
            auto* fn =
                rt.mod->fn<double(long, const double*, const double*)>(g.name);
            got = fn(n, x.cdata(), y.cdata());
            break;
          }
        }
        CompareSpec spec{.depth = std::max<index_t>(n, 1), .scale = 1.0};
        if (!spec.close(got, want)) return fmt_mismatch("dot", 0, got, want);
        if (auto mm = check_untouched("x", x, x0)) return mm;
        if (auto mm = check_untouched("y", y, y0)) return mm;
        return std::nullopt;
      }

      const bool is_axpy = rt.cfg.kind == KernelKind::kAxpy;
      Buf& out = is_axpy ? y : x;
      std::vector<double> want = out.payload();
      if (is_axpy)
        oracle_axpy(n, in.alpha, x.cdata(), want.data());
      else
        oracle_scal(n, in.alpha, want.data());
      switch (path) {
        case Path::kInterp: {
          ir::Env env;
          env["n"] = n;
          env["alpha"] = in.alpha;
          env["x"] = x.data();
          if (is_axpy) env["y"] = y.data();
          ir::interpret(g.source, std::move(env));
          break;
        }
        case Path::kVm: {
          vm::Machine machine(g.insts);
          if (is_axpy)
            machine.call({n, in.alpha, x.cdata(), y.data()});
          else
            machine.call({n, in.alpha, x.data()});
          break;
        }
        case Path::kJit: {
          if (is_axpy) {
            auto* fn =
                rt.mod->fn<void(long, double, const double*, double*)>(g.name);
            fn(n, in.alpha, x.cdata(), y.data());
          } else {
            auto* fn = rt.mod->fn<void(long, double, double*)>(g.name);
            fn(n, in.alpha, x.data());
          }
          break;
        }
      }
      CompareSpec spec{.depth = 1, .scale = 2.0};
      const char* what = is_axpy ? "y" : "x";
      if (auto mm = compare_out(what, out.cdata(), want.data(), out.n, spec))
        return mm;
      if (!out.guard_ok())
        return std::string(what) + ": guard region overwritten";
      if (is_axpy) {
        if (auto mm = check_untouched("x", x, x0)) return mm;
      } else if (!x.guard_ok()) {
        return std::string("x: guard region overwritten");
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---- blocked-driver instances (GEMM only) ---------------------------------

/// BLAS-level GEMM instance for the blocked driver. alpha stays finite: the
/// driver folds alpha into the packed A panels while the oracle folds it
/// after the k-sum; for nonfinite alpha the two orders legitimately produce
/// different NaN/Inf classes (that divergence is documented, not a bug).
/// A/B may carry NaN/Inf only under alpha == ±1, where the fold is exact.
struct DInstance {
  std::int64_t m = 1, n = 1, k = 1;
  std::int64_t sa = 0, sb = 0, sc = 0;  ///< leading-dimension slack
  Trans ta = Trans::kNo, tb = Trans::kNo;
  double alpha = 1.0, beta = 1.0;
  Poison pc = Poison::kNone;  ///< poisoning of the initial C
  bool poison_ab = false;     ///< poison A/B too (requires alpha == ±1)

  std::string to_string() const {
    std::ostringstream os;
    os.precision(17);
    os << "m=" << m << " n=" << n << " k=" << k << " ta="
       << (ta == Trans::kYes ? "T" : "N")
       << " tb=" << (tb == Trans::kYes ? "T" : "N") << " alpha=" << alpha
       << " beta=" << beta << " slack=(" << sa << "," << sb << "," << sc
       << ") poisonC=" << poison_name(pc) << " poisonAB=" << poison_ab;
    return os.str();
  }
};

DInstance draw_dinstance(Rng& rng, const KernelConfig& cfg) {
  DInstance in;
  in.m = dim_near(rng, cfg.params.mr);
  in.n = dim_near(rng, cfg.params.nr);
  in.k = dim_near(rng, 4);
  in.sa = pick(rng, kSmallSlackMenu);
  in.sb = pick(rng, kSmallSlackMenu);
  in.sc = pick(rng, kSmallSlackMenu);
  in.ta = rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo;
  in.tb = rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo;
  in.alpha = draw_alpha(rng, /*allow_nonfinite=*/false);
  in.beta = draw_alpha(rng, /*allow_nonfinite=*/true);
  constexpr Poison kPoisons[6] = {Poison::kNone, Poison::kNone, Poison::kNone,
                                  Poison::kNaN,  Poison::kInf,  Poison::kMix};
  in.pc = pick(rng, kPoisons);
  if (rng.uniform_int(0, 2) == 0) {
    in.alpha = rng.uniform_int(0, 1) ? 1.0 : -1.0;
    in.poison_ab = true;
  }
  return in;
}

std::optional<std::string> check_driver(CaseRt& rt,
                                        const augem::GemmBlockFn& block,
                                        bool threaded, const DInstance& in) {
  Rng rng(mix(rt.case_seed, threaded ? 0xd217 : 0xd215));
  const index_t rows_a = in.ta == Trans::kNo ? in.m : in.k;
  const index_t cols_a = in.ta == Trans::kNo ? in.k : in.m;
  const index_t rows_b = in.tb == Trans::kNo ? in.k : in.n;
  const index_t cols_b = in.tb == Trans::kNo ? in.n : in.k;
  const index_t lda = std::max<index_t>(1, rows_a + in.sa);
  const index_t ldb = std::max<index_t>(1, rows_b + in.sb);
  const index_t ldc = std::max<index_t>(1, in.m + in.sc);

  Buf a(static_cast<std::size_t>(lda * cols_a), rng);
  Buf b(static_cast<std::size_t>(ldb * cols_b), rng);
  Buf c(static_cast<std::size_t>(ldc * in.n), rng);
  poison(c, rng, in.pc);
  if (in.poison_ab) {
    poison(a, rng, in.pc == Poison::kNone ? Poison::kMix : in.pc);
    poison(b, rng, in.pc == Poison::kNone ? Poison::kMix : in.pc);
  }
  const std::vector<double> a0 = a.payload(), b0 = b.payload();
  std::vector<double> want = c.payload();
  blas::ref::gemm(in.ta, in.tb, in.m, in.n, in.k, in.alpha, a.cdata(), lda,
                  b.cdata(), ldb, in.beta, want.data(), ldc);

  // Tiny cache blocks force multi-block macro loops even at fuzz sizes.
  blas::BlockSizes sizes;
  sizes.mc = rt.cfg.params.mr * 2;
  sizes.nc = std::max<index_t>(8, rt.cfg.params.nr * 2);
  sizes.kc = 6;
  blas::GemmContext ctx = threaded ? blas::threaded_gemm_context(sizes)
                                   : blas::serial_gemm_context(sizes);
  ctx.jr_granule = std::max<index_t>(8, rt.cfg.params.nr);
  blas::blocked_gemm(in.ta, in.tb, in.m, in.n, in.k, in.alpha, a.cdata(), lda,
                     b.cdata(), ldb, in.beta, c.data(), ldc, ctx,
                     augem::padded_gemm_block_kernel(block, rt.cfg.params.mr,
                                                     rt.cfg.params.nr));

  CompareSpec spec{.depth = in.k + 1, .scale = 2.0};
  if (auto mm = compare_out("C", c.cdata(), want.data(), c.n, spec)) return mm;
  if (!c.guard_ok()) return std::string("C: guard region overwritten");
  if (auto mm = check_untouched("A", a, a0)) return mm;
  if (auto mm = check_untouched("B", b, b0)) return mm;
  return std::nullopt;
}

// ---- BLAS-level wrapper instances -----------------------------------------

/// Instance for the Blas-interface sweep (AUGEM wrappers + the comparator
/// libraries vs the netlib-semantics oracle blas::ref). Nonfinite alpha is
/// allowed only for axpy/scal, where every implementation applies alpha
/// element-wise (exactly the same products); for gemm/gemv a nonfinite
/// alpha meeting a near-cancelling sum makes the result class depend on
/// summation order. Nonfinite beta is allowed everywhere: beta scales the
/// caller's exact y/C values identically in every implementation.
struct BInstance {
  std::int64_t m = 1, n = 1, k = 1;
  std::int64_t slack = 0;
  Trans ta = Trans::kNo, tb = Trans::kNo;
  double alpha = 1.0, beta = 1.0;
  Poison pdata = Poison::kNone;  ///< x / A / y-initial / C-initial poisoning

  std::string to_string(KernelKind op) const {
    std::ostringstream os;
    os.precision(17);
    switch (op) {
      case KernelKind::kGemm:
        os << "m=" << m << " n=" << n << " k=" << k
           << " ta=" << (ta == Trans::kYes ? "T" : "N")
           << " tb=" << (tb == Trans::kYes ? "T" : "N");
        break;
      case KernelKind::kGemv:
        os << "m=" << m << " n=" << n;
        break;
      default:
        os << "n=" << n;
        break;
    }
    os << " alpha=" << alpha << " beta=" << beta << " slack=" << slack
       << " poison=" << poison_name(pdata);
    return os.str();
  }
};

BInstance draw_binstance(Rng& rng, const KernelConfig& cfg) {
  BInstance in;
  in.m = dim_near(rng, cfg.params.mr);
  in.n = dim_near(rng, std::max(cfg.params.nr, cfg.params.unroll));
  in.k = dim_near(rng, 4);
  in.slack = pick(rng, kSmallSlackMenu);
  in.ta = rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo;
  in.tb = rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo;
  const bool elementwise_alpha =
      cfg.kind == KernelKind::kAxpy || cfg.kind == KernelKind::kScal;
  in.alpha = draw_alpha(rng, elementwise_alpha);
  in.beta = draw_alpha(rng, /*allow_nonfinite=*/true);
  constexpr Poison kPoisons[7] = {Poison::kNone, Poison::kNone, Poison::kNone,
                                  Poison::kNone, Poison::kNaN,  Poison::kInf,
                                  Poison::kMix};
  in.pdata = pick(rng, kPoisons);
  // GEMM implementations fold alpha into their packed panels; keep A/B
  // finite unless the fold is exact (see DInstance).
  if (cfg.kind == KernelKind::kGemm && in.pdata != Poison::kNone &&
      in.alpha != 1.0 && in.alpha != -1.0)
    in.alpha = 1.0;
  return in;
}

/// One Blas implementation (including sub-variants like gemv_t) vs blas::ref.
std::optional<std::string> check_blas(std::uint64_t case_seed,
                                      blas::Blas& impl, KernelKind op,
                                      bool transposed_gemv,
                                      const BInstance& in) {
  Rng rng(mix(case_seed, 0xb1a5 + (transposed_gemv ? 1 : 0)));
  switch (op) {
    case KernelKind::kGemm: {
      const index_t rows_a = in.ta == Trans::kNo ? in.m : in.k;
      const index_t cols_a = in.ta == Trans::kNo ? in.k : in.m;
      const index_t rows_b = in.tb == Trans::kNo ? in.k : in.n;
      const index_t cols_b = in.tb == Trans::kNo ? in.n : in.k;
      const index_t lda = std::max<index_t>(1, rows_a + in.slack);
      const index_t ldb = std::max<index_t>(1, rows_b + in.slack);
      const index_t ldc = std::max<index_t>(1, in.m + in.slack);
      Buf a(static_cast<std::size_t>(lda * cols_a), rng);
      Buf b(static_cast<std::size_t>(ldb * cols_b), rng);
      Buf c(static_cast<std::size_t>(ldc * in.n), rng);
      poison(c, rng, in.pdata);
      if (in.alpha == 1.0 || in.alpha == -1.0) {
        poison(a, rng, in.pdata);
        poison(b, rng, in.pdata);
      }
      std::vector<double> want = c.payload();
      blas::ref::gemm(in.ta, in.tb, in.m, in.n, in.k, in.alpha, a.cdata(), lda,
                      b.cdata(), ldb, in.beta, want.data(), ldc);
      impl.gemm(in.ta, in.tb, in.m, in.n, in.k, in.alpha, a.cdata(), lda,
                b.cdata(), ldb, in.beta, c.data(), ldc);
      CompareSpec spec{.depth = in.k + 1, .scale = 2.0};
      if (auto mm = compare_out("C", c.cdata(), want.data(), c.n, spec))
        return mm;
      if (!c.guard_ok()) return std::string("C: guard region overwritten");
      return std::nullopt;
    }

    case KernelKind::kGemv: {
      const index_t lda = std::max<index_t>(1, in.m + in.slack);
      Buf a(static_cast<std::size_t>(lda * in.n), rng);
      const index_t xlen = transposed_gemv ? in.m : in.n;
      const index_t ylen = transposed_gemv ? in.n : in.m;
      Buf x(static_cast<std::size_t>(xlen), rng);
      Buf y(static_cast<std::size_t>(ylen), rng);
      poison(a, rng, in.pdata);
      poison(x, rng, in.pdata);
      poison(y, rng, in.pdata);
      std::vector<double> want = y.payload();
      if (transposed_gemv) {
        blas::ref::gemv_t(in.m, in.n, in.alpha, a.cdata(), lda, x.cdata(),
                          in.beta, want.data());
        impl.gemv_t(in.m, in.n, in.alpha, a.cdata(), lda, x.cdata(), in.beta,
                    y.data());
      } else {
        blas::ref::gemv(in.m, in.n, in.alpha, a.cdata(), lda, x.cdata(),
                        in.beta, want.data());
        impl.gemv(in.m, in.n, in.alpha, a.cdata(), lda, x.cdata(), in.beta,
                  y.data());
      }
      CompareSpec spec{.depth = (transposed_gemv ? in.m : in.n) + 1,
                       .scale = 2.0};
      if (auto mm = compare_out("y", y.cdata(), want.data(), y.n, spec))
        return mm;
      if (!y.guard_ok()) return std::string("y: guard region overwritten");
      return std::nullopt;
    }

    case KernelKind::kAxpy: {
      Buf x(static_cast<std::size_t>(in.n), rng);
      Buf y(static_cast<std::size_t>(in.n), rng);
      poison(x, rng, in.pdata);
      poison(y, rng, in.pdata);
      std::vector<double> want = y.payload();
      blas::ref::axpy(in.n, in.alpha, x.cdata(), want.data());
      impl.axpy(in.n, in.alpha, x.cdata(), y.data());
      CompareSpec spec{.depth = 1, .scale = 2.0};
      if (auto mm = compare_out("y", y.cdata(), want.data(), y.n, spec))
        return mm;
      if (!y.guard_ok()) return std::string("y: guard region overwritten");
      return std::nullopt;
    }

    case KernelKind::kDot: {
      Buf x(static_cast<std::size_t>(in.n), rng);
      Buf y(static_cast<std::size_t>(in.n), rng);
      poison(x, rng, in.pdata);
      poison(y, rng, in.pdata);
      const double want = blas::ref::dot(in.n, x.cdata(), y.cdata());
      const double got = impl.dot(in.n, x.cdata(), y.cdata());
      CompareSpec spec{.depth = std::max<index_t>(in.n, 1), .scale = 1.0};
      if (!spec.close(got, want)) return fmt_mismatch("dot", 0, got, want);
      return std::nullopt;
    }

    case KernelKind::kScal: {
      Buf x(static_cast<std::size_t>(in.n), rng);
      poison(x, rng, in.pdata);
      std::vector<double> want = x.payload();
      blas::ref::scal(in.n, in.alpha, want.data());
      impl.scal(in.n, in.alpha, x.data());
      CompareSpec spec{.depth = 1, .scale = 2.0};
      if (auto mm = compare_out("x", x.cdata(), want.data(), x.n, spec))
        return mm;
      if (!x.guard_ok()) return std::string("x: guard region overwritten");
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---- batched small-GEMM instances -----------------------------------------

/// Instance for the batch-strided serving path (gemm_batch_strided with
/// fused epilogues) vs the reference batch loop in blas::Blas. Shapes are
/// drawn mostly inside the small-kernel window so the amortized-dispatch
/// fast path is what actually runs; a minority lands outside it to cover
/// the blocked fallback with the post-pass epilogue. Inside the window
/// both sides multiply alpha into the finished k-sum and scale C by beta
/// as one product each, so nonfinite alpha/beta see identical expression
/// trees; the blocked fallback folds alpha into its packed panels instead,
/// so outside the window alpha stays finite (see DInstance).
struct TInstance {
  std::int64_t m = 1, n = 1, k = 1, batch = 1;
  std::int64_t sa = 0, sb = 0, sc = 0;  ///< leading-dimension slack
  double alpha = 1.0, beta = 1.0;
  int bias_mode = 0;  ///< 0 none, 1 shared vector (stride 0), 2 per-instance
  bool relu = false;
  Poison p = Poison::kNone;  ///< A/B/C/bias poisoning

  std::string to_string() const {
    std::ostringstream os;
    os.precision(17);
    os << "m=" << m << " n=" << n << " k=" << k << " batch=" << batch
       << " alpha=" << alpha << " beta=" << beta << " slack=(" << sa << ","
       << sb << "," << sc << ") bias=" << bias_mode << " relu=" << relu
       << " poison=" << poison_name(p);
    return os.str();
  }
};

TInstance draw_tinstance(Rng& rng) {
  TInstance in;
  // Mostly window-interior shapes (the fast path), a few just outside.
  constexpr std::int64_t kDims[10] = {1, 2, 3, 4, 5, 8, 13, 16, 31, 32};
  in.m = pick(rng, kDims);
  in.n = pick(rng, kDims);
  in.k = pick(rng, kDims);
  if (rng.uniform_int(0, 4) == 0) in.m = 33 + rng.uniform_int(0, 7);
  constexpr std::int64_t kBatches[6] = {1, 2, 3, 7, 16, 33};
  in.batch = pick(rng, kBatches);
  in.sa = pick(rng, kSmallSlackMenu);
  in.sb = pick(rng, kSmallSlackMenu);
  in.sc = pick(rng, kSmallSlackMenu);
  in.alpha = draw_alpha(rng, /*allow_nonfinite=*/true);
  if (!runtime::use_small_gemm_kernel(in.m, in.n, in.k) &&
      !std::isfinite(in.alpha))
    in.alpha = rng.uniform(-2.0, 2.0);
  in.beta = draw_alpha(rng, /*allow_nonfinite=*/true);
  in.bias_mode = static_cast<int>(rng.uniform_int(0, 2));
  in.relu = rng.uniform_int(0, 1) != 0;
  constexpr Poison kPoisons[7] = {Poison::kNone, Poison::kNone, Poison::kNone,
                                  Poison::kNone, Poison::kNaN,  Poison::kInf,
                                  Poison::kMix};
  in.p = pick(rng, kPoisons);
  return in;
}

std::optional<std::string> check_batch(std::uint64_t case_seed,
                                       blas::Blas& fast, blas::Blas& oracle,
                                       const TInstance& in) {
  Rng rng(mix(case_seed, 0xba7c));
  const index_t lda = in.m + in.sa;
  const index_t ldb = in.k + in.sb;
  const index_t ldc = in.m + in.sc;
  const index_t stride_a = lda * in.k;
  const index_t stride_b = ldb * in.n;
  const index_t stride_c = ldc * in.n;
  const index_t stride_bias = in.bias_mode == 2 ? in.m : 0;

  Buf a(static_cast<std::size_t>(stride_a * in.batch), rng);
  Buf b(static_cast<std::size_t>(stride_b * in.batch), rng);
  Buf c(static_cast<std::size_t>(stride_c * in.batch), rng);
  const std::size_t bias_len = in.bias_mode == 0
                                   ? 0
                                   : static_cast<std::size_t>(
                                         in.m + stride_bias * (in.batch - 1));
  Buf bias(bias_len, rng);
  poison(a, rng, in.p);
  poison(b, rng, in.p);
  poison(c, rng, in.p);
  if (in.bias_mode != 0) poison(bias, rng, in.p);
  const std::vector<double> a0 = a.payload(), b0 = b.payload();
  const std::vector<double> bias0 = bias.payload();

  std::vector<double> want = c.payload();
  const double* bias_ptr = in.bias_mode == 0 ? nullptr : bias.cdata();
  // The oracle runs on a plain copy (no guards needed: the base-class
  // reference loop is the semantics definition, not code under test).
  oracle.gemm_batch_strided(in.m, in.n, in.k, in.alpha, a.cdata(), lda,
                            stride_a, b.cdata(), ldb, stride_b, in.beta,
                            want.data(), ldc, stride_c, in.batch, bias_ptr,
                            stride_bias, in.relu);
  fast.gemm_batch_strided(in.m, in.n, in.k, in.alpha, a.cdata(), lda, stride_a,
                          b.cdata(), ldb, stride_b, in.beta, c.data(), ldc,
                          stride_c, in.batch, bias_ptr, stride_bias, in.relu);

  CompareSpec spec{.depth = in.k + 2, .scale = 2.0};
  if (auto mm = compare_out("C", c.cdata(), want.data(), c.n, spec)) return mm;
  if (!c.guard_ok()) return std::string("C: guard region overwritten");
  if (auto mm = check_untouched("A", a, a0)) return mm;
  if (auto mm = check_untouched("B", b, b0)) return mm;
  if (auto mm = check_untouched("bias", bias, bias0)) return mm;
  return std::nullopt;
}

// ---- Level-3 routine instances --------------------------------------------

enum class L3 { kSymm, kSyrk, kSyr2k, kTrmm, kTrsm };

const char* l3_name(L3 r) {
  switch (r) {
    case L3::kSymm: return "symm";
    case L3::kSyrk: return "syrk";
    case L3::kSyr2k: return "syr2k";
    case L3::kTrmm: return "trmm";
    case L3::kTrsm: return "trsm";
  }
  return "?";
}

/// Instance for the Level-3 paths (SYMM/SYRK/SYR2K/TRMM/TRSM).
/// The unstored triangle of every symmetric/triangular A is NaN-filled, so
/// a single out-of-mask read in any decomposition shows up as a NaN
/// mismatch against the oracle. Alpha stays finite and, when the data is
/// poisoned, is forced to ±1: like GEMM, the engines fold alpha into their
/// packed panels while the oracle applies it after the k-sum. TRMM poisons
/// A only (see L3Data::prepare), and TRSM keeps clean data and a strictly
/// diagonally dominant triangle — divisions amplify poison (and
/// ill-conditioning) differently per decomposition.
struct LInstance {
  L3 routine = L3::kSymm;
  Side side = Side::kLeft;
  Uplo uplo = Uplo::kLower;
  Trans trans = Trans::kNo;
  std::int64_t m = 1, n = 1, k = 1;
  std::int64_t slack = 0;
  std::int64_t block = 16;  ///< decomposition block NB (set_level3_block)
  double alpha = 1.0, beta = 1.0;
  Poison pdata = Poison::kNone;

  std::string to_string() const {
    std::ostringstream os;
    os.precision(17);
    os << l3_name(routine);
    switch (routine) {
      case L3::kSyrk:
      case L3::kSyr2k:
        os << " uplo=" << (uplo == Uplo::kUpper ? "U" : "L")
           << " trans=" << (trans == Trans::kYes ? "T" : "N") << " n=" << n
           << " k=" << k;
        break;
      case L3::kSymm:
        os << " side=" << (side == Side::kRight ? "R" : "L")
           << " uplo=" << (uplo == Uplo::kUpper ? "U" : "L") << " m=" << m
           << " n=" << n;
        break;
      default:
        os << " side=" << (side == Side::kRight ? "R" : "L")
           << " uplo=" << (uplo == Uplo::kUpper ? "U" : "L")
           << " trans=" << (trans == Trans::kYes ? "T" : "N") << " m=" << m
           << " n=" << n;
        break;
    }
    os << " alpha=" << alpha << " beta=" << beta << " slack=" << slack
       << " nb=" << block << " poison=" << poison_name(pdata);
    return os.str();
  }
};

LInstance draw_linstance(Rng& rng) {
  LInstance in;
  constexpr L3 kRoutines[5] = {L3::kSymm, L3::kSyrk, L3::kSyr2k, L3::kTrmm,
                               L3::kTrsm};
  in.routine = pick(rng, kRoutines);
  in.side = rng.uniform_int(0, 1) ? Side::kRight : Side::kLeft;
  in.uplo = rng.uniform_int(0, 1) ? Uplo::kUpper : Uplo::kLower;
  in.trans = rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo;
  in.m = dim_near(rng, 8);
  in.n = dim_near(rng, 8);
  in.k = dim_near(rng, 4);
  in.slack = pick(rng, kSmallSlackMenu);
  // Small decomposition blocks put several block boundaries inside even
  // fuzz-sized triangles (partial diagonal blocks, short trailing panels).
  constexpr std::int64_t kBlocks[4] = {4, 8, 12, 16};
  in.block = pick(rng, kBlocks);
  in.alpha = draw_alpha(rng, /*allow_nonfinite=*/false);
  in.beta = draw_alpha(rng, /*allow_nonfinite=*/true);
  constexpr Poison kPoisons[6] = {Poison::kNone, Poison::kNone, Poison::kNone,
                                  Poison::kNaN,  Poison::kInf,  Poison::kMix};
  in.pdata = pick(rng, kPoisons);
  if (in.pdata != Poison::kNone && in.alpha != 1.0 && in.alpha != -1.0)
    in.alpha = rng.uniform_int(0, 1) ? 1.0 : -1.0;
  if (in.routine == L3::kTrsm) in.pdata = Poison::kNone;
  return in;
}

struct L3Shape {
  index_t a_rows = 0, a_cols = 0, lda = 1;
  index_t b_rows = 0, b_cols = 0, ldb = 1;
  index_t c_rows = 0, c_cols = 0, ldc = 1;
};

L3Shape l3_shape(const LInstance& in) {
  L3Shape s;
  const index_t ka = in.side == Side::kLeft ? in.m : in.n;
  switch (in.routine) {
    case L3::kSymm:
      s.a_rows = s.a_cols = ka;
      s.b_rows = in.m;
      s.b_cols = in.n;
      s.c_rows = in.m;
      s.c_cols = in.n;
      break;
    case L3::kSyr2k:
      s.b_rows = in.trans == Trans::kNo ? in.n : in.k;
      s.b_cols = in.trans == Trans::kNo ? in.k : in.n;
      [[fallthrough]];
    case L3::kSyrk:
      s.a_rows = in.trans == Trans::kNo ? in.n : in.k;
      s.a_cols = in.trans == Trans::kNo ? in.k : in.n;
      s.c_rows = s.c_cols = in.n;
      break;
    case L3::kTrmm:
    case L3::kTrsm:
      s.a_rows = s.a_cols = ka;
      s.b_rows = in.m;
      s.b_cols = in.n;
      break;
  }
  s.lda = std::max<index_t>(1, s.a_rows + in.slack);
  s.ldb = std::max<index_t>(1, s.b_rows + in.slack);
  s.ldc = std::max<index_t>(1, s.c_rows + in.slack);
  return s;
}

/// Operand + oracle state for one Level-3 instance, a pure function of
/// (seed, instance) so shrinking re-runs stay deterministic. `bwant` /
/// `cwant` hold the netlib-oracle result for whichever buffer the routine
/// writes; the other stays an untouched-input expectation.
struct L3Data {
  L3Shape s;
  Rng rng;
  Buf a, b, c;
  std::vector<double> a0, b0;
  std::vector<double> bwant, cwant;

  L3Data(std::uint64_t seed, const LInstance& in)
      : s(l3_shape(in)),
        rng(seed),
        a(static_cast<std::size_t>(s.lda * s.a_cols), rng),
        b(static_cast<std::size_t>(s.ldb * s.b_cols), rng),
        c(static_cast<std::size_t>(s.ldc * s.c_cols), rng) {
    prepare(in);
    a0 = a.payload();
    bwant = b.payload();
    cwant = c.payload();
    switch (in.routine) {
      case L3::kSymm:
        blas::ref::symm(in.side, in.uplo, in.m, in.n, in.alpha, a.cdata(),
                        s.lda, b.cdata(), s.ldb, in.beta, cwant.data(), s.ldc);
        b0 = b.payload();
        break;
      case L3::kSyrk:
        blas::ref::syrk(in.uplo, in.trans, in.n, in.k, in.alpha, a.cdata(),
                        s.lda, in.beta, cwant.data(), s.ldc);
        b0 = b.payload();
        break;
      case L3::kSyr2k:
        blas::ref::syr2k(in.uplo, in.trans, in.n, in.k, in.alpha, a.cdata(),
                         s.lda, b.cdata(), s.ldb, in.beta, cwant.data(),
                         s.ldc);
        b0 = b.payload();
        break;
      case L3::kTrmm:
        blas::ref::trmm(in.side, in.uplo, in.trans, in.m, in.n, in.alpha,
                        a.cdata(), s.lda, bwant.data(), s.ldb);
        break;
      case L3::kTrsm:
        blas::ref::trsm(in.side, in.uplo, in.trans, in.m, in.n, in.alpha,
                        a.cdata(), s.lda, bwant.data(), s.ldb);
        break;
    }
  }

 private:
  void prepare(const LInstance& in) {
    const bool tri_a = in.routine == L3::kSymm || in.routine == L3::kTrmm ||
                       in.routine == L3::kTrsm;
    if (tri_a) {
      for (index_t j = 0; j < s.a_cols; ++j)
        for (index_t i = 0; i < s.a_rows; ++i) {
          const bool stored = in.uplo == Uplo::kLower ? i >= j : i <= j;
          if (!stored) blas::at(a.data(), s.lda, i, j) = kNaN;
        }
    }
    if (in.routine == L3::kTrsm) {
      // Strict diagonal dominance: |diag| >= 1.5 while every stored
      // off-diagonal row sums below 1, so the solve stays well-conditioned
      // at any decomposition and the ULP comparison stays meaningful.
      const double damp =
          1.0 / static_cast<double>(std::max<index_t>(1, s.a_rows));
      for (index_t j = 0; j < s.a_cols; ++j)
        for (index_t i = 0; i < s.a_rows; ++i) {
          if (i == j)
            blas::at(a.data(), s.lda, i, i) =
                (i % 2 != 0 ? -1.0 : 1.0) *
                (1.5 + 0.5 * static_cast<double>(i % 4));
          else if (in.uplo == Uplo::kLower ? i > j : i < j)
            blas::at(a.data(), s.lda, i, j) *= damp;
        }
    }
    const bool exact_alpha = in.alpha == 1.0 || in.alpha == -1.0;
    switch (in.routine) {
      case L3::kSymm:
      case L3::kSyr2k:
        if (exact_alpha) {
          poison(a, rng, in.pdata);  // may land in the NaN triangle: harmless
          poison(b, rng, in.pdata);
        }
        poison(c, rng, in.pdata);
        break;
      case L3::kSyrk:
        if (exact_alpha) poison(a, rng, in.pdata);
        poison(c, rng, in.pdata);
        break;
      case L3::kTrmm:
        // A only: netlib's loop bounds skip the structural zeros of the
        // triangle, while the masked engine multiplies by them — a NaN/Inf
        // in B meets 0·NaN = NaN there. Poison in the *stored* triangle of
        // A participates in exactly the same products on both sides.
        if (exact_alpha) poison(a, rng, in.pdata);
        break;
      case L3::kTrsm:
        break;  // pdata forced to kNone at draw time
    }
  }
};

index_t l3_depth(const LInstance& in) {
  switch (in.routine) {
    case L3::kSyrk: return in.k + 2;
    case L3::kSyr2k: return 2 * in.k + 2;
    default: return (in.side == Side::kLeft ? in.m : in.n) + 2;
  }
}

std::optional<std::string> l3_compare(const LInstance& in, const L3Data& d) {
  const bool in_place = in.routine == L3::kTrmm || in.routine == L3::kTrsm;
  const CompareSpec spec{.depth = l3_depth(in),
                         .scale = in.routine == L3::kTrsm ? 8.0 : 2.0};
  if (in_place) {
    if (auto mm = compare_out("B", d.b.cdata(), d.bwant.data(), d.b.n, spec))
      return mm;
    if (!d.b.guard_ok()) return std::string("B: guard region overwritten");
  } else {
    if (auto mm = compare_out("C", d.c.cdata(), d.cwant.data(), d.c.n, spec))
      return mm;
    if (!d.c.guard_ok()) return std::string("C: guard region overwritten");
    if (auto mm = check_untouched("B", d.b, d.b0)) return mm;
  }
  return check_untouched("A", d.a, d.a0);
}

void l3_call(blas::Blas& impl, const LInstance& in, L3Data& d) {
  switch (in.routine) {
    case L3::kSymm:
      impl.symm(in.side, in.uplo, in.m, in.n, in.alpha, d.a.cdata(), d.s.lda,
                d.b.cdata(), d.s.ldb, in.beta, d.c.data(), d.s.ldc);
      break;
    case L3::kSyrk:
      impl.syrk(in.uplo, in.trans, in.n, in.k, in.alpha, d.a.cdata(), d.s.lda,
                in.beta, d.c.data(), d.s.ldc);
      break;
    case L3::kSyr2k:
      impl.syr2k(in.uplo, in.trans, in.n, in.k, in.alpha, d.a.cdata(),
                 d.s.lda, d.b.cdata(), d.s.ldb, in.beta, d.c.data(), d.s.ldc);
      break;
    case L3::kTrmm:
      impl.trmm(in.side, in.uplo, in.trans, in.m, in.n, in.alpha, d.a.cdata(),
                d.s.lda, d.b.data(), d.s.ldb);
      break;
    case L3::kTrsm:
      impl.trsm(in.side, in.uplo, in.trans, in.m, in.n, in.alpha, d.a.cdata(),
                d.s.lda, d.b.data(), d.s.ldb);
      break;
  }
}

/// One Blas implementation's Level-3 routine vs blas::ref, under the
/// instance's decomposition-block override (so NB boundaries get fuzzed).
std::optional<std::string> check_level3(std::uint64_t case_seed,
                                        blas::Blas& impl,
                                        const LInstance& in) {
  L3Data d(mix(case_seed, 0x1e73), in);
  impl.set_level3_block(std::max<index_t>(1, in.block));
  l3_call(impl, in, d);
  return l3_compare(in, d);
}

/// The prepacked-panel engine (blas/level3.hpp) on the case's generated
/// block kernel: serial and threaded contexts each vs blas::ref, then
/// bit-compared against each other — the tile decomposition is fixed at
/// pack time, so thread count must not change a single bit.
std::optional<std::string> check_level3_engine(CaseRt& rt,
                                               const augem::GemmBlockFn& block,
                                               const LInstance& in) {
  blas::BlockSizes sizes;
  sizes.mc = rt.cfg.params.mr * 2;
  sizes.nc = std::max<index_t>(8, rt.cfg.params.nr * 2);
  sizes.kc = 6;
  const blas::BlockKernel kernel = augem::padded_gemm_block_kernel(
      block, rt.cfg.params.mr, rt.cfg.params.nr);

  std::vector<double> serial_b, serial_c;
  for (const bool threaded : {false, true}) {
    L3Data d(mix(rt.case_seed, 0x1e75), in);  // identical data both ways
    blas::GemmContext ctx = threaded ? blas::threaded_gemm_context(sizes)
                                     : blas::serial_gemm_context(sizes);
    ctx.jr_granule = std::max<index_t>(8, rt.cfg.params.nr);
    const blas::Level3Config cfg{ctx, kernel,
                                 std::max<index_t>(1, in.block), nullptr};
    switch (in.routine) {
      case L3::kSymm:
        blas::level3_symm(cfg, in.side, in.uplo, in.m, in.n, in.alpha,
                          d.a.cdata(), d.s.lda, d.b.cdata(), d.s.ldb, in.beta,
                          d.c.data(), d.s.ldc);
        break;
      case L3::kSyrk:
        blas::level3_syrk(cfg, in.uplo, in.trans, in.n, in.k, in.alpha,
                          d.a.cdata(), d.s.lda, in.beta, d.c.data(), d.s.ldc);
        break;
      case L3::kSyr2k:
        blas::level3_syr2k(cfg, in.uplo, in.trans, in.n, in.k, in.alpha,
                           d.a.cdata(), d.s.lda, d.b.cdata(), d.s.ldb,
                           in.beta, d.c.data(), d.s.ldc);
        break;
      case L3::kTrmm:
        blas::level3_trmm(cfg, in.side, in.uplo, in.trans, in.m, in.n,
                          in.alpha, d.a.cdata(), d.s.lda, d.b.data(),
                          d.s.ldb);
        break;
      case L3::kTrsm:
        blas::level3_trsm(cfg, in.side, in.uplo, in.trans, in.m, in.n,
                          in.alpha, d.a.cdata(), d.s.lda, d.b.data(),
                          d.s.ldb);
        break;
    }
    if (auto mm = l3_compare(in, d))
      return std::string(threaded ? "threaded: " : "serial: ") + *mm;
    const std::vector<double> got_b = d.b.payload(), got_c = d.c.payload();
    if (!threaded) {
      serial_b = got_b;
      serial_c = got_c;
    } else if ((!got_b.empty() &&
                std::memcmp(got_b.data(), serial_b.data(),
                            got_b.size() * sizeof(double)) != 0) ||
               (!got_c.empty() &&
                std::memcmp(got_c.data(), serial_c.data(),
                            got_c.size() * sizeof(double)) != 0)) {
      return std::string("serial and threaded engine results differ bitwise");
    }
  }
  return std::nullopt;
}

// ---- shrinking ------------------------------------------------------------

/// Greedy per-dimension minimization: repeatedly halve each dimension (in
/// `gran` units, not below `lo`) while `fails()` — which must re-run the
/// failing check against the dimensions through the pointers — stays true.
void shrink_dims(const std::vector<std::int64_t*>& dims,
                 const std::vector<std::int64_t>& lo,
                 const std::vector<std::int64_t>& gran,
                 const std::function<bool()>& fails, int budget = 64) {
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (std::size_t d = 0; d < dims.size() && budget > 0; ++d) {
      while (*dims[d] > lo[d] && budget > 0) {
        const std::int64_t save = *dims[d];
        std::int64_t next = (save / gran[d] / 2) * gran[d];
        if (next == save) next = save - gran[d];
        next = std::max(next, lo[d]);
        if (next == save) break;
        *dims[d] = next;
        --budget;
        if (!fails()) {
          *dims[d] = save;
          break;
        }
        progress = true;
      }
    }
  }
}

template <typename T>
void try_simplify(T& field, T candidate, const std::function<bool()>& fails) {
  const T save = field;
  field = candidate;
  if (!fails()) field = save;
}

// ---- run context ----------------------------------------------------------

struct NamedBlas {
  std::string name;
  std::unique_ptr<blas::Blas> impl;
};

/// Base-class batch oracle: only gemm_batch_strided (inherited, the
/// reference loop) is ever called; the pure virtuals are inert stubs.
class BatchOracle final : public blas::Blas {
 public:
  std::string name() const override { return "batch-oracle"; }
  void gemv(index_t, index_t, double, const double*, index_t, const double*,
            double, double*) override {}
  void axpy(index_t, double, const double*, double*) override {}
  double dot(index_t, const double*, const double*) override { return 0.0; }
  void scal(index_t, double, double*) override {}

 private:
  blas::GemmPlan gemm_plan(index_t, index_t, index_t) override { return {}; }
};

struct RunCtx {
  bool jit_ok = false;
  std::vector<NamedBlas> impls;
  /// Memory-only runtime serving the untuned default kernels (no tuner),
  /// shared by the `augem` impl and the batched and Level-3 RuntimeBlas
  /// paths; null when the JIT path is off or unavailable.
  std::unique_ptr<runtime::KernelRuntime> kernel_rt;
  std::unique_ptr<blas::Blas> batch_impl;
  BatchOracle batch_oracle;
};

RunCtx make_run_ctx(const FuzzOptions& opts) {
  RunCtx ctx;
  ctx.jit_ok = opts.run_jit && jit::toolchain_available();
  if (ctx.jit_ok && (opts.run_blas || opts.run_batch || opts.run_level3)) {
    runtime::RuntimeConfig rc;
    rc.use_persistent = false;
    rc.tune_on_miss = false;
    rc.code_cache_capacity = 64;
    ctx.kernel_rt = std::make_unique<runtime::KernelRuntime>(rc);
    ctx.batch_impl = runtime::make_runtime_blas(*ctx.kernel_rt);
  }
  if (!opts.run_blas) return ctx;
  ctx.impls.push_back({"refblas", blas::make_refblas()});
  ctx.impls.push_back({"gotosim", blas::make_gotosim()});
  ctx.impls.push_back({"atlsim", blas::make_atlsim()});
  if (host_arch().has_avx2 && host_arch().has_fma3)
    ctx.impls.push_back({"vendorsim", blas::make_vendorsim()});
  if (ctx.kernel_rt != nullptr)
    ctx.impls.push_back({"augem", runtime::make_runtime_blas(*ctx.kernel_rt)});
  return ctx;
}

void log_failure(const FuzzOptions& opts, const Failure& f) {
  if (opts.log == nullptr) return;
  *opts.log << "FAIL case " << f.case_index << " [" << f.path << "] "
            << f.config << " | " << f.instance << "\n  " << f.detail << "\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

std::string FuzzReport::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"cases_run\":" << cases_run
     << ",\"configs_rejected\":" << configs_rejected << ",\"path_runs\":{";
  bool first = true;
  for (const auto& [name, count] : path_runs) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << count;
  }
  os << "},\"path_families\":{";
  // Aggregate by path family: everything before the first ':' (so
  // "blas:gotosim:gemv" counts toward "blas"), giving a stable coarse
  // coverage summary even as the per-path names grow.
  std::map<std::string, std::int64_t> families;
  for (const auto& [name, count] : path_runs)
    families[name.substr(0, name.find(':'))] += count;
  first = true;
  for (const auto& [name, count] : families) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << count;
  }
  os << "},\"failures\":[";
  first = true;
  for (const Failure& f : failures) {
    if (!first) os << ",";
    first = false;
    os << "{\"case\":" << f.case_index << ",\"case_seed\":" << f.case_seed
       << ",\"path\":\"" << json_escape(f.path) << "\",\"config\":\""
       << json_escape(f.config) << "\",\"instance\":\""
       << json_escape(f.instance) << "\",\"detail\":\""
       << json_escape(f.detail) << "\"}";
  }
  os << "],\"ok\":" << (failures.empty() ? "true" : "false") << "}";
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport rep;
  rep.seed = opts.seed;
  RunCtx run = make_run_ctx(opts);
  const auto t0 = std::chrono::steady_clock::now();

  const std::int64_t begin = opts.only_case >= 0 ? opts.only_case : 0;
  const std::int64_t end =
      opts.only_case >= 0 ? opts.only_case + 1 : opts.cases;

  for (std::int64_t ci = begin; ci < end; ++ci) {
    if (opts.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      if (elapsed.count() > opts.time_budget_seconds) break;
    }
    if (static_cast<std::int64_t>(rep.failures.size()) >= opts.max_failures)
      break;

    const std::uint64_t case_seed =
        mix(opts.seed, static_cast<std::uint64_t>(ci));
    Rng rng(case_seed);
    CaseRt rt;
    rt.case_seed = case_seed;
    rt.cfg = draw_config(rng);

    // All instance draws happen up front so that toggling individual paths
    // never changes what any other path sees for the same (seed, case).
    const KInstance kin = draw_kinstance(rng, rt.cfg);
    const DInstance din = draw_dinstance(rng, rt.cfg);
    const BInstance bin = draw_binstance(rng, rt.cfg);
    const TInstance tin = draw_tinstance(rng);
    const LInstance lin = draw_linstance(rng);

    ++rep.cases_run;

    auto record = [&](const std::string& path, const std::string& instance,
                      const std::string& detail) {
      Failure f;
      f.case_index = ci;
      f.case_seed = case_seed;
      f.path = path;
      f.config = rt.cfg.to_string();
      f.instance = instance;
      f.detail = detail;
      log_failure(opts, f);
      rep.failures.push_back(std::move(f));
    };

    // ---- generation + static proofs ---------------------------------------
    // A refusal is the generator declining an out-of-domain configuration.
    // Any other generation error (an internal check, or the structural
    // analysis generation runs on every kernel) fails the `verifier` path.
    // Beyond that, the bounds proofs (`mirlint`) show from the kernel
    // contract alone that every memory access stays inside the caller's
    // buffers, and the translation validator (`semantics`) rides the same
    // analysis: a proof failure is a generator bug even if every numeric
    // path agrees.
    analysis::AnalysisReport report;
    std::string generation_error;
    try {
      AnalyzedKernel a = generate_and_analyze(rt.cfg, opts.run_semantics);
      rt.g.emplace(std::move(a.kernel));
      report = std::move(a.report);
    } catch (const Refusal&) {
      ++rep.configs_rejected;
      continue;
    } catch (const Error& e) {
      generation_error = e.what();
    }
    ++rep.path_runs["verifier"];
    if (!rt.g) {
      record("verifier", kin.to_string(rt.cfg.kind), generation_error);
      continue;  // no machine code to run
    }

    ++rep.path_runs["mirlint"];
    if (opts.run_semantics) ++rep.path_runs["semantics"];
    if (report.errors() > 0) {
      std::ostringstream bounds_os, sem_os;
      for (const analysis::Finding& f : report.findings) {
        if (f.severity != analysis::Severity::kError) continue;
        std::ostringstream& os =
            f.kind.rfind("semantics-", 0) == 0 ? sem_os : bounds_os;
        os << "[inst " << f.index << "] " << f.kind << ": " << f.message
           << "; ";
      }
      if (!bounds_os.str().empty())
        record("mirlint", kin.to_string(rt.cfg.kind), bounds_os.str());
      if (!sem_os.str().empty())
        record("semantics", kin.to_string(rt.cfg.kind), sem_os.str());
      continue;
    }

    const bool native = run.jit_ok && host_arch().supports(rt.cfg.config.isa);
    if (native) {
      try {
        rt.mod = std::make_unique<jit::CompiledModule>(
            jit::assemble(rt.g->asm_text));
      } catch (const Error& e) {
        record("jit-assemble", kin.to_string(rt.cfg.kind), e.what());
        continue;
      }
    }

    // ---- kernel-contract paths -------------------------------------------
    std::vector<Path> paths;
    if (opts.run_interp) paths.push_back(Path::kInterp);
    if (opts.run_vm) paths.push_back(Path::kVm);
    if (rt.mod != nullptr) paths.push_back(Path::kJit);
    for (Path p : paths) {
      ++rep.path_runs[path_name(p)];
      auto run_check = [&](const KInstance& inst) -> std::optional<std::string> {
        try {
          return check_kernel(rt, p, inst);
        } catch (const Error& e) {
          return std::string("execution error: ") + e.what();
        }
      };
      std::optional<std::string> fail = run_check(kin);
      if (!fail) continue;
      KInstance small = kin;
      if (opts.shrink) {
        auto fails = [&]() { return run_check(small).has_value(); };
        const std::int64_t mr = rt.cfg.params.mr, nr = rt.cfg.params.nr;
        if (rt.cfg.kind == KernelKind::kGemm)
          shrink_dims({&small.d[0], &small.d[1], &small.d[2], &small.d[3]},
                      {mr, nr, 0, 0}, {mr, nr, 1, 1}, fails);
        else
          shrink_dims({&small.d[0], &small.d[1], &small.d[2]}, {0, 0, 0},
                      {1, 1, 1}, fails);
        try_simplify(small.p, Poison::kNone, fails);
        try_simplify(small.alpha, 1.0, fails);
        fail = run_check(small);
        if (!fail) {  // shrinking lost the failure; report the original
          small = kin;
          fail = run_check(small);
        }
      }
      record(path_name(p), small.to_string(rt.cfg.kind),
             fail.value_or("unreproducible after shrink"));
    }

    // ---- blocked driver (GEMM configurations) ----------------------------
    // The driver packs B column-major (pb[j*kc + l]); row-panel-layout
    // kernels are VM/interp-only by construction. The block function is
    // shared with the Level-3 engine path below.
    augem::GemmBlockFn block;
    if (rt.cfg.kind == KernelKind::kGemm &&
        rt.cfg.layout == BLayout::kColMajor) {
      if (rt.mod != nullptr) {
        auto* fn = rt.mod->fn<void(long, long, long, const double*,
                                   const double*, double*, long)>(rt.g->name);
        block = fn;
      } else {
        // VM-backed block kernel: a fresh Machine per call keeps the
        // threaded driver's concurrent invocations independent.
        const opt::MInstList* insts = &rt.g->insts;
        block = [insts](long mc, long nc, long kc, const double* pa,
                        const double* pb, double* c, long ldc) {
          vm::Machine m(*insts);
          m.call({mc, nc, kc, pa, pb, c, ldc});
        };
      }
    }
    if (opts.run_driver && block) {
      for (const bool threaded : {false, true}) {
        const char* pname = threaded ? "driver-threaded" : "driver-serial";
        ++rep.path_runs[pname];
        auto run_check =
            [&](const DInstance& inst) -> std::optional<std::string> {
          try {
            return check_driver(rt, block, threaded, inst);
          } catch (const Error& e) {
            return std::string("execution error: ") + e.what();
          }
        };
        std::optional<std::string> fail = run_check(din);
        if (!fail) continue;
        DInstance small = din;
        if (opts.shrink) {
          auto fails = [&]() { return run_check(small).has_value(); };
          shrink_dims({&small.m, &small.n, &small.k, &small.sa, &small.sb,
                       &small.sc},
                      {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, fails);
          try_simplify(small.pc, Poison::kNone, fails);
          try_simplify(small.poison_ab, false, fails);
          try_simplify(small.beta, 1.0, fails);
          try_simplify(small.alpha, 1.0, fails);
          fail = run_check(small);
          if (!fail) {
            small = din;
            fail = run_check(small);
          }
        }
        record(pname, small.to_string(),
               fail.value_or("unreproducible after shrink"));
      }
    }

    // ---- BLAS wrappers vs the netlib oracle ------------------------------
    if (opts.run_blas) {
      for (NamedBlas& nb : run.impls) {
        if (static_cast<std::int64_t>(rep.failures.size()) >=
            opts.max_failures)
          break;
        const int variants = rt.cfg.kind == KernelKind::kGemv ? 2 : 1;
        for (int v = 0; v < variants; ++v) {
          const bool transposed = v == 1;
          std::string pname = "blas:" + nb.name + ":" +
                              frontend::kernel_kind_name(rt.cfg.kind);
          if (transposed) pname += "_t";
          ++rep.path_runs[pname];
          auto run_check =
              [&](const BInstance& inst) -> std::optional<std::string> {
            try {
              return check_blas(case_seed, *nb.impl, rt.cfg.kind, transposed,
                                inst);
            } catch (const Error& e) {
              return std::string("execution error: ") + e.what();
            }
          };
          std::optional<std::string> fail = run_check(bin);
          if (!fail) continue;
          BInstance small = bin;
          if (opts.shrink) {
            auto fails = [&]() { return run_check(small).has_value(); };
            shrink_dims({&small.m, &small.n, &small.k, &small.slack},
                        {0, 0, 0, 0}, {1, 1, 1, 1}, fails);
            try_simplify(small.pdata, Poison::kNone, fails);
            try_simplify(small.beta, 1.0, fails);
            try_simplify(small.alpha, 1.0, fails);
            fail = run_check(small);
            if (!fail) {
              small = bin;
              fail = run_check(small);
            }
          }
          record(pname, small.to_string(rt.cfg.kind),
                 fail.value_or("unreproducible after shrink"));
        }
      }
    }

    // ---- batched small-GEMM serving path vs the reference epilogue loop --
    // Gated on GEMM configs so the fast path still sees ~1/5 of all cases
    // without ballooning JIT builds (each distinct shape+epilogue builds
    // once into the run's shared code cache).
    if (opts.run_batch && run.batch_impl != nullptr &&
        rt.cfg.kind == KernelKind::kGemm &&
        static_cast<std::int64_t>(rep.failures.size()) < opts.max_failures) {
      ++rep.path_runs["batch"];
      auto run_check = [&](const TInstance& inst) -> std::optional<std::string> {
        try {
          return check_batch(case_seed, *run.batch_impl, run.batch_oracle,
                             inst);
        } catch (const Error& e) {
          return std::string("execution error: ") + e.what();
        }
      };
      std::optional<std::string> fail = run_check(tin);
      if (fail) {
        TInstance small = tin;
        if (opts.shrink) {
          auto fails = [&]() { return run_check(small).has_value(); };
          shrink_dims({&small.batch, &small.m, &small.n, &small.k, &small.sa,
                       &small.sb, &small.sc},
                      {1, 1, 1, 1, 0, 0, 0}, {1, 1, 1, 1, 1, 1, 1}, fails);
          try_simplify(small.p, Poison::kNone, fails);
          try_simplify(small.relu, false, fails);
          try_simplify(small.bias_mode, 0, fails);
          try_simplify(small.beta, 1.0, fails);
          try_simplify(small.alpha, 1.0, fails);
          fail = run_check(small);
          if (!fail) {
            small = tin;
            fail = run_check(small);
          }
        }
        record("batch", small.to_string(),
               fail.value_or("unreproducible after shrink"));
      }
    }

    // ---- Level-3 routines (SYMM/SYRK/SYR2K/TRMM/TRSM) --------------------
    // Gated on GEMM configs like the batch path: the engine rides on the
    // same generated block kernels, and 1/5 of all cases keeps the JIT
    // build count bounded while covering every routine × variant. Three
    // families per case: every Blas implementation, the RuntimeBlas
    // dispatch path, and the engine on the case's kernel (serial vs
    // threaded, bit-compared).
    if (opts.run_level3 && rt.cfg.kind == KernelKind::kGemm) {
      const std::string routine = l3_name(lin.routine);
      auto sweep_l3 = [&](const std::string& pname,
                          const std::function<std::optional<std::string>(
                              const LInstance&)>& run_check) {
        ++rep.path_runs[pname];
        std::optional<std::string> fail = run_check(lin);
        if (!fail) return;
        LInstance small = lin;
        if (opts.shrink) {
          auto fails = [&]() { return run_check(small).has_value(); };
          shrink_dims({&small.m, &small.n, &small.k, &small.slack},
                      {0, 0, 0, 0}, {1, 1, 1, 1}, fails);
          try_simplify(small.pdata, Poison::kNone, fails);
          try_simplify(small.beta, 1.0, fails);
          try_simplify(small.alpha, 1.0, fails);
          try_simplify(small.block, std::int64_t{16}, fails);
          fail = run_check(small);
          if (!fail) {
            small = lin;
            fail = run_check(small);
          }
        }
        record(pname, small.to_string(),
               fail.value_or("unreproducible after shrink"));
      };

      if (opts.run_blas) {
        for (NamedBlas& nb : run.impls) {
          if (static_cast<std::int64_t>(rep.failures.size()) >=
              opts.max_failures)
            break;
          sweep_l3("level3:" + nb.name + ":" + routine,
                   [&](const LInstance& inst) -> std::optional<std::string> {
                     try {
                       return check_level3(case_seed, *nb.impl, inst);
                     } catch (const Error& e) {
                       return std::string("execution error: ") + e.what();
                     }
                   });
        }
      }
      if (run.batch_impl != nullptr &&
          static_cast<std::int64_t>(rep.failures.size()) < opts.max_failures)
        sweep_l3("level3:runtime:" + routine,
                 [&](const LInstance& inst) -> std::optional<std::string> {
                   try {
                     return check_level3(case_seed, *run.batch_impl, inst);
                   } catch (const Error& e) {
                     return std::string("execution error: ") + e.what();
                   }
                 });
      if (block &&
          static_cast<std::int64_t>(rep.failures.size()) < opts.max_failures)
        sweep_l3("level3-engine:" + routine,
                 [&](const LInstance& inst) -> std::optional<std::string> {
                   try {
                     return check_level3_engine(rt, block, inst);
                   } catch (const Error& e) {
                     return std::string("execution error: ") + e.what();
                   }
                 });
    }

    if (opts.log != nullptr && (ci + 1) % 100 == 0)
      *opts.log << "  ..." << (ci + 1) << " cases, " << rep.configs_rejected
                << " rejected, " << rep.failures.size() << " failures\n";
  }
  return rep;
}

}  // namespace augem::check
