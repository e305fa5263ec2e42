// Workload definitions, public calls and oracle checks of the benchmark.
//
// Every workload is one fixed *structure* of calls (how many of each kind,
// extents drawn from narrow bands) whose exact extents, variants and
// operand values come from the seed. Keeping the structure fixed makes the
// aggregate cost of a cycle nearly seed-independent, so runs on different
// seeds are comparable; drawing the details from the seed keeps any one
// input from being tuned for.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "bench.hpp"
#include "blas/libraries.hpp"
#include "blas/reference.hpp"
#include "check/ulp.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

using augem::Rng;
using augem::blas::at;
using augem::blas::op_at;
using augem::blas::sym_at;
using augem::blas::tri_at;
using augem::frontend::KernelKind;

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kGemm: return "gemm";
    case OpKind::kBatch: return "gemm_batch";
    case OpKind::kAxpy: return "axpy";
    case OpKind::kDot: return "dot";
    case OpKind::kGemv: return "gemv";
    case OpKind::kSymm: return "symm";
    case OpKind::kSyrk: return "syrk";
    case OpKind::kSyr2k: return "syr2k";
    case OpKind::kTrmm: return "trmm";
    case OpKind::kTrsm: return "trsm";
  }
  return "?";
}

bool is_level3(OpKind k) {
  return k == OpKind::kSymm || k == OpKind::kSyrk || k == OpKind::kSyr2k ||
         k == OpKind::kTrmm || k == OpKind::kTrsm;
}

// ---- Op --------------------------------------------------------------------

index_t Op::ka() const {
  if (kind == OpKind::kSyrk || kind == OpKind::kSyr2k) return n;
  return side == Side::kLeft ? m : n;
}

double Op::flops() const {
  const double M = static_cast<double>(m), N = static_cast<double>(n),
               K = static_cast<double>(k), A = static_cast<double>(ka());
  switch (kind) {
    case OpKind::kGemm: return 2 * M * N * K;
    case OpKind::kBatch: return 2 * M * N * K * static_cast<double>(batch);
    case OpKind::kAxpy:
    case OpKind::kDot: return 2 * N;
    case OpKind::kGemv: return 2 * M * N;
    case OpKind::kSymm: return 2 * A * M * N;
    case OpKind::kSyrk: return N * N * K;
    case OpKind::kSyr2k: return 2 * N * N * K;
    case OpKind::kTrmm:
    case OpKind::kTrsm: return A * M * N;
  }
  return 0.0;
}

std::size_t Op::out_doubles() const {
  switch (kind) {
    case OpKind::kBatch: return static_cast<std::size_t>(m * n * batch);
    case OpKind::kAxpy: return static_cast<std::size_t>(n);
    case OpKind::kDot: return 1;
    case OpKind::kGemv: return static_cast<std::size_t>(m);
    case OpKind::kSyrk:
    case OpKind::kSyr2k: return static_cast<std::size_t>(n * n);
    default: return static_cast<std::size_t>(m * n);
  }
}

void Op::gemm_shape(index_t& gm, index_t& gn, index_t& gk) const {
  gm = m;
  gn = n;
  gk = k;
  if (kind == OpKind::kSyrk || kind == OpKind::kSyr2k) gm = n;
  if (kind == OpKind::kSymm || kind == OpKind::kTrmm || kind == OpKind::kTrsm)
    gk = ka();
}

augem::frontend::SmallGemmSpec Op::small_spec() const {
  augem::frontend::SmallGemmSpec spec;
  spec.m = static_cast<int>(m);
  spec.n = static_cast<int>(n);
  spec.k = static_cast<int>(k);
  spec.epilogue.scale = !(alpha == 1.0 && (beta == 1.0 || beta == 0.0));
  spec.epilogue.bias = bias;
  spec.epilogue.relu = relu;
  return spec;
}

std::shared_ptr<const augem::runtime::CachedKernel> Op::resolve(
    augem::runtime::KernelRuntime& rt) const {
  using augem::runtime::classify_gemm_shape;
  using augem::runtime::classify_vector_shape;
  switch (kind) {
    case OpKind::kBatch: return rt.resolve_small(small_spec());
    case OpKind::kAxpy:
      return rt.resolve(KernelKind::kAxpy, classify_vector_shape(n));
    case OpKind::kDot:
      return rt.resolve(KernelKind::kDot, classify_vector_shape(n));
    case OpKind::kGemv:
      return rt.resolve(KernelKind::kGemv, classify_vector_shape(m));
    default: {
      index_t gm, gn, gk;
      gemm_shape(gm, gn, gk);
      return rt.resolve(KernelKind::kGemm, classify_gemm_shape(gm, gn, gk));
    }
  }
}

std::string Op::key_name() const {
  using augem::runtime::classify_gemm_shape;
  using augem::runtime::classify_vector_shape;
  using augem::runtime::shape_class_name;
  switch (kind) {
    case OpKind::kBatch: return "gemm" + small_spec().to_string();
    case OpKind::kAxpy:
      return std::string("axpy/") + shape_class_name(classify_vector_shape(n));
    case OpKind::kDot:
      return std::string("dot/") + shape_class_name(classify_vector_shape(n));
    case OpKind::kGemv:
      return std::string("gemv/") + shape_class_name(classify_vector_shape(m));
    default: {
      index_t gm, gn, gk;
      gemm_shape(gm, gn, gk);
      return std::string("gemm/") +
             shape_class_name(classify_gemm_shape(gm, gn, gk));
    }
  }
}

std::string Op::describe() const {
  std::ostringstream os;
  os << op_kind_name(kind) << " m=" << m << " n=" << n << " k=" << k;
  if (kind == OpKind::kBatch)
    os << " batch=" << batch << (bias ? " +bias" : "") << (relu ? " +relu" : "");
  if (is_level3(kind))
    os << " side=" << (side == Side::kLeft ? 'L' : 'R')
       << " uplo=" << (uplo == Uplo::kLower ? 'L' : 'U')
       << " trans=" << (trans == Trans::kNo ? 'N' : 'T');
  if (kind == OpKind::kGemm)
    os << " ta=" << (ta == Trans::kNo ? 'N' : 'T')
       << " tb=" << (tb == Trans::kNo ? 'N' : 'T');
  os << " alpha=" << alpha << " beta=" << beta;
  return os.str();
}

std::vector<std::size_t> first_of_each_key(const Workload& wl) {
  std::vector<std::size_t> firsts;
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < wl.ops.size(); ++i) {
    const std::string k = wl.ops[i].key_name();
    if (std::find(seen.begin(), seen.end(), k) != seen.end()) continue;
    seen.push_back(k);
    firsts.push_back(i);
  }
  return firsts;
}

// ---- operands --------------------------------------------------------------

Operands operands(const Op& op, const Pools& pools) {
  Operands o;
  o.a = pools.a.data();
  o.b = pools.b.data();
  o.c0 = pools.c0.data();
  o.bias = op.bias ? pools.bias.data() : nullptr;
  switch (op.kind) {
    case OpKind::kGemm:
      o.lda = op.ta == Trans::kNo ? op.m : op.k;
      o.ldb = op.tb == Trans::kNo ? op.k : op.n;
      o.ldc = op.m;
      break;
    case OpKind::kBatch:
      o.lda = op.m;
      o.ldb = op.k;
      o.ldc = op.m;
      o.stride_a = op.m * op.k;
      o.stride_b = op.k * op.n;
      o.stride_c = op.m * op.n;
      break;
    case OpKind::kGemv:
      o.lda = op.m;
      break;
    case OpKind::kSymm:
      o.lda = op.ka();
      o.ldb = op.m;
      o.ldc = op.m;
      break;
    case OpKind::kSyrk:
    case OpKind::kSyr2k:
      o.lda = op.trans == Trans::kNo ? op.n : op.k;
      o.ldb = o.lda;
      o.ldc = op.n;
      break;
    case OpKind::kTrmm:
    case OpKind::kTrsm:
      o.a = pools.tri.data() + op.tri_off;
      o.lda = op.ka();
      o.ldc = op.m;
      break;
    default:
      break;
  }
  return o;
}

void load_output(const Op& op, const Pools& pools, double* out) {
  std::memcpy(out, pools.c0.data(), op.out_doubles() * sizeof(double));
}

void call_public(augem::blas::Blas& lib, const Op& op, const Pools& pools,
                 double* out) {
  const Operands o = operands(op, pools);
  switch (op.kind) {
    case OpKind::kGemm:
      lib.gemm(op.ta, op.tb, op.m, op.n, op.k, op.alpha, o.a, o.lda, o.b,
               o.ldb, op.beta, out, o.ldc);
      break;
    case OpKind::kBatch:
      lib.gemm_batch_strided(op.m, op.n, op.k, op.alpha, o.a, o.lda,
                             o.stride_a, o.b, o.ldb, o.stride_b, op.beta, out,
                             o.ldc, o.stride_c, op.batch, o.bias, op.m,
                             op.relu);
      break;
    case OpKind::kAxpy:
      lib.axpy(op.n, op.alpha, o.a, out);
      break;
    case OpKind::kDot:
      out[0] = lib.dot(op.n, o.a, o.b);
      break;
    case OpKind::kGemv:
      lib.gemv(op.m, op.n, op.alpha, o.a, o.lda, o.b, op.beta, out);
      break;
    case OpKind::kSymm:
      lib.symm(op.side, op.uplo, op.m, op.n, op.alpha, o.a, o.lda, o.b, o.ldb,
               op.beta, out, o.ldc);
      break;
    case OpKind::kSyrk:
      lib.syrk(op.uplo, op.trans, op.n, op.k, op.alpha, o.a, o.lda, op.beta,
               out, o.ldc);
      break;
    case OpKind::kSyr2k:
      lib.syr2k(op.uplo, op.trans, op.n, op.k, op.alpha, o.a, o.lda, o.b,
                o.ldb, op.beta, out, o.ldc);
      break;
    case OpKind::kTrmm:
      lib.trmm(op.side, op.uplo, op.trans, op.m, op.n, op.alpha, o.a, o.lda,
               out, o.ldc);
      break;
    case OpKind::kTrsm:
      lib.trsm(op.side, op.uplo, op.trans, op.m, op.n, op.alpha, o.a, o.lda,
               out, o.ldc);
      break;
  }
}

// ---- oracle checks ---------------------------------------------------------

namespace {

/// Accumulates a dot product together with the magnitude bound of its
/// terms, the two inputs a CompareSpec needs.
struct Sum {
  double value = 0.0, scale = 0.0;
  void add(double t) {
    value += t;
    scale = std::max(scale, std::fabs(t));
  }
};

bool close(double got, double want, index_t depth, double scale) {
  augem::check::CompareSpec spec;
  spec.depth = std::max<index_t>(depth, 1);
  spec.scale = std::max(scale, 1e-300);
  return spec.close(got, want);
}

/// Element (i, j) of the exact result of a sampled-check op, with its
/// reduction depth and term scale.
bool check_element(const Op& op, const Operands& o, const double* out,
                   index_t i, index_t j) {
  const double c0 = at(o.c0, o.ldc, i, j);
  Sum s;
  index_t depth = op.k;
  switch (op.kind) {
    case OpKind::kGemm:
      for (index_t l = 0; l < op.k; ++l)
        s.add(op_at(o.a, o.lda, op.ta, i, l) * op_at(o.b, o.ldb, op.tb, l, j));
      break;
    case OpKind::kSymm:
      depth = op.ka();
      for (index_t l = 0; l < depth; ++l)
        s.add(op.side == Side::kLeft
                  ? sym_at(o.a, o.lda, op.uplo, i, l) * at(o.b, o.ldb, l, j)
                  : at(o.b, o.ldb, i, l) * sym_at(o.a, o.lda, op.uplo, l, j));
      break;
    case OpKind::kSyrk:
    case OpKind::kSyr2k: {
      const bool stored = op.uplo == Uplo::kLower ? i >= j : i <= j;
      if (!stored) return out[j * o.ldc + i] == c0;  // never touched
      for (index_t l = 0; l < op.k; ++l) {
        const double ail = op_at(o.a, o.lda, op.trans, i, l);
        const double ajl = op_at(o.a, o.lda, op.trans, j, l);
        if (op.kind == OpKind::kSyrk) {
          s.add(ail * ajl);
        } else {
          s.add(ail * op_at(o.b, o.ldb, op.trans, j, l));
          s.add(op_at(o.b, o.ldb, op.trans, i, l) * ajl);
        }
      }
      break;
    }
    case OpKind::kTrmm:
      depth = op.ka();
      for (index_t l = 0; l < depth; ++l)
        s.add(op.side == Side::kLeft
                  ? tri_at(o.a, o.lda, op.uplo, op.trans, i, l) *
                        at(o.c0, o.ldc, l, j)
                  : at(o.c0, o.ldc, i, l) *
                        tri_at(o.a, o.lda, op.uplo, op.trans, l, j));
      return close(out[j * o.ldc + i], op.alpha * s.value, depth,
                   std::fabs(op.alpha) * s.scale);
    default:
      AUGEM_FAIL("no sampled check for " << op_kind_name(op.kind));
  }
  const double want =
      (op.beta == 0.0 ? 0.0 : op.beta * c0) + op.alpha * s.value;
  return close(out[j * o.ldc + i], want, depth + 1,
               std::max(std::fabs(op.alpha) * s.scale, std::fabs(op.beta * c0)));
}

/// TRSM residual: op(A)·X ≈ αB along sampled columns (left) or rows
/// (right) of the solution X in `out`.
bool check_trsm(const Op& op, const Operands& o, const double* out,
                Rng& rng, int samples) {
  const index_t ka = op.ka();
  const double* x = out;
  const int lines = std::max(1, samples / 16);
  for (int t = 0; t < lines; ++t) {
    if (op.side == Side::kLeft) {
      const index_t j = t == 0 ? 0 : rng.uniform_int(0, op.n - 1);
      for (index_t i = 0; i < op.m; ++i) {
        Sum s;
        for (index_t l = 0; l < ka; ++l)
          s.add(tri_at(o.a, o.lda, op.uplo, op.trans, i, l) *
                at(x, o.ldc, l, j));
        if (!close(s.value, op.alpha * at(o.c0, o.ldc, i, j), ka, s.scale))
          return false;
      }
    } else {
      const index_t i = t == 0 ? 0 : rng.uniform_int(0, op.m - 1);
      for (index_t j = 0; j < op.n; ++j) {
        Sum s;
        for (index_t l = 0; l < ka; ++l)
          s.add(at(x, o.ldc, i, l) *
                tri_at(o.a, o.lda, op.uplo, op.trans, l, j));
        if (!close(s.value, op.alpha * at(o.c0, o.ldc, i, j), ka, s.scale))
          return false;
      }
    }
  }
  return true;
}

/// Whole-output oracle for the small calls: the same call on the
/// reference library (blas::ref, and the reference batch loop).
bool check_full(const Op& op, const Pools& pools, const double* out) {
  const Operands o = operands(op, pools);
  std::vector<double> want(op.out_doubles());
  load_output(op, pools, want.data());
  index_t depth = op.k;
  double scale = std::max({std::fabs(op.alpha), std::fabs(op.beta), 1.0});
  switch (op.kind) {
    case OpKind::kGemm:
      augem::blas::ref::gemm(op.ta, op.tb, op.m, op.n, op.k, op.alpha, o.a,
                             o.lda, o.b, o.ldb, op.beta, want.data(), o.ldc);
      break;
    case OpKind::kBatch: {
      static const auto ref = augem::blas::make_refblas();
      call_public(*ref, op, pools, want.data());
      depth = op.k + 2;
      break;
    }
    case OpKind::kAxpy:
      augem::blas::ref::axpy(op.n, op.alpha, o.a, want.data());
      depth = 1;
      break;
    case OpKind::kDot:
      want[0] = augem::blas::ref::dot(op.n, o.a, o.b);
      depth = op.n;
      break;
    case OpKind::kGemv:
      augem::blas::ref::gemv(op.m, op.n, op.alpha, o.a, o.lda, o.b, op.beta,
                             want.data());
      depth = op.n;
      break;
    default:
      AUGEM_FAIL("no full check for " << op_kind_name(op.kind));
  }
  for (std::size_t e = 0; e < want.size(); ++e)
    if (!close(out[e], want[e], depth + 1, scale)) return false;
  return true;
}

}  // namespace

bool check_output(const Op& op, const Pools& pools, const double* out,
                  std::uint64_t sample_seed, int samples) {
  if (op.full_check) return check_full(op, pools, out);
  const Operands o = operands(op, pools);
  Rng rng(sample_seed);
  if (op.kind == OpKind::kTrsm) return check_trsm(op, o, out, rng, samples);
  const index_t rows =
      op.kind == OpKind::kSyrk || op.kind == OpKind::kSyr2k ? op.n : op.m;
  // Element (0, 0) is always among the samples (the self-test corrupts it).
  for (int t = 0; t < samples; ++t) {
    const index_t i = t == 0 ? 0 : rng.uniform_int(0, rows - 1);
    const index_t j = t == 0 ? 0 : rng.uniform_int(0, op.n - 1);
    if (!check_element(op, o, out, i, j)) return false;
  }
  return true;
}

// ---- workload construction -------------------------------------------------

namespace {

index_t pick(Rng& rng, index_t lo, index_t hi) { return rng.uniform_int(lo, hi); }

Trans pick_trans(Rng& rng) { return rng.uniform_int(0, 1) ? Trans::kYes : Trans::kNo; }

/// Seeded (alpha, beta): beta drawn from {0, 1, general} — the three
/// netlib beta regimes the driver handles differently.
void pick_scalars(Rng& rng, Op& op) {
  op.alpha = rng.uniform(0.5, 1.5);
  switch (rng.uniform_int(0, 2)) {
    case 0: op.beta = 0.0; break;
    case 1: op.beta = 1.0; break;
    default: op.beta = rng.uniform(-1.5, 1.5); break;
  }
}

/// Doubles each operand pool must hold for `op` (offset 0, tight ld).
void grow_pools(const Op& op, std::size_t& na, std::size_t& nb,
                std::size_t& nc, std::size_t& nbias) {
  const auto sz = [](index_t x) { return static_cast<std::size_t>(x); };
  switch (op.kind) {
    case OpKind::kGemm:
      na = std::max(na, sz(op.m * op.k));
      nb = std::max(nb, sz(op.k * op.n));
      break;
    case OpKind::kBatch:
      na = std::max(na, sz(op.m * op.k * op.batch));
      nb = std::max(nb, sz(op.k * op.n * op.batch));
      nbias = std::max(nbias, sz(op.m * op.batch));
      break;
    case OpKind::kAxpy:
    case OpKind::kDot:
      na = std::max(na, sz(op.n));
      nb = std::max(nb, sz(op.n));
      break;
    case OpKind::kGemv:
      na = std::max(na, sz(op.m * op.n));
      nb = std::max(nb, sz(op.n));
      break;
    case OpKind::kSymm:
      na = std::max(na, sz(op.ka() * op.ka()));
      nb = std::max(nb, sz(op.m * op.n));
      break;
    case OpKind::kSyrk:
    case OpKind::kSyr2k:
      na = std::max(na, sz(op.n * op.k));
      nb = std::max(nb, sz(op.n * op.k));
      break;
    default:
      break;
  }
  if (is_level3(op.kind)) {
    // The bulk-GEMM shape, which the pack probe replays as a plain GEMM.
    index_t gm, gn, gk;
    op.gemm_shape(gm, gn, gk);
    na = std::max(na, sz(gm * gk));
    nb = std::max(nb, sz(gk * gn));
  }
  nc = std::max(nc, op.out_doubles());
}

/// Fills the pools from the seed. TRMM/TRSM operands get private
/// triangles with a dominant diagonal, so every solve is well conditioned.
void fill_pools(Workload& wl, Rng& rng) {
  std::size_t na = 1, nb = 1, nc = 1, nbias = 1, ntri = 0;
  for (Op& op : wl.ops) {
    grow_pools(op, na, nb, nc, nbias);
    if (op.kind == OpKind::kTrmm || op.kind == OpKind::kTrsm) {
      op.tri_off = ntri;
      ntri += static_cast<std::size_t>(op.ka() * op.ka());
    }
  }
  // Power-of-two capacities: the seed moves extents within narrow bands,
  // and the resident set (peak_rss_mb) must not move with them.
  for (std::size_t* n : {&na, &nb, &nc, &nbias, &ntri}) *n = std::bit_ceil(*n);
  Pools& p = wl.pools;
  p.a.resize(na);
  p.b.resize(nb);
  p.c0.resize(nc);
  p.bias.resize(nbias);
  p.tri.resize(std::max<std::size_t>(ntri, 1));
  rng.fill(p.a);
  rng.fill(p.b);
  rng.fill(p.c0);
  rng.fill(p.bias);
  rng.fill(p.tri);
  for (const Op& op : wl.ops) {
    if (op.kind != OpKind::kTrmm && op.kind != OpKind::kTrsm) continue;
    const index_t ka = op.ka();
    for (index_t d = 0; d < ka; ++d)
      p.tri[op.tri_off + static_cast<std::size_t>(d * ka + d)] =
          static_cast<double>(ka) + rng.uniform(0.0, 1.0);
  }
}

Op gemm_op(Rng& rng, index_t m, index_t n, index_t k, bool full) {
  Op op;
  op.kind = OpKind::kGemm;
  op.m = m;
  op.n = n;
  op.k = k;
  op.ta = pick_trans(rng);
  op.tb = pick_trans(rng);
  pick_scalars(rng, op);
  op.full_check = full;
  return op;
}

/// Square (multiples of 32), ragged (odd extents: never a multiple of the
/// 8×4 register tile) and panel shapes in the skinny class, two each. The
/// operand layouts are fixed per position, so every cycle packs the same mix
/// whatever the seed (which picks extents within each band, scalars and
/// values).
void build_gemm_large(Workload& wl, Rng& rng, bool tiny) {
  const index_t s = tiny ? 16 : 1;
  for (int rep = 0; rep < 2; ++rep) {
    const Trans t1 = rep == 0 ? Trans::kNo : Trans::kYes;
    const Trans t2 = rep == 0 ? Trans::kYes : Trans::kNo;
    auto add = [&](index_t m, index_t n, index_t k, Trans ta, Trans tb) {
      Op op = gemm_op(rng, m, n, k, false);
      op.ta = ta;
      op.tb = tb;
      wl.ops.push_back(op);
    };
    const index_t sq = (1664 + 32 * pick(rng, 0, 3)) / s;
    add(sq, sq, sq, t1, t1);
    auto ragged = [&] { return (1601 + 2 * pick(rng, 0, 15)) / s | 1; };
    const index_t rm = ragged(), rn = ragged(), rk = ragged();
    add(rm, rn, rk, t1, t2);
    const index_t tall = (1921 + 2 * pick(rng, 0, 63)) / s | 1;
    const index_t thin = tiny ? 9 + 2 * pick(rng, 0, 3) : 97 + 2 * pick(rng, 0, 47);
    const index_t depth = (1025 + 2 * pick(rng, 0, 255)) / s;
    if (rep == 0)
      add(tall, thin, depth, t2, t1);
    else
      add(thin, tall, depth, t2, t1);
  }
  wl.probe_m = wl.ops[0].m;
  wl.probe_n = wl.ops[0].n;
  wl.probe_k = wl.ops[0].k;
}

/// The batched small-kernel shapes and epilogue variants; their keys are
/// part of the cold-start key set, so they never depend on the seed.
constexpr int kBatchShapes[4][3] = {{4, 4, 4}, {8, 4, 8}, {8, 8, 8}, {16, 16, 16}};
constexpr int kEpilogues = 4;  // plain, bias+relu, scale, scale+bias+relu

Op batch_op(Rng& rng, int shape, int epi, index_t batch) {
  Op op;
  op.kind = OpKind::kBatch;
  op.m = kBatchShapes[shape][0];
  op.n = kBatchShapes[shape][1];
  op.k = kBatchShapes[shape][2];
  op.batch = batch;
  const bool scale = epi >= 2;
  op.bias = op.relu = epi == 1 || epi == 3;
  if (scale) {
    op.alpha = rng.uniform(0.5, 0.9);
    op.beta = rng.uniform(1.1, 1.5);
  } else {
    op.alpha = 1.0;
    op.beta = rng.uniform_int(0, 1) ? 1.0 : 0.0;
  }
  return op;
}

void build_small_calls(Workload& wl, Rng& rng, bool tiny) {
  for (int shape = 0; shape < 4; ++shape)
    for (int epi = 0; epi < kEpilogues; ++epi) {
      wl.ops.push_back(batch_op(rng, shape, epi, pick(rng, 1, 4)));
      wl.ops.push_back(batch_op(rng, shape, epi, tiny ? pick(rng, 4, 8) : pick(rng, 48, 80)));
      // The largest tier keeps every operand pool near 2 MiB (4096
      // instances of the narrow shapes, 1024 of 16³), so the batches run
      // from cache rather than contending for memory bandwidth.
      const index_t big = 4096 / std::max(1, kBatchShapes[shape][0] * kBatchShapes[shape][2] / 64);
      wl.ops.push_back(batch_op(rng, shape, epi, tiny ? pick(rng, 16, 32) : pick(rng, big - big / 16, big)));
    }
  // Extents are stratified: call t draws from the t-th of equal bands, so
  // the spread of call costs (and the median call) is nearly the same for
  // every seed while each extent is still drawn from the seed.
  auto band = [&](int t, int bands, index_t lo, index_t hi) {
    const index_t w = (hi - lo + 1) / bands;
    return pick(rng, lo + t * w, lo + (t + 1) * w - 1);
  };
  const index_t vmax = tiny ? 512 : 4096;
  for (int t = 0; t < 16; ++t) {
    Op op = gemm_op(rng, band(t, 16, 1, 64), band(15 - t, 16, 1, 64),
                    band((t * 7) % 16, 16, 1, 64), true);
    op.ta = t % 2 ? Trans::kYes : Trans::kNo;
    op.tb = t / 2 % 2 ? Trans::kYes : Trans::kNo;
    wl.ops.push_back(op);
  }
  for (int t = 0; t < 8; ++t) {
    Op axpy;
    axpy.kind = OpKind::kAxpy;
    axpy.n = band(t, 8, 16, vmax);
    axpy.alpha = rng.uniform(0.5, 1.5);
    wl.ops.push_back(axpy);
    Op dot;
    dot.kind = OpKind::kDot;
    dot.n = band(t, 8, 16, vmax);
    wl.ops.push_back(dot);
    Op gemv;
    gemv.kind = OpKind::kGemv;
    gemv.m = band(t, 8, 16, vmax);
    gemv.n = band(7 - t, 8, 16, 64);
    pick_scalars(rng, gemv);
    wl.ops.push_back(gemv);
  }
  std::shuffle(wl.ops.begin(), wl.ops.end(), rng.engine());
  wl.probe_m = wl.probe_n = wl.probe_k = 64;
}

/// Each routine `reps` times. The seed picks side, uplo and trans of a
/// routine's first call; the second call takes the opposite of each, so
/// every cycle holds both sides, both triangles and both transposes of every
/// routine and its cost mix barely depends on the seed (which also picks
/// extents, scalars and values).
void build_level3(Workload& wl, Rng& rng, index_t lo, index_t hi, int reps) {
  const OpKind kinds[] = {OpKind::kSymm, OpKind::kSyrk, OpKind::kSyr2k,
                          OpKind::kTrmm, OpKind::kTrsm};
  bool left[5], lower[5], notrans[5];
  for (int r = 0; r < 5; ++r) {
    left[r] = rng.uniform_int(0, 1) != 0;
    lower[r] = rng.uniform_int(0, 1) != 0;
    notrans[r] = rng.uniform_int(0, 1) != 0;
  }
  for (int rep = 0; rep < reps; ++rep)
    for (int r = 0; r < 5; ++r) {
      const bool flip = rep % 2 == 1;
      Op op;
      op.kind = kinds[r];
      op.m = pick(rng, lo, hi);
      op.n = pick(rng, lo, hi);
      op.k = pick(rng, lo, hi);
      op.side = left[r] != flip ? Side::kLeft : Side::kRight;
      op.uplo = lower[r] != flip ? Uplo::kLower : Uplo::kUpper;
      op.trans = notrans[r] != flip ? Trans::kNo : Trans::kYes;
      pick_scalars(rng, op);
      if (op.kind == OpKind::kTrmm || op.kind == OpKind::kTrsm) op.beta = 0.0;
      op.full_check = false;
      wl.ops.push_back(op);
    }
  wl.probe_m = wl.probe_n = wl.probe_k = hi;
}

/// The cold-start check calls: one small call per key of the compute
/// workloads (each resolves exactly that key).
Workload make_cold_key_calls(std::uint64_t seed) {
  Workload wl;
  wl.name = "cold_start";
  wl.cold = true;
  Rng rng(seed ^ 0xc01d);
  // One cheap call per key: the three GEMM shape classes, the three
  // Level-1/2 kernels, and every batched small-kernel variant.
  wl.ops.push_back(gemm_op(rng, 96, 96, 96, true));    // large
  wl.ops.push_back(gemm_op(rng, 256, 16, 128, true));  // skinny
  wl.ops.push_back(gemm_op(rng, 32, 32, 32, true));    // small
  Op axpy;
  axpy.kind = OpKind::kAxpy;
  axpy.n = 1024;
  axpy.alpha = 0.75;
  wl.ops.push_back(axpy);
  Op dot;
  dot.kind = OpKind::kDot;
  dot.n = 1024;
  wl.ops.push_back(dot);
  Op gemv;
  gemv.kind = OpKind::kGemv;
  gemv.m = 1024;
  gemv.n = 32;
  pick_scalars(rng, gemv);
  wl.ops.push_back(gemv);
  for (int shape = 0; shape < 4; ++shape)
    for (int epi = 0; epi < kEpilogues; ++epi)
      wl.ops.push_back(batch_op(rng, shape, epi, 8));
  fill_pools(wl, rng);
  wl.probe_m = wl.probe_n = wl.probe_k = 2048;
  return wl;
}

}  // namespace

Workload make_level3_probe(std::uint64_t seed) {
  Workload wl;
  wl.name = "level3_probe";
  Rng rng(seed ^ 0x13);
  build_level3(wl, rng, 256, 272, 1);
  fill_pools(wl, rng);
  return wl;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  if (name == "cold_start") return make_cold_key_calls(seed);
  Workload wl;
  wl.name = name;
  Rng rng(seed);
  if (name == "gemm_large")
    build_gemm_large(wl, rng, tiny);
  else if (name == "small_calls")
    build_small_calls(wl, rng, tiny);
  else if (name == "level3")
    build_level3(wl, rng, tiny ? 64 : 1025, tiny ? 80 : 1040, 2);
  else
    AUGEM_FAIL("unknown workload '" << name << "'");
  fill_pools(wl, rng);
  return wl;
}

}  // namespace perfbench
