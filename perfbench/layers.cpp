// Per-layer measurement: the span tracer, the traced replicas of each
// public call, and the layer probes (kernel rates, resolve latency, call
// overheads, generator stages, tuning, tunedb replay, the FMA roofline).
//
// Spans are recorded from outside the library, around the public functions
// RuntimeBlas composes; nothing inside src/ is instrumented.

#include <immintrin.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "analysis/analyzer.hpp"
#include "analysis/contract.hpp"
#include "asmgen/codegen.hpp"
#include "augem/augem.hpp"
#include "augem/augem_blas.hpp"
#include "bench.hpp"
#include "blas/driver.hpp"
#include "blas/level3.hpp"
#include "blas/pack.hpp"
#include "jit/jit.hpp"
#include "match/identifier.hpp"
#include "runtime/runtime_blas.hpp"
#include "runtime/tunedb.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "transform/ckernel.hpp"
#include "tuning/tuner.hpp"

namespace perfbench {

using augem::KernelSet;
using augem::SmallGemmFn;
using augem::ThreadPool;
using augem::blas::at;
using augem::blas::BlockKernel;
using augem::blas::GemmContext;
using augem::frontend::KernelKind;
using augem::runtime::CachedKernel;
using augem::runtime::KernelRuntime;

// ---- tracer ------------------------------------------------------------------

namespace {
thread_local std::uint64_t tl_open_span = 0;  // innermost open span
}  // namespace

const char* layer_name(Layer l) {
  static const char* const names[kLayers] = {
      "runtime.resolve", "blas.block_kernel", "kernel.gemm_fn",
      "kernel.small_fn", "kernel.level1"};
  return names[l];
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<int>(buffers_.size() - 1);
  }
  return *buffer;
}

std::uint64_t Tracer::begin_call(const char* name) {
  const std::uint64_t id = next_id_.fetch_add(1);
  current_call_.store(id);
  Buffer& b = local();
  b.spans.push_back(Span{name, now_s(), 0.0, id, 0, id, b.thread});
  return id;
}

void Tracer::end_call(std::uint64_t id) {
  const double t = now_s();
  Buffer& b = local();
  for (auto it = b.spans.rbegin(); it != b.spans.rend(); ++it)
    if (it->id == id) {
      it->end = t;
      break;
    }
  current_call_.store(0);
}

void Tracer::record(Layer layer, double start, double end, std::uint64_t id,
                    std::uint64_t parent) {
  const std::uint64_t call = current_call_.load();
  Buffer& b = local();
  b.spans.push_back(Span{layer_name(layer), start, end, id,
                         parent != 0 ? parent : call, call, b.thread});
  b.sums[layer] += end - start;
}

LayerTimes Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LayerTimes sums{};
  for (const auto& b : buffers_)
    for (int l = 0; l < kLayers; ++l) sums[l] += b->sums[l];
  return sums;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& x, const Span& y) { return x.start < y.start; });
  return all;
}

ScopedSpan::ScopedSpan(Layer layer)
    : layer_(layer),
      start_(now_s()),
      id_(Tracer::get().new_id()),
      parent_(tl_open_span) {
  tl_open_span = id_;
}

ScopedSpan::~ScopedSpan() {
  const double end = now_s();
  tl_open_span = parent_;
  Tracer::get().record(layer_, start_, end, id_, parent_);
}

// ---- traced replicas ---------------------------------------------------------

namespace {

/// The context RuntimeBlas builds for a GEMM-shaped call: shape-aware
/// blocking and threading, jr split on the kernel's column-tile multiple.
GemmContext runtime_context(index_t m, index_t n, index_t k, int nr) {
  GemmContext ctx = augem::blas::gemm_context_for_shape(augem::host_arch(), m, n, k);
  ctx.jr_granule = std::max<index_t>(8, nr);
  return ctx;
}

int participants(const GemmContext& ctx) {
  return ctx.pool != nullptr ? std::min(ctx.threads, ctx.pool->num_threads()) : 1;
}

/// The padded block kernel RuntimeBlas passes to the driver, with a span
/// around the whole block kernel and one around each raw GemmFn call.
BlockKernel traced_block_kernel(const CachedKernel& kernel) {
  auto* fn = kernel.fn<KernelSet::GemmFn>();
  BlockKernel padded = augem::padded_gemm_block_kernel(
      [fn](long mc, long nc, long kc, const double* pa, const double* pb,
           double* c, long ldc) {
        ScopedSpan span(kGemmFn);
        fn(mc, nc, kc, pa, pb, c, ldc);
      },
      kernel.mr, kernel.nr);
  return [padded](index_t mc, index_t nc, index_t kc, const double* pa,
                  const double* pb, double* c, index_t ldc) {
    ScopedSpan span(kBlockKernel);
    padded(mc, nc, kc, pa, pb, c, ldc);
  };
}

std::shared_ptr<const CachedKernel> traced_resolve(KernelRuntime& rt,
                                                   const Op& op) {
  ScopedSpan span(kResolve);
  return op.resolve(rt);
}

}  // namespace

ReplicaTiming call_replica(KernelRuntime& rt, const Op& op, const Pools& pools,
                           double* out, augem::blas::Level3Stats* stats) {
  const Operands o = operands(op, pools);
  ReplicaTiming timing;
  Tracer& tracer = Tracer::get();
  const auto before = tracer.totals();
  const double t0 = now_s();
  const std::uint64_t call = tracer.begin_call(op_kind_name(op.kind));
  const auto kernel = traced_resolve(rt, op);
  switch (op.kind) {
    case OpKind::kGemm: {
      const GemmContext ctx = runtime_context(op.m, op.n, op.k, kernel->nr);
      timing.threads = participants(ctx);
      augem::blas::blocked_gemm(op.ta, op.tb, op.m, op.n, op.k, op.alpha, o.a,
                                o.lda, o.b, o.ldb, op.beta, out, o.ldc, ctx,
                                traced_block_kernel(*kernel));
      break;
    }
    case OpKind::kBatch: {
      // RuntimeBlas::gemm_batch_strided's instance loop and partition.
      auto* fn = kernel->fn<SmallGemmFn>();
      const bool zero_first = op.beta == 0.0;
      auto run_range = [&](index_t lo, index_t hi) {
        ScopedSpan span(kSmallFn);
        for (index_t p = lo; p < hi; ++p) {
          double* cp = out + p * o.stride_c;
          if (zero_first)
            for (index_t j = 0; j < op.n; ++j)
              std::fill_n(&at(cp, o.ldc, 0, j), op.m, 0.0);
          fn(o.a + p * o.stride_a, o.lda, o.b + p * o.stride_b, o.ldb, cp,
             o.ldc, o.bias == nullptr ? nullptr : o.bias + p * op.m, op.alpha,
             op.beta);
        }
      };
      ThreadPool& pool = ThreadPool::global();
      if (op.batch < 4 * pool.num_threads() || pool.num_threads() == 1) {
        run_range(0, op.batch);
      } else {
        const int nt = pool.num_threads();
        timing.threads = nt;
        pool.run([&](int tid) {
          run_range(op.batch * tid / nt, op.batch * (tid + 1) / nt);
        });
      }
      break;
    }
    case OpKind::kAxpy: {
      ScopedSpan span(kLevel1);
      augem::axpy_with_blas_semantics(kernel->fn<KernelSet::AxpyFn>(), op.n,
                                      op.alpha, o.a, out);
      break;
    }
    case OpKind::kDot: {
      ScopedSpan span(kLevel1);
      out[0] = augem::dot_with_blas_semantics(kernel->fn<KernelSet::DotFn>(),
                                              op.n, o.a, o.b);
      break;
    }
    case OpKind::kGemv: {
      ScopedSpan span(kLevel1);
      augem::gemv_with_blas_semantics(kernel->fn<KernelSet::GemvFn>(), op.m,
                                      op.n, op.alpha, o.a, o.lda, o.b, op.beta,
                                      out);
      break;
    }
    default: {
      // RuntimeBlas::level3_config: one kernel for the bulk-GEMM shape, the
      // shape-aware context, the Blas default decomposition block (128).
      index_t gm, gn, gk;
      op.gemm_shape(gm, gn, gk);
      augem::blas::Level3Config cfg;
      cfg.ctx = runtime_context(gm, gn, gk, kernel->nr);
      cfg.kernel = traced_block_kernel(*kernel);
      cfg.block = 128;
      cfg.stats = stats;
      timing.threads = participants(cfg.ctx);
      switch (op.kind) {
        case OpKind::kSymm:
          augem::blas::level3_symm(cfg, op.side, op.uplo, op.m, op.n, op.alpha,
                                   o.a, o.lda, o.b, o.ldb, op.beta, out, o.ldc);
          break;
        case OpKind::kSyrk:
          augem::blas::level3_syrk(cfg, op.uplo, op.trans, op.n, op.k,
                                   op.alpha, o.a, o.lda, op.beta, out, o.ldc);
          break;
        case OpKind::kSyr2k:
          augem::blas::level3_syr2k(cfg, op.uplo, op.trans, op.n, op.k,
                                    op.alpha, o.a, o.lda, o.b, o.ldb, op.beta,
                                    out, o.ldc);
          break;
        case OpKind::kTrmm:
          augem::blas::level3_trmm(cfg, op.side, op.uplo, op.trans, op.m, op.n,
                                   op.alpha, o.a, o.lda, out, o.ldc);
          break;
        case OpKind::kTrsm:
          augem::blas::level3_trsm(cfg, op.side, op.uplo, op.trans, op.m, op.n,
                                   op.alpha, o.a, o.lda, out, o.ldc);
          break;
        default:
          AUGEM_FAIL("no replica for " << op_kind_name(op.kind));
      }
    }
  }
  tracer.end_call(call);
  timing.seconds = now_s() - t0;
  const LayerTimes after = tracer.totals();
  for (int l = 0; l < kLayers; ++l) timing.layer_s[l] = after[l] - before[l];
  return timing;
}

// ---- packing ----------------------------------------------------------------

PackTiming measure_packing(KernelRuntime& rt, const Op& op,
                           const Pools& pools) {
  AUGEM_CHECK(op.kind == OpKind::kGemm, "packing is measured on GEMM calls");
  const Operands o = operands(op, pools);
  const auto kernel = op.resolve(rt);
  const augem::blas::BlockSizes s = runtime_context(op.m, op.n, op.k, kernel->nr).sizes;
  std::vector<double> pa(static_cast<std::size_t>(s.mc * s.kc));
  std::vector<double> pb(static_cast<std::size_t>(s.kc * s.nc));
  PackTiming t;
  // The serial driver's pack sequence: B once per (jc, pc), A once per
  // (jc, pc, ic).
  const double t0 = now_s();
  for (index_t jc = 0; jc < op.n; jc += s.nc) {
    const index_t nc = std::min(s.nc, op.n - jc);
    for (index_t pc = 0; pc < op.k; pc += s.kc) {
      const index_t kc = std::min(s.kc, op.k - pc);
      augem::blas::pack_b_block(op.tb, o.b, o.ldb, pc, jc, kc, nc, pb.data());
      t.bytes += 8.0 * static_cast<double>(kc * nc);
      for (index_t ic = 0; ic < op.m; ic += s.mc) {
        const index_t mc = std::min(s.mc, op.m - ic);
        augem::blas::pack_a_block(op.ta, o.a, o.lda, ic, pc, mc, kc, op.alpha,
                                  pa.data());
        t.bytes += 8.0 * static_cast<double>(mc * kc);
      }
    }
  }
  t.pack_s = now_s() - t0;
  std::vector<double> c(op.out_doubles());
  load_output(op, pools, c.data());
  const BlockKernel bk = augem::padded_gemm_block_kernel(
      kernel->fn<KernelSet::GemmFn>(), kernel->mr, kernel->nr);
  const double t1 = now_s();
  augem::blas::blocked_gemm(op.ta, op.tb, op.m, op.n, op.k, op.alpha, o.a,
                            o.lda, o.b, o.ldb, op.beta, c.data(), o.ldc,
                            augem::blas::serial_gemm_context(s), bk);
  t.serial_call_s = now_s() - t1;
  return t;
}

// ---- roofline ----------------------------------------------------------------

namespace {

// Twelve independent accumulator chains hide the FMA latency (4-5 cycles
// at two ports) on every x86 core this repository targets.
#define PB_CHAINS(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11)

__attribute__((target("avx2,fma"))) double fma256_loop(long iters,
                                                       double seed) {
#define PB_DECL(i) __m256d r##i = _mm256_set1_pd(seed + i);
#define PB_STEP(i) r##i = _mm256_fmadd_pd(r##i, x, y);
#define PB_SUM(i) acc = _mm256_add_pd(acc, r##i);
  const __m256d x = _mm256_set1_pd(0.999999), y = _mm256_set1_pd(1e-7);
  PB_CHAINS(PB_DECL)
  for (long it = 0; it < iters; ++it) { PB_CHAINS(PB_STEP) }
  __m256d acc = _mm256_setzero_pd();
  PB_CHAINS(PB_SUM)
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
#undef PB_DECL
#undef PB_STEP
#undef PB_SUM
}

__attribute__((target("avx"))) double avx256_loop(long iters, double seed) {
#define PB_DECL(i) __m256d r##i = _mm256_set1_pd(seed + i);
#define PB_STEP(i) r##i = _mm256_add_pd(_mm256_mul_pd(r##i, x), y);
#define PB_SUM(i) acc = _mm256_add_pd(acc, r##i);
  const __m256d x = _mm256_set1_pd(0.999999), y = _mm256_set1_pd(1e-7);
  PB_CHAINS(PB_DECL)
  for (long it = 0; it < iters; ++it) { PB_CHAINS(PB_STEP) }
  __m256d acc = _mm256_setzero_pd();
  PB_CHAINS(PB_SUM)
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
#undef PB_DECL
#undef PB_STEP
#undef PB_SUM
}

double sse2_loop(long iters, double seed) {
#define PB_DECL(i) __m128d r##i = _mm_set1_pd(seed + i);
#define PB_STEP(i) r##i = _mm_add_pd(_mm_mul_pd(r##i, x), y);
#define PB_SUM(i) acc = _mm_add_pd(acc, r##i);
  const __m128d x = _mm_set1_pd(0.999999), y = _mm_set1_pd(1e-7);
  PB_CHAINS(PB_DECL)
  for (long it = 0; it < iters; ++it) { PB_CHAINS(PB_STEP) }
  __m128d acc = _mm_setzero_pd();
  PB_CHAINS(PB_SUM)
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  return lanes[0] + lanes[1];
#undef PB_DECL
#undef PB_STEP
#undef PB_SUM
}

}  // namespace

double measure_peak_gflops(augem::Isa isa) {
  const bool fma = isa == augem::Isa::kFma3 || isa == augem::Isa::kFma4;
  const bool wide = isa != augem::Isa::kSse2;
  // flops per iteration: 12 chains × lanes × (mul + add).
  const double flops_per_iter = 12.0 * (wide ? 4 : 2) * 2;
  const long iters = 2'000'000;
  double best = 0.0, sink = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_s();
    sink += fma ? fma256_loop(iters, rep) : wide ? avx256_loop(iters, rep)
                                                 : sse2_loop(iters, rep);
    const double dt = now_s() - t0;
    best = std::max(best, flops_per_iter * static_cast<double>(iters) / dt * 1e-9);
  }
  // Keep the loops observable.
  if (std::isnan(sink)) best = -best;
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- probes -------------------------------------------------------------------

namespace {

/// Median seconds per call of `fn`, over repetitions lasting ~`budget_s`.
template <typename Fn>
double median_call_s(Fn&& fn, double budget_s, int min_reps = 5) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps || now_s() - start < budget_s) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
    if (t.size() > 200000) break;
  }
  return median(t);
}

/// Raw GemmFn rate on one packed mc×kc · kc×nc block, GFLOP/s.
double kernel_gflops(const CachedKernel& kernel, index_t mc, index_t nc,
                     index_t kc) {
  mc = (mc + kernel.mr - 1) / kernel.mr * kernel.mr;
  nc = (nc + kernel.nr - 1) / kernel.nr * kernel.nr;
  augem::Rng rng(11);
  std::vector<double> pa(static_cast<std::size_t>(mc * kc));
  std::vector<double> pb(static_cast<std::size_t>(kc * nc));
  std::vector<double> c(static_cast<std::size_t>(mc * nc), 0.0);
  rng.fill(pa);
  rng.fill(pb);
  auto* fn = kernel.fn<KernelSet::GemmFn>();
  const double s = median_call_s(
      [&] { fn(mc, nc, kc, pa.data(), pb.data(), c.data(), mc); }, 0.25);
  return 2.0 * static_cast<double>(mc * nc * kc) / s * 1e-9;
}

struct StageTimes {
  std::vector<double> transform, match, opt, analysis, assemble;
};

/// Regenerates the kernel behind `kernel` stage by stage through the
/// generator's public functions, timing each stage.
void time_generation(const CachedKernel& kernel, StageTimes& st) {
  const auto& key = kernel.key;
  augem::GenerateOptions options =
      key.small ? augem::default_small_gemm_options(*key.small, key.isa)
                : augem::default_options(key.kind, key.isa);
  options.params = kernel.variant.params;
  options.config.isa = key.isa;
  options.config.strategy = kernel.variant.strategy;

  auto transform = [&] {
    return key.small
               ? augem::transform::generate_small_gemm_c(*key.small, options.params)
               : augem::transform::generate_optimized_c(key.kind, options.layout,
                                                        options.params);
  };
  double t0 = now_s();
  augem::ir::Kernel k = transform();
  const double transform_s = now_s() - t0;
  const augem::analysis::KernelContract contract =
      key.small ? augem::analysis::contract_for_small_gemm(*key.small, k)
                : augem::analysis::contract_for(key.kind, options.layout,
                                                options.params, k);
  augem::ir::Kernel for_match = transform();  // matching tags its input
  t0 = now_s();
  augem::match::identify_templates(for_match);
  const double match_s = now_s() - t0;

  int f64_params = 0;
  for (const auto& p : k.params())
    if (p.type == augem::ir::ScalarType::kF64) ++f64_params;
  t0 = now_s();
  const augem::asmgen::GeneratedKernel gen =
      augem::asmgen::generate_assembly(std::move(k), options.config, &contract);
  const double codegen_s = now_s() - t0;

  augem::analysis::AnalyzeOptions aopts;
  aopts.num_f64_params = f64_params;
  aopts.contract = &contract;
  t0 = now_s();
  const auto report = augem::analysis::analyze(gen.insts, aopts);
  const double analysis_s = now_s() - t0;
  augem::analysis::check_clean(report, gen.insts);

  t0 = now_s();
  const augem::jit::CompiledModule module = augem::jit::assemble(gen.asm_text);
  const double assemble_s = now_s() - t0;
  module.raw_symbol(gen.name);

  st.transform.push_back(transform_s * 1e3);
  st.match.push_back(match_s * 1e3);
  // generate_assembly runs template matching and the analyzer itself; its
  // own (opt + codegen) time is what remains.
  st.opt.push_back(std::max(codegen_s - match_s - analysis_s, 0.0) * 1e3);
  st.analysis.push_back(analysis_s * 1e3);
  st.assemble.push_back(assemble_s * 1e3);
}

struct TuneSummary {
  double trials = 0, elapsed_s = 0, feasible = 0;
};

void add_tune_log(const augem::tuning::SearchMeta& meta,
                  const std::vector<augem::tuning::Trial>& log,
                  TuneSummary& sum) {
  sum.trials += meta.trials_run;
  sum.elapsed_s += meta.elapsed_seconds;
  for (const auto& t : log)
    if (t.feasible) sum.feasible += 1;
}

}  // namespace

void run_probes(const ProbeContext& ctx, Metrics& out) {
  KernelRuntime& rt = ctx.rt;
  const Workload& wl = ctx.wl;
  const auto& arch = augem::host_arch();
  auto blas = augem::runtime::make_runtime_blas(rt);

  // Kernel rate at the driver's blocking for the workload's probe shape,
  // and on an L2-resident 384×384×256 block.
  const auto probe_kernel = rt.resolve(
      KernelKind::kGemm, augem::runtime::classify_gemm_shape(
                             wl.probe_m, wl.probe_n, wl.probe_k));
  const auto bs = augem::blas::block_sizes_for_shape(arch, wl.probe_m,
                                                     wl.probe_n, wl.probe_k);
  const double kg = kernel_gflops(*probe_kernel, bs.mc, bs.nc, bs.kc);
  out["kernel.gflops"] = {kg, "GFLOP/s"};
  out["kernel.gflops_l2"] = {kernel_gflops(*probe_kernel, 384, 384, 256), "GFLOP/s"};
  out["kernel.pct_peak"] = {ctx.peak_gflops > 0 ? kg / ctx.peak_gflops : 0.0, "ratio"};

  // Warm resolve latency at the workload's keys.
  {
    std::vector<const Op*> unique;
    for (std::size_t i : first_of_each_key(wl)) unique.push_back(&wl.ops[i]);
    std::vector<double> ns;
    for (const Op* op : unique) {
      op->resolve(rt);  // warm
      for (int r = 0; r < 200; ++r) {
        const double t0 = now_s();
        op->resolve(rt);
        ns.push_back((now_s() - t0) * 1e9);
      }
    }
    out["runtime.resolve_ns"] = {median(ns), "ns"};

    // Generator stages, regenerating every key the workload resolves.
    StageTimes st;
    for (const Op* op : unique) time_generation(*op->resolve(rt), st);
    out["gen.transform_ms"] = {median(st.transform), "ms"};
    out["gen.match_ms"] = {median(st.match), "ms"};
    out["gen.opt_ms"] = {median(st.opt), "ms"};
    out["gen.analysis_ms"] = {median(st.analysis), "ms"};
    out["gen.assemble_ms"] = {median(st.assemble), "ms"};
  }

  // Call overhead of a small dgemm: the public call minus the driver on the
  // pre-resolved kernel with the same context.
  {
    const index_t n = 16;
    augem::Rng rng(5);
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    rng.fill(a);
    rng.fill(b);
    blas->gemm(Trans::kNo, Trans::kNo, n, n, n, 1.0, a.data(), n, b.data(), n,
               1.0, c.data(), n);
    const auto kernel = rt.resolve(KernelKind::kGemm,
                                   augem::runtime::classify_gemm_shape(n, n, n));
    const GemmContext gctx = runtime_context(n, n, n, kernel->nr);
    const BlockKernel bk = augem::padded_gemm_block_kernel(
        kernel->fn<KernelSet::GemmFn>(), kernel->mr, kernel->nr);
    const double pub = median_call_s([&] {
      blas->gemm(Trans::kNo, Trans::kNo, n, n, n, 1.0, a.data(), n, b.data(),
                 n, 1.0, c.data(), n);
    }, 0.1, 2000);
    const double raw = median_call_s([&] {
      augem::blas::blocked_gemm(Trans::kNo, Trans::kNo, n, n, n, 1.0, a.data(),
                                n, b.data(), n, 1.0, c.data(), n, gctx, bk);
    }, 0.1, 2000);
    out["blas.call_overhead_ns"] = {(pub - raw) * 1e9, "ns"};
  }

  // Batched path overhead per instance (a batch below the pool threshold,
  // so both sides run serially) and raw small-kernel time per shape.
  {
    const int threads = ThreadPool::global().num_threads();
    const index_t batch = 4 * threads - 1;
    const int shapes[4][3] = {{4, 4, 4}, {8, 4, 8}, {8, 8, 8}, {16, 16, 16}};
    augem::Rng rng(6);
    std::vector<double> a(16 * 16 * 256), b(16 * 16 * 256), c(16 * 16 * 256, 0.0);
    rng.fill(a);
    rng.fill(b);
    for (const auto& sh : shapes) {
      augem::frontend::SmallGemmSpec spec;
      spec.m = sh[0];
      spec.n = sh[1];
      spec.k = sh[2];
      auto* fn = rt.resolve_small(spec)->fn<SmallGemmFn>();
      const index_t m = sh[0], n = sh[1], k = sh[2];
      auto raw_loop = [&](index_t count) {
        for (index_t p = 0; p < count; ++p)
          fn(a.data() + p * m * k, m, b.data() + p * k * n, k,
             c.data() + p * m * n, m, nullptr, 1.0, 1.0);
      };
      const double per_inst = median_call_s([&] { raw_loop(256); }, 0.05) / 256;
      out["kernel.small_ns." + std::to_string(m) + "x" + std::to_string(n) +
          "x" + std::to_string(k)] = {per_inst * 1e9, "ns"};
      if (m == 8 && n == 8) {
        const double pub = median_call_s([&] {
          blas->gemm_batch_strided(m, n, k, 1.0, a.data(), m, m * k, b.data(),
                                   k, k * n, 1.0, c.data(), m, m * n, batch);
        }, 0.1, 1000);
        const double raw = median_call_s([&] { raw_loop(batch); }, 0.1, 1000);
        out["blas.batch_overhead_ns"] = {
            (pub - raw) / static_cast<double>(batch) * 1e9, "ns"};
      }
    }
  }

  // Raw Level-1/2 kernels: computed bytes over time.
  {
    const index_t n = 4096, gn = 64;
    augem::Rng rng(7);
    std::vector<double> x(n), y(n), am(n * gn), gx(gn);
    rng.fill(x);
    rng.fill(y);
    rng.fill(am);
    rng.fill(gx);
    using augem::runtime::classify_vector_shape;
    auto* axpy = rt.resolve(KernelKind::kAxpy, classify_vector_shape(n))
                     ->fn<KernelSet::AxpyFn>();
    auto* dot = rt.resolve(KernelKind::kDot, classify_vector_shape(n))
                    ->fn<KernelSet::DotFn>();
    auto* gemv = rt.resolve(KernelKind::kGemv, classify_vector_shape(n))
                     ->fn<KernelSet::GemvFn>();
    // The kernels are opaque JIT calls, so none of them can be elided.
    const double t_axpy = median_call_s([&] { axpy(n, 1e-9, x.data(), y.data()); }, 0.05);
    const double t_dot = median_call_s([&] { dot(n, x.data(), y.data()); }, 0.05);
    const double t_gemv = median_call_s([&] { gemv(n, gn, am.data(), n, gx.data(), y.data()); }, 0.05);
    const double bytes = 8.0 * (3 * n + 2 * n + (n * gn + gn + 2 * n));
    out["level1.gbps"] = {bytes / (t_axpy + t_dot + t_gemv) * 1e-9, "GB/s"};
  }

  // Tuning and tunedb replay: the cold-start directory's search logs, or a
  // tuner search for the workload's main GEMM key (what tune_on_miss would
  // run for it) replayed from a private directory.
  {
    using augem::runtime::TuningDatabase;
    TuneSummary sum;
    double winner_mflops = 0.0;
    std::string db_dir = ctx.tuned_dir;
    const auto main_shape = augem::runtime::classify_gemm_shape(
        wl.probe_m, wl.probe_n, wl.probe_k);
    if (!db_dir.empty()) {
      TuningDatabase db(db_dir);
      for (const auto& e : db.entries()) {
        if (!e.variant.search) continue;
        add_tune_log(*e.variant.search, e.variant.trial_log, sum);
        if (e.key.kind == KernelKind::kGemm && !e.key.small &&
            e.key.shape == main_shape)
          winner_mflops = e.variant.mflops;
      }
    } else {
      const auto r = augem::tuning::tune_gemm(
          rt.dispatch_isa(),
          augem::runtime::tune_workload_for(KernelKind::kGemm, main_shape));
      add_tune_log(r.search, r.trials, sum);
      winner_mflops = r.mflops;
      db_dir = ctx.scratch_dir;
      TuningDatabase db(db_dir);
      auto key = augem::runtime::host_kernel_key(KernelKind::kGemm, main_shape);
      key.isa = rt.dispatch_isa();
      db.store(key, augem::runtime::TunedVariant::from_tune_result(r));
    }
    out["tuning.trials"] = {sum.trials, "count"};
    out["tuning.ms_per_trial"] = {sum.trials > 0 ? sum.elapsed_s * 1e3 / sum.trials : 0.0, "ms"};
    out["tuning.feasible_ratio"] = {sum.trials > 0 ? sum.feasible / sum.trials : 0.0, "ratio"};
    out["tuning.winner_gflops"] = {winner_mflops * 1e-3, "GFLOP/s"};
    const double replay = median_call_s([&] { TuningDatabase db(db_dir); }, 0.0, 5);
    out["tunedb.replay_ms"] = {replay * 1e3, "ms"};
  }
}

}  // namespace perfbench
