#include "runtime/retune.hpp"

#include "perf/report.hpp"
#include "runtime/artifact.hpp"
#include "runtime/dispatch.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace augem::runtime {

using frontend::KernelKind;

namespace {

bool same_configuration(const TunedVariant& a, const TunedVariant& b) {
  return a.params.mr == b.params.mr && a.params.nr == b.params.nr &&
         a.params.ku == b.params.ku && a.params.unroll == b.params.unroll &&
         a.params.prefetch.enabled == b.params.prefetch.enabled &&
         a.params.prefetch.distance == b.params.prefetch.distance &&
         a.strategy == b.strategy;
}

/// Times `kernel` on the tuning workload with the BenchRunner, so the
/// promotion gate's numbers carry the same semantics (median of
/// post-warmup reps with a CI) as every other GFLOPS figure in the
/// repository.
perf::Measurement measure(const CachedKernel& kernel,
                          const tuning::TuneWorkload& w,
                          const perf::RunnerOptions& ropts) {
  const perf::BenchRunner runner(ropts);
  Rng rng(11);
  switch (kernel.key.kind) {
    case KernelKind::kGemm: {
      auto* fn = kernel.fn<void(long, long, long, const double*,
                                const double*, double*, long)>();
      DoubleBuffer a(static_cast<std::size_t>(w.mc * w.kc));
      DoubleBuffer b(static_cast<std::size_t>(w.nc * w.kc));
      DoubleBuffer c(static_cast<std::size_t>(w.nc * w.mc));
      rng.fill(a.span());
      rng.fill(b.span());
      const std::int64_t m_main = w.mc / kernel.mr * kernel.mr;
      const std::int64_t n_main = w.nc / kernel.nr * kernel.nr;
      return runner.run(gemm_flops(m_main, n_main, w.kc), [&] {
        fn(m_main, n_main, w.kc, a.data(), b.data(), c.data(), w.mc);
      });
    }
    case KernelKind::kGemv: {
      auto* fn = kernel.fn<void(long, long, const double*, long,
                                const double*, double*)>();
      const std::int64_t m = w.vec_len / 8, n = 64;
      DoubleBuffer a(static_cast<std::size_t>(m * n));
      DoubleBuffer x(static_cast<std::size_t>(n));
      DoubleBuffer y(static_cast<std::size_t>(m));
      rng.fill(a.span());
      rng.fill(x.span());
      return runner.run(gemv_flops(m, n),
                        [&] { fn(m, n, a.data(), m, x.data(), y.data()); });
    }
    case KernelKind::kAxpy: {
      auto* fn = kernel.fn<void(long, double, const double*, double*)>();
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      DoubleBuffer y(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      return runner.run(axpy_flops(w.vec_len),
                        [&] { fn(w.vec_len, 1.1, x.data(), y.data()); });
    }
    case KernelKind::kScal: {
      auto* fn = kernel.fn<void(long, double, double*)>();
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      return runner.run(static_cast<double>(w.vec_len),
                        [&] { fn(w.vec_len, 1.0000001, x.data()); });
    }
    case KernelKind::kDot: {
      auto* fn = kernel.fn<double(long, const double*, const double*)>();
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      DoubleBuffer y(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      rng.fill(y.span());
      volatile double sink = 0.0;
      const perf::Measurement m = runner.run(
          dot_flops(w.vec_len),
          [&] { sink = fn(w.vec_len, x.data(), y.data()); });
      (void)sink;
      return m;
    }
  }
  AUGEM_FAIL("unknown kernel kind");
}

}  // namespace

const char* retune_outcome_name(RetuneOutcome o) {
  switch (o) {
    case RetuneOutcome::kPromoted: return "promoted";
    case RetuneOutcome::kRejected: return "rejected";
    case RetuneOutcome::kUnchanged: return "unchanged";
    case RetuneOutcome::kError: return "error";
  }
  return "?";
}

RetuneOutcome retune(TuningDatabase& db, const KernelKey& key,
                     const tuning::TuneWorkload& workload,
                     const perf::RunnerOptions& runner,
                     const std::optional<TunedVariant>& candidate) {
  TunedVariant incumbent;
  if (!db.lookup(key, incumbent)) return RetuneOutcome::kError;
  if (key.small) return RetuneOutcome::kUnchanged;

  TunedVariant cand;
  std::shared_ptr<CachedKernel> cand_kernel;
  perf::Measurement inc_m;
  perf::Measurement cand_m;
  try {
    if (candidate) {
      cand = *candidate;
    } else {
      tuning::SearchOptions sopts = tuning::SearchOptions::from_env();
      if (!sopts.seed_from_env)
        sopts.seed = (incumbent.search ? incumbent.search->seed : sopts.seed) +
                     0x9e3779b97f4a7c15ull;
      cand = TunedVariant::from_tune_result(
          key.kind == KernelKind::kGemm
              ? tuning::tune_gemm(key.isa, workload, sopts)
              : tuning::tune_level1(key.kind, key.isa, workload, sopts));
    }
    if (same_configuration(cand, incumbent)) return RetuneOutcome::kUnchanged;
    inc_m = measure(*build_variant(key, incumbent), workload, runner);
    cand_kernel = build_variant(key, cand);
    cand_m = measure(*cand_kernel, workload, runner);
  } catch (const Error&) {
    return RetuneOutcome::kError;
  }

  perf::BenchReport base = perf::make_host_report("promotion");
  perf::BenchReport cur = base;
  base.rows.push_back(perf::BenchRow::from_measurement(inc_m, key.to_string()));
  cur.rows.push_back(perf::BenchRow::from_measurement(cand_m, key.to_string()));
  perf::DiffOptions dopts;
  dopts.threshold = kPromoteThreshold;
  const perf::DiffResult diff = perf::diff_reports(base, cur, dopts);
  if (!diff.comparable() || diff.rows.size() != 1) return RetuneOutcome::kError;
  if (diff.rows[0].verdict != perf::RowVerdict::kImproved)
    return RetuneOutcome::kRejected;

  cand.mflops = cand_m.mflops();
  const KeyLock lock(db, key);
  publish_and_store(db, key, cand, *cand_kernel);
  return RetuneOutcome::kPromoted;
}

}  // namespace augem::runtime
