#include "runtime/retune.hpp"

#include "perf/report.hpp"
#include "runtime/artifact.hpp"
#include "runtime/dispatch.hpp"
#include "support/error.hpp"

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

/// Times `kernel` on the tuning workload's probe with the BenchRunner, so
/// the promotion gate's numbers carry the same semantics (median of
/// post-warmup reps with a CI) as every other GFLOPS figure in the
/// repository.
perf::Measurement measure(const CachedKernel& kernel,
                          const tuning::TuneWorkload& w,
                          const perf::RunnerOptions& ropts) {
  const tuning::KernelProbe probe(kernel.key.kind, kernel.entry,
                                  w.extents(kernel.key.kind), kernel.mr,
                                  kernel.nr);
  return probe.measure(perf::BenchRunner(ropts));
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
  std::optional<perf::Measurement> inc_m;
  perf::Measurement cand_m;
  try {
    cand = candidate ? *candidate
                     : TunedVariant::from_tune_result(
                           key.kind == KernelKind::kGemm
                               ? tuning::tune_gemm(key.isa, workload)
                               : tuning::tune_level1(key.kind, key.isa,
                                                     workload));
    if (same_configuration(cand, incumbent)) return RetuneOutcome::kUnchanged;
    try {
      inc_m = measure(*build_variant(key, incumbent), workload, runner);
    } catch (const Refusal&) {
      // The generator refuses the stored incumbent, so it cannot be served
      // and there is nothing to gate the candidate against.
    }
    cand_kernel = build_variant(key, cand);
    cand_m = measure(*cand_kernel, workload, runner);
  } catch (const Error&) {
    return RetuneOutcome::kError;
  }

  if (inc_m) {
    perf::BenchReport base = perf::make_host_report("promotion");
    perf::BenchReport cur = base;
    base.rows.push_back(
        perf::BenchRow::from_measurement(*inc_m, key.to_string()));
    cur.rows.push_back(
        perf::BenchRow::from_measurement(cand_m, key.to_string()));
    perf::DiffOptions dopts;
    dopts.threshold = kPromoteThreshold;
    const perf::DiffResult diff = perf::diff_reports(base, cur, dopts);
    if (!diff.comparable() || diff.rows.size() != 1)
      return RetuneOutcome::kError;
    if (diff.rows[0].verdict != perf::RowVerdict::kImproved)
      return RetuneOutcome::kRejected;
  }

  cand.mflops = cand_m.mflops();
  const KeyLock lock(db, key);
  publish_and_store(db, key, cand, *cand_kernel);
  return RetuneOutcome::kPromoted;
}

}  // namespace augem::runtime
