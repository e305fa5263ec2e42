#include "runtime/retune.hpp"

#include "perf/compare.hpp"
#include "runtime/artifact.hpp"
#include "runtime/dispatch.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"

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

/// `kernel` bound to the tuning workload's operands.
tuning::KernelProbe probe_of(const CachedKernel& kernel,
                             const tuning::TuneWorkload& w) {
  return tuning::KernelProbe(kernel.key.kind, kernel.entry,
                             w.extents(kernel.key.kind), kernel.mr,
                             kernel.nr);
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
                     const std::optional<TunedVariant>& candidate) {
  TunedVariant incumbent;
  if (!db.lookup(key, incumbent)) return RetuneOutcome::kError;
  if (key.small) return RetuneOutcome::kUnchanged;

  TunedVariant cand;
  std::shared_ptr<CachedKernel> cand_kernel;
  try {
    cand = candidate ? *candidate
                     : TunedVariant::from_tune_result(
                           key.kind == KernelKind::kGemm
                               ? tuning::tune_gemm(key.isa, workload)
                               : tuning::tune_level1(key.kind, key.isa,
                                                     workload));
    if (same_configuration(cand, incumbent)) return RetuneOutcome::kUnchanged;
    cand_kernel = build_variant(key, cand);
    std::shared_ptr<CachedKernel> inc_kernel;
    try {
      inc_kernel = build_variant(key, incumbent);
    } catch (const Refusal&) {
      // The generator refuses the stored incumbent, so it cannot be served
      // and there is nothing to gate the candidate against.
    }
    if (inc_kernel) {
      const tuning::KernelProbe inc_probe = probe_of(*inc_kernel, workload);
      const tuning::KernelProbe cand_probe = probe_of(*cand_kernel, workload);
      const perf::Comparison gate =
          perf::compare(inc_probe.call(), cand_probe.call());
      if (gate.verdict != perf::Verdict::kFaster)
        return RetuneOutcome::kRejected;
      cand.mflops = mflops(cand_probe.flops(), gate.b_s);
    }
  } catch (const Error&) {
    return RetuneOutcome::kError;
  }

  const KeyLock lock(db, key);
  publish_and_store(db, key, cand, *cand_kernel);
  return RetuneOutcome::kPromoted;
}

}  // namespace augem::runtime
