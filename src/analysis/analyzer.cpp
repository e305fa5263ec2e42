#include "analysis/analyzer.hpp"

#include <sstream>

#include "analysis/cfg.hpp"
#include "analysis/passes.hpp"
#include "support/error.hpp"

namespace augem::analysis {

AnalysisReport analyze(const opt::MInstList& insts,
                       const AnalyzeOptions& options) {
  AnalysisReport report;
  if (insts.empty()) return report;

  const Cfg cfg = build_cfg(insts);
  run_structural_checks(cfg, report);
  run_flags_check(cfg, report);
  run_definite_assignment(cfg, options.num_f64_params, report);
  run_dead_store_check(cfg, report);
  run_queue_reuse_check(cfg, report);

  if (options.contract != nullptr) {
    run_bounds_check(insts, *options.contract, report);
    if (options.semantics != nullptr)
      run_semantics_check(insts, *options.contract, *options.semantics,
                          report);
  }
  return report;
}

void check_clean(const AnalysisReport& report, const opt::MInstList& insts) {
  const std::size_t errors = report.errors();
  if (errors == 0) return;
  std::ostringstream os;
  os << "machine-code verification failed (" << errors << " issue(s)):";
  for (const Finding& f : report.findings) {
    if (f.severity != Severity::kError) continue;
    os << "\n  [" << f.index << "] " << f.message;
    if (f.index < insts.size()) os << "  | " << insts[f.index].to_string();
  }
  AUGEM_FAIL(os.str());
}

}  // namespace augem::analysis
