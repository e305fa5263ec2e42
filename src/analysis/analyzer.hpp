#pragma once
// Entry point of the machine-IR static analyzer ("mirlint").
//
// Runs, over a real CFG of the instruction stream:
//   1. structural checks  — operand completeness, encodings, labels,
//      push/pop and frame discipline;
//   2. flag liveness      — every conditional jump sees a valid compare;
//   3. definite assignment — no vector or general-purpose register is read
//      before it is written along ANY path;
//   4. liveness           — dead vector stores (warnings);
//   5. queue-reuse        — write-after-read false-dependence hazards on
//      the register queues (warnings);
//   6. symbolic bounds    — with a KernelContract, proves every load,
//      store and prefetch lands inside the caller's buffers.
//
// asmgen::generate_assembly runs it on every kernel and throws through
// check_clean on any error finding, and check::run_fuzz runs the full
// analyzer (with contract) on every fuzz case so static proofs are
// cross-checked against dynamic behavior.

#include "analysis/bounds.hpp"
#include "analysis/contract.hpp"
#include "analysis/findings.hpp"
#include "analysis/semantics.hpp"
#include "opt/minst.hpp"

namespace augem::analysis {

struct AnalyzeOptions {
  int num_f64_params = 0;  ///< SysV SSE-class args preinitializing xmm0..n-1
  const KernelContract* contract = nullptr;  ///< enables the bounds pass
  /// With a contract, enables the translation-validation pass: the stores
  /// of the kernel are proven equivalent to the reference semantics named
  /// by the spec (see analysis/semantics.hpp).
  const SemanticsSpec* semantics = nullptr;
};

AnalysisReport analyze(const opt::MInstList& insts,
                       const AnalyzeOptions& options = {});

/// Throws augem::Error listing every error-severity finding, if any.
void check_clean(const AnalysisReport& report, const opt::MInstList& insts);

}  // namespace augem::analysis
