#pragma once
// The Assembly Kernel Generator (paper §2.4): translates a
// template-annotated low-level C kernel into a complete x86-64 function.
//
// Tagged regions are compiled by the Template Optimizer (opt/optimizers);
// the remaining low-level C — loop control, pointer/cursor arithmetic,
// prefetches, stray scalar statements — is translated "in a straightforward
// fashion" here. The reg_table keeps vector-register assignments consistent
// across both worlds; integer variables get register homes by loop-depth
// priority with stack-slot spilling for the overflow.

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/contract.hpp"
#include "ir/kernel.hpp"
#include "opt/optimizers.hpp"
#include "opt/plan.hpp"

namespace augem::asmgen {

/// A fully generated kernel: assembly text for the JIT, machine IR for the
/// VM, and frame metadata for tests.
struct GeneratedKernel {
  std::string name;
  std::string asm_text;       ///< complete AT&T translation unit
  opt::MInstList insts;       ///< prologue + body + epilogue
  opt::OptConfig config;
  int frame_bytes = 0;
  std::vector<opt::Gpr> saved_gprs;
  ir::Kernel source;          ///< the tagged low-level C it was built from
};

/// Runs the full machine-level pipeline on an optimized low-level C kernel:
/// template identification, vectorization planning, template optimization,
/// global translation, optional scheduling, and printing. The result is
/// statically analyzed (analysis/analyzer.hpp) before it is returned; with a
/// contract the analyzer additionally proves every memory access in bounds.
/// The kernel is taken by value: identification tags its statements.
GeneratedKernel generate_assembly(ir::Kernel kernel, const opt::OptConfig& config,
                                  const analysis::KernelContract* contract = nullptr);

/// The analyzer options for machine code generated from `kernel`: its F64
/// parameters arrive in xmm0..n-1 (SysV), `contract` enables the bounds
/// pass and `semantics` the translation validator.
analysis::AnalyzeOptions analyze_options(
    const ir::Kernel& kernel, const analysis::KernelContract* contract,
    const analysis::SemanticsSpec* semantics = nullptr);

}  // namespace augem::asmgen
