#pragma once
// Symbolic memory-bounds proofs for generated machine code.
//
// Models every GPR and frame slot as a polynomial (ir::Poly) over the
// kernel's parameters (extents, leading dimensions, pointer bases) plus
// bounded loop-counter symbols, executes the instruction stream abstractly
// over the generator's counted-loop idiom, and discharges, for every load,
// store and prefetch, the proof obligation
//
//     0 <= byte offset  &&  byte offset + access bytes <= 8 * buffer extent
//
// against the KernelContract's buffer extents and arithmetic facts
// (divisibility of block sizes by register tiles, mc <= ldc, …).
// Prefetches get a slack window of 1 KiB on both sides (they are hints
// and cannot fault); stores additionally require a writable buffer.
//
// The pass is sound over the shapes the generator emits (pre-guarded
// counted loops `init; cmp; jge END; HEAD: …; add; cmp; jl HEAD; END:`,
// including remainder loops continuing a counter). Anything it cannot
// interpret — an unguarded or non-counted loop, an address that is not a
// provable offset into a contract buffer — is reported as an error, never
// silently skipped: "no finding" means "proved".

#include "analysis/contract.hpp"
#include "analysis/findings.hpp"
#include "opt/minst.hpp"

namespace augem::analysis {

void run_bounds_check(const opt::MInstList& insts,
                      const KernelContract& contract, AnalysisReport& report);

}  // namespace augem::analysis
