#pragma once
// The non-symbolic analysis passes over the machine-IR CFG.
//
//  * structural  — operand completeness, encodings/widths, label sanity,
//    push/pop and stack-frame discipline.
//  * flags       — EFLAGS liveness per block: every conditional jump must
//    be dominated, within its block, by a compare with no flag-clobbering
//    instruction in between.
//  * definite assignment — forward dataflow (intersection at joins): no
//    vector or general-purpose register is read on ANY path before every
//    path to that read has written it. Entry state is the SysV argument
//    registers. A write inside a loop body does not initialize code after
//    the loop, because the loop may run zero iterations.
//  * liveness    — backward dataflow; vector-register writes whose value
//    cannot reach any use are dead stores (warnings: wasted issue slots).
//  * queue reuse — register-queue false-dependence heuristic: a load-class
//    redefinition of a vector register too close to a prior arithmetic use
//    creates a WAR hazard that defeats the paper's R/m queue rotation.

#include "analysis/cfg.hpp"
#include "analysis/findings.hpp"

namespace augem::analysis {

void run_structural_checks(const Cfg& cfg, AnalysisReport& report);

void run_flags_check(const Cfg& cfg, AnalysisReport& report);

/// `num_f64_params` seeds xmm0..n-1 as initialized (SysV SSE args).
void run_definite_assignment(const Cfg& cfg, int num_f64_params,
                             AnalysisReport& report);

void run_dead_store_check(const Cfg& cfg, AnalysisReport& report);

/// `window`: how many instructions after a non-copy use of a vector
/// register a load-class redefinition of it is considered "in flight".
void run_queue_reuse_check(const Cfg& cfg, int window, AnalysisReport& report);

}  // namespace augem::analysis
