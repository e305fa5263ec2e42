#pragma once
// Named benchmark suites over the generated kernels, shared by
// tools/bench_gate (the regression gate), the bench_quick_gate ctest, and
// bench/bench_kernels_micro. A suite is a fixed set of (kernel, problem
// size) points measured through BenchRunner into a BenchReport, so the
// gate, the ctest and the standalone bench all produce byte-compatible
// BENCH_<suite>.json trajectories.

#include <string>
#include <vector>

#include "perf/report.hpp"

namespace augem::perf {

struct SuiteOptions {
  /// Quick mode: smaller problems, looser CI target — the tier-1 /
  /// smoke-run configuration (catches gross regressions in ~seconds).
  bool quick = false;
  /// Deliberately pessimized kernel configuration (scalar GEMM strategy,
  /// no level-1 unrolling). Exists to *demonstrate* the gate: a baseline
  /// from the normal configuration vs a pessimized run must yield a
  /// regressed verdict (see bench_gate --selftest).
  bool pessimize = false;
  RunnerOptions runner = RunnerOptions::from_env();
};

/// The suites bench_gate knows: "micro" (all five generated kernels on
/// packed-block / in-cache problems), "level1" (the memory-bound
/// streaming kernels at figure sizes), "batch_small" (the batched
/// small-GEMM fast path with amortized dispatch and fused epilogues), and
/// "level3" (SYMM/SYRK/TRSM through the prepacked-panel Level-3 engine).
std::vector<std::string> suite_names();
bool is_suite_name(const std::string& name);

/// Runs a suite and returns its report (bench = suite name). Throws
/// augem::Error for an unknown suite name.
BenchReport run_suite(const std::string& name, const SuiteOptions& options);

}  // namespace augem::perf
