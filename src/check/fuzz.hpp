#pragma once
// Differential fuzzing harness for the whole codegen pipeline.
//
// Each case draws a random kernel configuration (operation, ISA,
// vectorization strategy, register tile / unroll factors, prefetching,
// B layout) and a random problem instance (ragged shapes around tile
// boundaries, strided leading dimensions, special alpha/beta values,
// NaN/Inf poisoning of the data), then runs the generated kernel through
// every execution path the repository has:
//
//   * the IR interpreter on the tagged low-level C (`GeneratedKernel::source`),
//   * the machine-IR VM on the machine code (`GeneratedKernel::insts`),
//   * the JIT-assembled native function (when the host executes the ISA),
//   * for GEMM, the blocked driver — serial and threaded — through
//     `augem::padded_gemm_block_kernel`,
//   * the BLAS-level wrappers (AUGEM + the simulated comparator libraries)
//     against the netlib-semantics oracle `blas::ref`,
//   * the batched small-GEMM serving path (`gemm_batch_strided` with fused
//     alpha/beta, bias, and ReLU epilogues) against the reference batch
//     loop in `blas::Blas` — including NaN/Inf propagation through the
//     MAXPD-semantics ReLU (relu(NaN) == 0),
//   * the Level-3 routines (SYMM/SYRK/SYR2K/TRMM/TRSM, Side × Uplo × Trans)
//     on the one Level-3 engine: through every library (each runs the
//     engine on its own block kernel) and the RuntimeBlas dispatch path vs
//     the netlib oracle, and directly on the case's generated block kernel,
//     serial vs threaded (which must be bit-identical) vs the oracle — with
//     NaN-filled unstored triangles proving the masked accessors never read
//     outside the stored triangle.
//
// Every generated kernel additionally carries the full static analysis of
// its machine code (`augem::generate_and_analyze`: bounds proofs and
// translation validation, error findings only). All numeric paths are
// cross-checked element-wise against a reference oracle under the ULP
// policy of check/ulp.hpp; on mismatch the harness shrinks the instance to
// a minimal reproducer and records a machine-readable failure. Everything
// is deterministic in (seed, case index). See docs/correctness.md.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace augem::check {

struct FuzzOptions {
  std::uint64_t seed = 1;       ///< master seed; case i uses mix(seed, i)
  std::int64_t cases = 1000;    ///< number of (config, instance) cases
  std::int64_t only_case = -1;  ///< run just this case index (reproducers)
  double time_budget_seconds = 0;  ///< stop early after this long (0 = off)

  bool run_interp = true;   ///< IR interpreter path
  bool run_vm = true;       ///< machine-IR VM path
  bool run_jit = true;      ///< native JIT path (auto-skipped off-ISA)
  bool run_driver = true;   ///< blocked GEMM driver, serial + threaded
  bool run_blas = true;     ///< BLAS-level wrappers vs blas::ref
  bool run_batch = true;    ///< batched small-GEMM fast path vs the
                            ///< reference epilogue oracle (JIT hosts only)
  bool run_level3 = true;   ///< SYMM/SYRK/SYR2K/TRMM/TRSM: every library,
                            ///< RuntimeBlas dispatch, and the engine on the
                            ///< case's kernel (serial ≡ threaded) vs blas::ref
  bool run_semantics = true;  ///< translation validation (the symbolic
                              ///< equivalence proof) on every generated
                              ///< kernel, alongside the bounds proofs
  bool shrink = true;       ///< minimize failing instances

  std::int64_t max_failures = 16;  ///< stop after this many failures
  std::ostream* log = nullptr;     ///< optional progress/failure narration
};

/// One cross-check mismatch (or verifier/generation error), with enough
/// context to reproduce it: `fuzz_kernels --seed <seed> --case <index>`.
struct Failure {
  std::int64_t case_index = 0;
  std::uint64_t case_seed = 0;
  std::string path;      ///< "vm", "jit", "driver-threaded", "blas:gotosim:gemv", …
  std::string config;    ///< kernel configuration (op/ISA/strategy/tile)
  std::string instance;  ///< minimized problem instance
  std::string detail;    ///< first mismatching element, got vs want
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::int64_t cases_run = 0;
  /// Configurations the generator refuses (augem::Refusal: the planner,
  /// or vector or integer registers ran out). Not failures: refusing an
  /// out-of-domain configuration is correct. Any other generation error
  /// is a failure on the `verifier` path.
  std::int64_t configs_rejected = 0;
  /// Number of executions per path name (how often each path actually ran).
  std::map<std::string, std::int64_t> path_runs;
  std::vector<Failure> failures;

  bool ok() const { return failures.empty(); }
  /// Machine-readable report (one JSON object; stable key order).
  std::string to_json() const;
};

/// Runs the harness. Deterministic for fixed options.
FuzzReport run_fuzz(const FuzzOptions& opts);

}  // namespace augem::check
