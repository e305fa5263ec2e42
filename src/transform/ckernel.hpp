#pragma once
// The Optimized C Kernel Generator (paper §2.1): applies the five
// source-to-source transformations to a simple-C kernel with explicit,
// tunable parameters, producing the "low-level optimized C" the Template
// Identifier consumes.
//
// Parameter roles per kernel (mirroring the paper's §4):
//   GEMM : unroll&jam j by `nr`, unroll&jam i by `mr` (the register tile),
//          unroll l by `ku`, then strength reduction, scalar replacement,
//          prefetching. The drivers guarantee mc % mr == 0 and nc % nr == 0.
//   GEMV : unroll the inner j loop by `unroll` (with remainder loop).
//   AXPY / DOT : unroll the i loop by `unroll` (with remainder loop).

#include "frontend/kernels.hpp"
#include "ir/kernel.hpp"
#include "support/arch.hpp"
#include "transform/prefetch.hpp"

namespace augem::transform {

/// Tunable source-level parameters — the search space of the empirical
/// tuner (paper §2.1: "automatically experiments with different unrolling
/// and unroll&jam configurations").
struct CGenParams {
  int mr = 4;            ///< GEMM i-direction register tile (unroll&jam)
  int nr = 2;            ///< GEMM j-direction register tile (unroll&jam)
  int ku = 1;            ///< GEMM inner (l) unroll factor
  int unroll = 8;        ///< level-1/2 inner-loop unroll factor
  PrefetchConfig prefetch;

  std::string to_string() const;
};

/// The parameters a `kind` kernel for `isa` is served with untuned — by
/// augem::default_options, hence KernelSet and the runtime — and the cell
/// the tuner's climb starts from (tuning/search.hpp). GEMM: the 2w×w
/// register tile (8×4 on 256-bit ISAs, 4×2 on SSE2), the shapes
/// hand-written kernels for these machines use, with a depth-4 inner
/// unroll that amortizes loop control. Level-1/2: a 4w unroll. Software
/// prefetch is off: the packed panels stream L1-resident, so
/// per-iteration prefetches only burn load-port slots (see
/// bench_ablation_prefetch).
CGenParams default_params(frontend::KernelKind kind, Isa isa);

/// Runs the full source-to-source pipeline on the simple-C kernel for
/// `kind`, returning the optimized low-level C kernel.
ir::Kernel generate_optimized_c(frontend::KernelKind kind,
                                frontend::BLayout layout,
                                const CGenParams& params);

/// Same, but starting from a caller-provided simple-C kernel (used by
/// tests and by ablations that tweak the input).
void apply_pipeline(ir::Kernel& kernel, frontend::KernelKind kind,
                    const CGenParams& params);

/// Small-GEMM pipeline: register-tiles i by `params.mr` and j by
/// `params.nr` (both must divide the spec's constant extents), strength-
/// reduces, fully unrolls the depth loop, and scalar-replaces — producing a
/// straight-line low-level C kernel whose epilogue stores the Template
/// Identifier's mmEpiSTORE template matches. `params.ku` is ignored: the
/// unroll factor of l is always the spec's k.
ir::Kernel generate_small_gemm_c(const frontend::SmallGemmSpec& spec,
                                 const CGenParams& params);

}  // namespace augem::transform
