#include "transform/ckernel.hpp"

#include <sstream>

#include "support/error.hpp"
#include "transform/scalarrep.hpp"
#include "transform/strength.hpp"
#include "transform/unroll.hpp"

namespace augem::transform {

using frontend::KernelKind;

std::string CGenParams::to_string() const {
  std::ostringstream os;
  os << "mr=" << mr << " nr=" << nr << " ku=" << ku << " unroll=" << unroll
     << " prefetch=" << (prefetch.enabled ? "on" : "off");
  if (prefetch.enabled) os << " dist=" << prefetch.distance;
  return os.str();
}

CGenParams default_params(KernelKind kind, Isa isa) {
  const int w = isa_vector_doubles(isa);
  CGenParams p;
  p.prefetch.enabled = false;
  if (kind == KernelKind::kGemm) {
    p.mr = 2 * w;
    p.nr = w;
    p.ku = 4;
  } else {
    p.unroll = 4 * w;
  }
  return p;
}

void apply_pipeline(ir::Kernel& kernel, KernelKind kind,
                    const CGenParams& params) {
  switch (kind) {
    case KernelKind::kGemm:
      AUGEM_CHECK(params.mr >= 1 && params.nr >= 1 && params.ku >= 1,
                  "invalid GEMM tile " << params.to_string());
      // Register tiling: the macro driver pads/guarantees divisibility of
      // mc by mr and nc by nr, so no remainder loops are needed here.
      // i is jammed first so the final statement order groups the C-tile
      // stores per column cursor (C0[0], C0[1], …, C1[0], C1[1] — the
      // paper's Fig. 14 order, which mmUnrolledSTORE merging relies on).
      unroll_and_jam(kernel, "i", params.mr, /*assume_divisible=*/true);
      unroll_and_jam(kernel, "j", params.nr, /*assume_divisible=*/true);
      // The l loop is unrolled *after* strength reduction: the A/B strides
      // (mc, nc) are runtime values, so unrolled copies advance the cursors
      // between groups instead of multiplying the cursor count (runtime
      // strides cannot become constant x86 displacements).
      strength_reduce(kernel);
      if (params.ku > 1) unroll(kernel, "l", params.ku);
      scalar_replace(kernel);
      check_three_address_form(kernel);
      insert_prefetch(kernel, params.prefetch);
      return;
    case KernelKind::kGemv:
      AUGEM_CHECK(params.unroll >= 1, "invalid unroll " << params.unroll);
      if (params.unroll > 1) unroll(kernel, "j", params.unroll);
      break;
    case KernelKind::kAxpy:
    case KernelKind::kDot:
    case KernelKind::kScal:
      AUGEM_CHECK(params.unroll >= 1, "invalid unroll " << params.unroll);
      if (params.unroll > 1) unroll(kernel, "i", params.unroll);
      break;
  }
  strength_reduce(kernel);
  scalar_replace(kernel);
  check_three_address_form(kernel);
  insert_prefetch(kernel, params.prefetch);
}

ir::Kernel generate_optimized_c(KernelKind kind, frontend::BLayout layout,
                                const CGenParams& params) {
  ir::Kernel kernel = frontend::make_kernel(kind, layout);
  apply_pipeline(kernel, kind, params);
  return kernel;
}

ir::Kernel generate_small_gemm_c(const frontend::SmallGemmSpec& spec,
                                 const CGenParams& params) {
  AUGEM_CHECK(params.mr >= 1 && params.nr >= 1,
              "invalid small-GEMM tile " << params.to_string());
  AUGEM_CHECK(spec.m % params.mr == 0 && spec.n % params.nr == 0,
              "small-GEMM tile " << params.mr << "x" << params.nr
                                 << " must divide " << spec.to_string());
  ir::Kernel kernel = frontend::make_small_gemm_kernel(spec);
  unroll_and_jam(kernel, "i", params.mr, /*assume_divisible=*/true);
  unroll_and_jam(kernel, "j", params.nr, /*assume_divisible=*/true);
  // Like GEMM the strides (lda/ldb/ldc) are runtime values, so cursors are
  // created before the depth loop is unrolled; unlike GEMM the depth extent
  // is a constant, so it unrolls away completely.
  strength_reduce(kernel);
  if (spec.k > 1) unroll(kernel, "l", spec.k);
  scalar_replace(kernel);
  check_three_address_form(kernel);
  insert_prefetch(kernel, params.prefetch);
  return kernel;
}

}  // namespace augem::transform
