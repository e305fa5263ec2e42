#include "augem/augem.hpp"

#include "analysis/contract.hpp"
#include "support/error.hpp"

namespace augem {

using frontend::KernelKind;
using opt::VecStrategy;
using transform::CGenParams;

GenerateOptions default_options(KernelKind kind, Isa isa) {
  GenerateOptions o;
  o.config.isa = isa;
  const int w = isa_vector_doubles(isa);
  switch (kind) {
    case KernelKind::kGemm:
      // 2w×w register tile: 8×4 on 256-bit ISAs, 4×2 on SSE — the shapes
      // hand-written kernels for these machines use. The depth-4 inner
      // unroll amortizes loop control; software prefetch is off by default
      // (the packed panels stream L1-resident, so per-iteration prefetches
      // only burn load-port slots — see bench_ablation_prefetch).
      o.params.mr = 2 * w;
      o.params.nr = w;
      o.params.ku = 4;
      o.params.prefetch.enabled = false;
      o.config.strategy = VecStrategy::kVdup;
      break;
    case KernelKind::kGemv:
    case KernelKind::kAxpy:
    case KernelKind::kDot:
    case KernelKind::kScal:
      o.params.unroll = 4 * w;
      o.params.prefetch.enabled = false;
      o.config.strategy = VecStrategy::kAuto;
      break;
  }
  return o;
}

asmgen::GeneratedKernel generate_kernel(KernelKind kind,
                                        const GenerateOptions& options) {
  ir::Kernel k =
      transform::generate_optimized_c(kind, options.layout, options.params);
  // With the calling contract in hand we can demand full memory-safety
  // proofs at generation time, not just structural well-formedness.
  const analysis::KernelContract contract =
      analysis::contract_for(kind, options.layout, options.params, k);
  return asmgen::generate_assembly(std::move(k), options.config, &contract);
}

CGenParams small_gemm_params(const frontend::SmallGemmSpec& spec, Isa isa) {
  CGenParams p;
  p.ku = 1;  // ignored: the depth loop unrolls by the spec's k
  p.prefetch.enabled = false;  // straight-line code over tiny operands
  const int w = isa_vector_doubles(isa);
  auto pick = [](int n, std::initializer_list<int> ladder) {
    for (int c : ladder)
      if (c >= 1 && n % c == 0) return c;
    return 1;
  };
  int mr = pick(spec.m, {2 * w, w, 2});
  int nr = pick(spec.n, {4, 2});
  // Accumulator groups this tile would hold resident, at the width the
  // planner will pick for it.
  auto groups = [&](int mr_, int nr_) {
    const int wv = mr_ % w == 0 ? w : (mr_ % 2 == 0 ? 2 : 1);
    return mr_ / wv * nr_;
  };
  // The fully-unrolled body keeps every accumulator group resident plus,
  // per k-step, the A vectors and B broadcast in flight. A scaling epilogue
  // additionally pins broadcast alpha and beta for the whole kernel, and
  // ISAs without a fused multiply-add burn an extra mul temporary on every
  // accumulate — either condition empirically caps the workable tile at
  // ~4 resident groups out of the 16 vector registers.
  const bool has_fma = isa == Isa::kFma3 || isa == Isa::kFma4;
  const int budget = spec.epilogue.scale || !has_fma ? 6 : 12;
  while (groups(mr, nr) > budget && nr > 1) nr /= 2;
  while (groups(mr, nr) > budget && mr > w) mr /= 2;
  p.mr = mr;
  p.nr = nr;
  return p;
}

GenerateOptions default_small_gemm_options(const frontend::SmallGemmSpec& spec,
                                           Isa isa) {
  GenerateOptions o;
  o.config.isa = isa;
  o.config.strategy = VecStrategy::kVdup;
  o.params = small_gemm_params(spec, isa);
  return o;
}

asmgen::GeneratedKernel generate_small_gemm_kernel(
    const frontend::SmallGemmSpec& spec, const GenerateOptions& options) {
  ir::Kernel k = transform::generate_small_gemm_c(spec, options.params);
  const analysis::KernelContract contract =
      analysis::contract_for_small_gemm(spec, k);
  return asmgen::generate_assembly(std::move(k), options.config, &contract);
}

KernelSet::KernelSet(Isa isa) {
  const GenerateOptions g = default_options(KernelKind::kGemm, isa);
  const GenerateOptions l = default_options(KernelKind::kAxpy, isa);
  build(isa, g.params, g.config.strategy, l.params);
}

KernelSet::KernelSet(Isa isa, const CGenParams& gemm_params,
                     VecStrategy gemm_strategy,
                     const CGenParams& level1_params) {
  build(isa, gemm_params, gemm_strategy, level1_params);
}

void KernelSet::build(Isa isa, const CGenParams& gemm_params,
                      VecStrategy gemm_strategy,
                      const CGenParams& level1_params) {
  AUGEM_CHECK(host_arch().supports(isa),
              isa_name(isa) << " is not natively executable on this host; "
                               "use the VM for that ISA");
  AUGEM_CHECK(gemm_strategy != VecStrategy::kShuf,
              "the Shuf GEMM strategy needs row-panel B, but the blocked "
              "driver packs B column-major (BLayout::kColMajor)");
  isa_ = isa;
  gemm_mr_ = gemm_params.mr;
  gemm_nr_ = gemm_params.nr;

  auto make = [&](KernelKind kind, const CGenParams& p, VecStrategy s) {
    GenerateOptions o;
    o.params = p;
    o.config.isa = isa;
    o.config.strategy = s;
    return generate_kernel(kind, o);
  };
  const auto g = make(KernelKind::kGemm, gemm_params, gemm_strategy);
  const auto v = make(KernelKind::kGemv, level1_params, VecStrategy::kAuto);
  const auto a = make(KernelKind::kAxpy, level1_params, VecStrategy::kAuto);
  const auto d = make(KernelKind::kDot, level1_params, VecStrategy::kAuto);
  const auto sc = make(KernelKind::kScal, level1_params, VecStrategy::kAuto);
  asm_[0] = g.asm_text;
  asm_[1] = v.asm_text;
  asm_[2] = a.asm_text;
  asm_[3] = d.asm_text;
  asm_[4] = sc.asm_text;

  // All five kernels live in one shared object.
  module_ = std::make_unique<jit::CompiledModule>(jit::assemble(
      g.asm_text + v.asm_text + a.asm_text + d.asm_text + sc.asm_text));
  gemm_ = module_->fn<GemmFn>(g.name);
  gemv_ = module_->fn<GemvFn>(v.name);
  axpy_ = module_->fn<AxpyFn>(a.name);
  dot_ = module_->fn<DotFn>(d.name);
  scal_ = module_->fn<ScalFn>(sc.name);
}

const std::string& KernelSet::asm_text(KernelKind kind) const {
  return asm_[static_cast<int>(kind)];
}

}  // namespace augem
