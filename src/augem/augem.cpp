#include "augem/augem.hpp"

#include <sstream>

#include "analysis/contract.hpp"
#include "support/error.hpp"

namespace augem {

using frontend::KernelKind;
using opt::VecStrategy;
using transform::CGenParams;

KernelConfig default_options(KernelKind kind, Isa isa) {
  KernelConfig c;
  c.kind = kind;
  c.params = transform::default_params(kind, isa);
  c.config.isa = isa;
  return c;
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

KernelConfig default_small_gemm_options(const frontend::SmallGemmSpec& spec,
                                        Isa isa) {
  KernelConfig c;
  c.small = spec;
  c.params = small_gemm_params(spec, isa);
  c.config.isa = isa;
  return c;
}

namespace {

/// A configuration lowered to optimized low-level C, with the calling
/// contract its machine code is proved against.
struct Lowered {
  ir::Kernel kernel;
  analysis::KernelContract contract;
};

Lowered lower(const KernelConfig& config) {
  Lowered l{config.small
                ? transform::generate_small_gemm_c(*config.small, config.params)
                : transform::generate_optimized_c(config.kind, config.layout,
                                                  config.params),
            {}};
  l.contract = config.small
                   ? analysis::contract_for_small_gemm(*config.small, l.kernel)
                   : analysis::contract_for(config.kind, config.layout,
                                            config.params, l.kernel);
  return l;
}

}  // namespace

asmgen::GeneratedKernel generate_kernel(const KernelConfig& config) {
  Lowered l = lower(config);
  return asmgen::generate_assembly(std::move(l.kernel), config.config,
                                   &l.contract);
}

std::string KernelConfig::to_string() const {
  std::ostringstream os;
  os << frontend::kernel_kind_name(kind);
  if (small) os << " small=" << small->to_string();
  os << " isa=" << isa_name(config.isa)
     << " strategy=" << opt::vec_strategy_name(config.strategy);
  if (kind == KernelKind::kGemm && !small)
    os << " layout="
       << (layout == frontend::BLayout::kRowPanel ? "row-panel" : "col-major");
  os << " " << params.to_string();
  return os.str();
}

AnalyzedKernel generate_and_analyze(const KernelConfig& config,
                                    bool semantics) {
  // Generated without the contract, so that bounds and semantics findings
  // come back in the report instead of being thrown.
  Lowered l = lower(config);
  AnalyzedKernel out{
      asmgen::generate_assembly(std::move(l.kernel), config.config), {}};
  const analysis::SemanticsSpec spec{config.kind, config.layout, config.small};
  out.report = analysis::analyze(
      out.kernel.insts,
      asmgen::analyze_options(out.kernel.source, &l.contract,
                              semantics ? &spec : nullptr));
  return out;
}

KernelSet::KernelSet(Isa isa) {
  const KernelConfig g = default_options(KernelKind::kGemm, isa);
  const KernelConfig l = default_options(KernelKind::kAxpy, isa);
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

  auto make = [&](KernelKind kind, const CGenParams& p) {
    KernelConfig c = default_options(kind, isa);
    c.params = p;
    if (kind == KernelKind::kGemm) c.config.strategy = gemm_strategy;
    return generate_kernel(c);
  };
  const auto g = make(KernelKind::kGemm, gemm_params);
  const auto v = make(KernelKind::kGemv, level1_params);
  const auto a = make(KernelKind::kAxpy, level1_params);
  const auto d = make(KernelKind::kDot, level1_params);
  const auto sc = make(KernelKind::kScal, level1_params);
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
