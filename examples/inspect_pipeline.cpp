// Walks one kernel through every stage of the AUGEM pipeline and prints the
// intermediate artifacts — the programmatic version of the paper's Figs.
// 12-14 plus the final assembly:
//
//   1. the simple C input            (Fig. 12)
//   2. the optimized low-level C     (Fig. 13)
//   3. the template-annotated form   (Fig. 14)
//   4. the generated assembly, for a selectable ISA
//
//   build/examples/inspect_pipeline [gemm|gemv|axpy|dot] [sse2|avx|fma3|fma4]

#include <cstdio>
#include <cstring>

#include "augem/augem.hpp"
#include "match/identifier.hpp"

int main(int argc, char** argv) {
  using namespace augem;
  using frontend::KernelKind;

  KernelKind kind = KernelKind::kGemm;
  if (argc > 1) {
    for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv,
                         KernelKind::kAxpy, KernelKind::kDot})
      if (std::strcmp(argv[1], frontend::kernel_kind_name(k)) == 0) kind = k;
  }
  Isa isa = Isa::kFma3;
  if (argc > 2) {
    for (Isa i : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
      std::string lower = isa_name(i);
      for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
      if (lower == argv[2]) isa = i;
    }
  }

  KernelConfig options = default_options(kind, isa);
  // Small tile so the listing stays readable.
  options.params.mr = std::min(options.params.mr, 2 * isa_vector_doubles(isa));
  options.params.ku = 1;
  options.params.unroll = std::min(options.params.unroll, 8);

  std::printf("==== 1. simple C input (paper Fig. 12/15/16/17) ====\n%s\n",
              frontend::make_kernel(kind, options.layout).to_string().c_str());

  ir::Kernel optimized = transform::generate_optimized_c(
      kind, options.layout, options.params);
  std::printf("==== 2. optimized low-level C (paper Fig. 13) ====\n%s\n",
              optimized.to_string().c_str());

  ir::Kernel annotated = optimized.clone();
  const match::MatchResult match = match::identify_templates(annotated);
  std::printf("==== 3. template-annotated (paper Fig. 14) ====\n%s\n",
              annotated.to_string().c_str());
  std::printf("identified regions:\n");
  for (const match::Region& r : match.regions)
    std::printf("  #%d %-16s x%zu\n", r.id, r.name().c_str(), r.size());

  const asmgen::GeneratedKernel gen = generate_kernel(options);
  std::printf("\n==== 4. generated %s assembly ====\n%s\n", isa_name(isa),
              gen.asm_text.c_str());
  return 0;
}
