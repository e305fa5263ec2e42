// augemc — command-line front door to the AUGEM kernel generator.
//
//   augemc [options]
//     --kernel gemm|gemv|axpy|dot|scal   kernel to generate (default gemm)
//     --isa sse2|avx|fma3|fma4           target ISA (default: host best)
//     --stage simple|optc|tagged|asm     artifact to print (default asm)
//     --mr N --nr N --ku N               GEMM register tile / inner unroll
//     --unroll N                         Level-1/2 unroll factor
//     --strategy vdup|shuf|scalar|auto   vectorization strategy
//     --layout rowpanel|colmajor         packed-B layout (GEMM)
//     --no-prefetch / --prefetch N       software prefetching
//     --no-schedule                      disable instruction scheduling
//     --run N                            JIT the kernel and time it on a
//                                        synthetic workload of size N
//                                        (median MFLOPS, perf::BenchRunner)
//     -o FILE                            write to FILE instead of stdout
//     --help
//
// Examples:
//   augemc --kernel gemm --isa fma4 --mr 8 --nr 4            # AMD-style asm
//   augemc --kernel dot --stage tagged                       # Fig. 14 view
//   augemc --kernel gemm --run 768                           # generate+time

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "augem/augem.hpp"
#include "match/identifier.hpp"
#include "perf/bench_runner.hpp"
#include "support/buffer.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace {

using namespace augem;
using frontend::KernelKind;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr, R"(augemc — AUGEM kernel generator
usage: augemc [--kernel K] [--isa I] [--stage S] [tile options] [-o FILE]
  --kernel gemm|gemv|axpy|dot|scal    (default gemm)
  --isa sse2|avx|fma3|fma4            (default: best host ISA)
  --stage simple|optc|tagged|asm      (default asm)
  --mr N --nr N --ku N --unroll N
  --strategy vdup|shuf|scalar|auto
  --layout rowpanel|colmajor
  --no-prefetch | --prefetch DIST
  --no-schedule
  --run N        JIT + time on a synthetic size-N workload (native ISAs)
  -o FILE        output file (default stdout)
)");
  std::exit(code);
}

std::optional<KernelKind> parse_kernel(const std::string& s) {
  for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv, KernelKind::kAxpy,
                       KernelKind::kDot, KernelKind::kScal})
    if (s == frontend::kernel_kind_name(k)) return k;
  return std::nullopt;
}

std::optional<Isa> parse_isa(const std::string& s) {
  for (Isa i : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    std::string name = isa_name(i);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (s == name) return i;
  }
  return std::nullopt;
}

/// JIT and time one kernel on a synthetic workload; prints MFLOPS.
void run_kernel(const asmgen::GeneratedKernel& gen, KernelKind kind,
                const GenerateOptions& options, long n) {
  if (!host_arch().supports(options.config.isa)) {
    std::fprintf(stderr, "%s is not natively executable on this host\n",
                 isa_name(options.config.isa));
    std::exit(2);
  }
  const jit::CompiledModule mod = jit::assemble(gen.asm_text);
  Rng rng(1);
  double flops = 0.0;
  std::function<void()> work;

  DoubleBuffer a, b, c;
  switch (kind) {
    case KernelKind::kGemm: {
      const long mc = n / options.params.mr * options.params.mr;
      const long nc = n / options.params.nr * options.params.nr;
      const long kc = 256;
      a = DoubleBuffer(static_cast<std::size_t>(mc * kc));
      b = DoubleBuffer(static_cast<std::size_t>(nc * kc));
      c = DoubleBuffer(static_cast<std::size_t>(mc * nc));
      rng.fill(a.span());
      rng.fill(b.span());
      auto* fn = mod.fn<void(long, long, long, const double*, const double*,
                             double*, long)>(gen.name);
      flops = gemm_flops(mc, nc, kc);
      work = [=, &a, &b, &c] {
        fn(mc, nc, kc, a.data(), b.data(), c.data(), mc);
      };
      break;
    }
    case KernelKind::kGemv: {
      a = DoubleBuffer(static_cast<std::size_t>(n * n));
      b = DoubleBuffer(static_cast<std::size_t>(n));
      c = DoubleBuffer(static_cast<std::size_t>(n));
      rng.fill(a.span());
      rng.fill(b.span());
      auto* fn = mod.fn<void(long, long, const double*, long, const double*,
                             double*)>(gen.name);
      flops = gemv_flops(n, n);
      work = [=, &a, &b, &c] { fn(n, n, a.data(), n, b.data(), c.data()); };
      break;
    }
    case KernelKind::kAxpy: {
      a = DoubleBuffer(static_cast<std::size_t>(n));
      b = DoubleBuffer(static_cast<std::size_t>(n));
      rng.fill(a.span());
      auto* fn = mod.fn<void(long, double, const double*, double*)>(gen.name);
      flops = axpy_flops(n);
      work = [=, &a, &b] { fn(n, 1.0000001, a.data(), b.data()); };
      break;
    }
    case KernelKind::kDot: {
      a = DoubleBuffer(static_cast<std::size_t>(n));
      b = DoubleBuffer(static_cast<std::size_t>(n));
      rng.fill(a.span());
      rng.fill(b.span());
      auto* fn = mod.fn<double(long, const double*, const double*)>(gen.name);
      flops = dot_flops(n);
      work = [=, &a, &b] {
        volatile double sink = fn(n, a.data(), b.data());
        (void)sink;
      };
      break;
    }
    case KernelKind::kScal: {
      a = DoubleBuffer(static_cast<std::size_t>(n));
      rng.fill(a.span());
      auto* fn = mod.fn<void(long, double, double*)>(gen.name);
      flops = static_cast<double>(n);
      work = [=, &a] { fn(n, 1.0000001, a.data()); };
      break;
    }
  }
  const perf::Measurement m = perf::BenchRunner().run(flops, work);
  std::printf("%s [%s] size %ld: %.1f MFLOPS\n", gen.name.c_str(),
              isa_name(options.config.isa), n, m.mflops());
}

}  // namespace

int main(int argc, char** argv) {
  KernelKind kind = KernelKind::kGemm;
  Isa isa = host_arch().best_native_isa();
  std::string stage = "asm";
  std::string out_path;
  std::optional<long> run_size;
  GenerateOptions options = default_options(kind, isa);
  bool tile_overridden = false;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(1);
    return argv[++i];
  };

  // First pass for --kernel/--isa so defaults are computed before overrides.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel") {
      const auto k = parse_kernel(need_value(i));
      if (!k) usage(1);
      kind = *k;
    } else if (arg == "--isa") {
      const auto parsed = parse_isa(need_value(i));
      if (!parsed) usage(1);
      isa = *parsed;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    }
  }
  options = default_options(kind, isa);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel" || arg == "--isa") {
      ++i;  // handled above
    } else if (arg == "--stage") {
      stage = need_value(i);
    } else if (arg == "--mr") {
      options.params.mr = std::atoi(need_value(i).c_str());
      tile_overridden = true;
    } else if (arg == "--nr") {
      options.params.nr = std::atoi(need_value(i).c_str());
      tile_overridden = true;
    } else if (arg == "--ku") {
      options.params.ku = std::atoi(need_value(i).c_str());
    } else if (arg == "--unroll") {
      options.params.unroll = std::atoi(need_value(i).c_str());
    } else if (arg == "--strategy") {
      const std::string s = need_value(i);
      if (s == "vdup") options.config.strategy = opt::VecStrategy::kVdup;
      else if (s == "shuf") options.config.strategy = opt::VecStrategy::kShuf;
      else if (s == "scalar") options.config.strategy = opt::VecStrategy::kScalar;
      else if (s == "auto") options.config.strategy = opt::VecStrategy::kAuto;
      else usage(1);
    } else if (arg == "--layout") {
      const std::string s = need_value(i);
      if (s == "rowpanel") options.layout = frontend::BLayout::kRowPanel;
      else if (s == "colmajor") options.layout = frontend::BLayout::kColMajor;
      else usage(1);
    } else if (arg == "--no-prefetch") {
      options.params.prefetch.enabled = false;
    } else if (arg == "--prefetch") {
      options.params.prefetch.enabled = true;
      options.params.prefetch.distance = std::atoi(need_value(i).c_str());
    } else if (arg == "--no-schedule") {
      options.config.schedule = false;
    } else if (arg == "--run") {
      run_size = std::atol(need_value(i).c_str());
    } else if (arg == "-o") {
      out_path = need_value(i);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(1);
    }
  }
  (void)tile_overridden;

  try {
    std::string artifact;
    if (stage == "simple") {
      artifact = frontend::make_kernel(kind, options.layout).to_string();
    } else if (stage == "optc") {
      artifact = transform::generate_optimized_c(kind, options.layout,
                                                 options.params)
                     .to_string();
    } else if (stage == "tagged") {
      ir::Kernel k = transform::generate_optimized_c(kind, options.layout,
                                                     options.params);
      match::identify_templates(k);
      artifact = k.to_string();
    } else if (stage == "asm") {
      artifact = generate_kernel(kind, options).asm_text;
    } else {
      usage(1);
    }

    if (out_path.empty()) {
      std::cout << artifact;
    } else {
      std::ofstream out(out_path);
      out << artifact;
      std::fprintf(stderr, "wrote %zu bytes to %s\n", artifact.size(),
                   out_path.c_str());
    }

    if (run_size) {
      const auto gen = generate_kernel(kind, options);
      run_kernel(gen, kind, options, *run_size);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
