// mirlint — static analyzer for AUGEM-generated machine kernels.
//
// Generates a kernel exactly as augemc would, then runs the full analysis
// pipeline (analysis/analyzer.hpp) on its machine IR: CFG construction,
// structural and encoding checks, flag liveness, path-sensitive definite
// assignment, dead-store and register-queue-reuse detection, and symbolic
// memory-bounds proofs against the kernel's calling contract.
//
//   mirlint [options]
//     --kernel gemm|gemv|axpy|dot|scal   kernel to analyze (default gemm)
//     --isa sse2|avx|fma3|fma4           target ISA (default fma3)
//     --layout rowpanel|colmajor         packed-B layout (GEMM)
//     --strategy vdup|shuf|scalar|auto   vectorization strategy
//     --mr N --nr N --ku N --unroll N    tile / unroll parameters
//     --small MxNxK                      analyze the shape-specialized
//                                        batched small-GEMM kernel instead
//                                        of the blocked GEMM
//     --epi scale,bias,relu              fused epilogue for --small (any
//                                        comma-separated subset)
//     --prefetch N | --no-prefetch       software prefetching
//     --no-schedule                      disable instruction scheduling
//     --no-bounds                        skip the symbolic bounds pass
//     --semantics                        also run translation validation
//                                        (single-case mode; the sweep always
//                                        runs it unless --no-semantics)
//     --no-semantics                     skip translation validation
//     --text                             human-readable findings (default JSON)
//     --sweep                            analyze the full op x layout x ISA x
//                                        strategy x tile grid; print progress,
//                                        a per-pass findings table and a
//                                        summary
//     --artifact PATH                    (with --sweep) also write a JSON
//                                        artifact with per-section results
//     --search-sample N                  (with --sweep) additionally analyze
//                                        N random points drawn from the
//                                        tuner's search spaces — the same
//                                        spaces the hill climb walks — so
//                                        search-reachable configs outside
//                                        the fixed grid are bounds-proved
//     --search-seed S                    RNG seed for --search-sample
//                                        (default 2013, deterministic)
//     --check-artifact PATH              validate a sweep artifact instead of
//                                        analyzing; requires --section
//     --section bounds|semantics|search_sample
//                                        artifact section to gate on
//     --help
//
// Exit status: 0 when no error-severity findings, 1 otherwise (warnings
// alone — dead stores, queue-reuse hazards, long prefetches — exit 0).
// The artifact schema is documented in docs/static-analysis.md.

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "asmgen/codegen.hpp"
#include "augem/augem.hpp"
#include "frontend/kernels.hpp"
#include "opt/plan.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "transform/ckernel.hpp"
#include "tuning/search.hpp"

namespace {

using namespace augem;
using frontend::BLayout;
using frontend::KernelKind;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr, R"(mirlint — machine-IR static analyzer
usage: mirlint [--kernel K] [--isa I] [config options] [--text] [--sweep]
  --kernel gemm|gemv|axpy|dot|scal    (default gemm)
  --isa sse2|avx|fma3|fma4            (default fma3)
  --layout rowpanel|colmajor
  --strategy vdup|shuf|scalar|auto
  --mr N --nr N --ku N --unroll N
  --small MxNxK   analyze the batched small-GEMM kernel for these extents
  --epi LIST      fused epilogue for --small: comma-separated scale,bias,relu
  --prefetch DIST | --no-prefetch
  --no-schedule   disable instruction scheduling
  --no-bounds     skip the symbolic memory-bounds pass
  --semantics     also run translation validation (default in --sweep)
  --no-semantics  skip translation validation
  --text          human-readable findings instead of JSON
  --sweep         analyze every op x layout x ISA x strategy x tile config
  --search-sample N  (with --sweep) also analyze N random tuner-search points
  --search-seed S    RNG seed for --search-sample (default 2013)
  --artifact P    (with --sweep) write a JSON artifact of the results
  --check-artifact P --section bounds|semantics|search_sample
                  gate on one section of a previously written artifact
exit: 0 = no errors (warnings allowed), 1 = error findings or bad usage
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

struct Case {
  KernelKind op = KernelKind::kGemm;
  BLayout layout = BLayout::kRowPanel;
  opt::OptConfig config;
  transform::CGenParams params;
  /// Set for the batched small-GEMM path: the shape-specialized fully
  /// unrolled kernel with these extents + fused epilogue is analyzed
  /// instead of the generic blocked kernel.
  std::optional<frontend::SmallGemmSpec> small;

  std::string to_string() const {
    std::string s = frontend::kernel_kind_name(op);
    if (small) {
      s += " small=";
      s += small->to_string();
    }
    s += " [";
    s += isa_name(config.isa);
    s += ", ";
    s += vec_strategy_name(config.strategy);
    if (op == KernelKind::kGemm && !small) {
      s += layout == BLayout::kRowPanel ? ", rowpanel" : ", colmajor";
    }
    s += ", ";
    s += params.to_string();
    s += "]";
    return s;
  }
};

/// The reference-semantics spec the translation validator should prove a
/// case against.
analysis::SemanticsSpec semantics_spec_for(const Case& c) {
  analysis::SemanticsSpec s;
  s.kind = c.op;
  s.layout = c.layout;
  s.small = c.small;
  return s;
}

/// Generates and analyzes one configuration. Returns the number of
/// error-severity findings (a generation-time verifier throw counts as one).
int analyze_case(const Case& c, bool with_bounds, bool with_semantics,
                 bool as_text, bool print) {
  asmgen::GeneratedKernel gen = [&] {
    // Generate WITHOUT a contract: the analyzer below is the one reporting,
    // so generation-time bounds failures don't abort before we can print.
    ir::Kernel k = c.small
                       ? transform::generate_small_gemm_c(*c.small, c.params)
                       : transform::generate_optimized_c(c.op, c.layout,
                                                         c.params);
    return asmgen::generate_assembly(std::move(k), c.config);
  }();

  int f64_params = 0;
  for (const ir::Param& p : gen.source.params())
    if (p.type == ir::ScalarType::kF64) ++f64_params;

  const analysis::KernelContract contract =
      c.small ? analysis::contract_for_small_gemm(*c.small, gen.source)
              : analysis::contract_for(c.op, c.layout, c.params, gen.source);
  const analysis::SemanticsSpec sspec = semantics_spec_for(c);
  analysis::AnalyzeOptions aopts;
  aopts.num_f64_params = f64_params;
  if (with_bounds) aopts.contract = &contract;
  if (with_bounds && with_semantics) aopts.semantics = &sspec;

  const analysis::AnalysisReport report = analysis::analyze(gen.insts, aopts);
  if (print) {
    if (as_text)
      std::fputs(report.to_string(gen.insts).c_str(), stdout);
    else
      std::fputs(report.to_json(gen.insts).c_str(), stdout);
  }
  return static_cast<int>(report.errors());
}

/// Aggregated sweep results, split into the two gated sections: the
/// semantics section holds every `semantics-*` finding (the translation
/// validator), the bounds section everything else (bounds proofs plus the
/// structural/flags/assignment passes and generation-time verifier throws).
struct SweepStats {
  int analyzed = 0;
  int rejected = 0;
  int warnings = 0;
  int errors_bounds = 0;
  int errors_semantics = 0;
  int sampled = 0;            ///< --search-sample points analyzed
  int errors_search = 0;      ///< error findings on sampled search points
  std::vector<std::string> failed_bounds;
  std::vector<std::string> failed_semantics;
  std::vector<std::string> failed_search;
  std::map<std::string, int> by_kind;  ///< error/warning findings per kind
};

bool is_semantics_kind(const std::string& kind) {
  return kind.rfind("semantics-", 0) == 0;
}

void write_artifact(const SweepStats& s, const std::string& path) {
  std::ostringstream os;
  auto section = [&](const char* name, int errors,
                     const std::vector<std::string>& failed) {
    os << "\"" << name << "\":{\"errors\":" << errors
       << ",\"failed_configs\":[";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      if (i) os << ",";
      os << "\"" << analysis::json_escape(failed[i]) << "\"";
    }
    os << "]}";
  };
  os << "{\"analyzed\":" << s.analyzed << ",\"rejected\":" << s.rejected
     << ",\"warnings\":" << s.warnings << ",\"sections\":{";
  section("bounds", s.errors_bounds, s.failed_bounds);
  os << ",";
  section("semantics", s.errors_semantics, s.failed_semantics);
  os << ",";
  section("search_sample", s.errors_search, s.failed_search);
  os << "},\"sampled\":" << s.sampled << ",\"by_kind\":{";
  bool first = true;
  for (const auto& [kind, n] : s.by_kind) {
    if (!first) os << ",";
    first = false;
    os << "\"" << analysis::json_escape(kind) << "\":" << n;
  }
  os << "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "mirlint: cannot write artifact %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(os.str().c_str(), f);
  std::fclose(f);
}

/// Gate on one section of a previously written sweep artifact. Kept to a
/// deliberately small parser: the artifact is produced by write_artifact
/// above, so its shape is fully known.
int check_artifact(const std::string& path, const std::string& section) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "mirlint: cannot read artifact %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  int analyzed = -1;
  if (std::sscanf(text.c_str(), "{\"analyzed\":%d", &analyzed) != 1 ||
      analyzed <= 0) {
    std::fprintf(stderr, "mirlint: artifact %s has no analyzed configs\n",
                 path.c_str());
    return 1;
  }
  const std::string key = "\"" + section + "\":{\"errors\":";
  const char* at = std::strstr(text.c_str(), key.c_str());
  int errors = -1;
  if (at == nullptr ||
      std::sscanf(at + key.size(), "%d", &errors) != 1 || errors < 0) {
    std::fprintf(stderr, "mirlint: artifact %s has no '%s' section\n",
                 path.c_str(), section.c_str());
    return 1;
  }
  std::printf("mirlint %s gate: %d configs analyzed, %d error finding(s)\n",
              section.c_str(), analyzed, errors);
  if (errors > 0) {
    // Surface the failing configs for the log.
    const std::string fkey = "\"failed_configs\":[";
    const char* fat = std::strstr(at, fkey.c_str());
    if (fat != nullptr) {
      const char* end = std::strchr(fat, ']');
      if (end != nullptr)
        std::printf("  failing: %.*s\n",
                    static_cast<int>(end - fat - fkey.size()),
                    fat + fkey.size());
    }
  }
  return errors > 0 ? 1 : 0;
}

int run_sweep(bool with_bounds, bool with_semantics, int search_sample,
              std::uint64_t search_seed, const std::string& artifact_path) {
  SweepStats stats;
  constexpr int kProgressEvery = 128;
  int visited = 0;
  // `sampled` routes a case's error findings into the search_sample
  // artifact section instead of bounds/semantics: sampled points gate the
  // tuner's reachable space, the fixed grid gates the generator itself.
  bool sampled = false;
  auto visit = [&](const Case& c) {
    if (++visited % kProgressEvery == 0)
      std::fprintf(stderr, "mirlint sweep: ... %d configs visited (%d "
                           "analyzed, %d rejected)\n",
                   visited, stats.analyzed, stats.rejected);
    try {
      ir::Kernel k =
          c.small ? transform::generate_small_gemm_c(*c.small, c.params)
                  : transform::generate_optimized_c(c.op, c.layout, c.params);
      asmgen::GeneratedKernel gen =
          asmgen::generate_assembly(std::move(k), c.config);

      int f64_params = 0;
      for (const ir::Param& p : gen.source.params())
        if (p.type == ir::ScalarType::kF64) ++f64_params;
      const analysis::KernelContract contract =
          c.small
              ? analysis::contract_for_small_gemm(*c.small, gen.source)
              : analysis::contract_for(c.op, c.layout, c.params, gen.source);
      const analysis::SemanticsSpec sspec = semantics_spec_for(c);
      analysis::AnalyzeOptions aopts;
      aopts.num_f64_params = f64_params;
      if (with_bounds) aopts.contract = &contract;
      if (with_bounds && with_semantics) aopts.semantics = &sspec;

      const analysis::AnalysisReport report =
          analysis::analyze(gen.insts, aopts);
      ++stats.analyzed;
      if (sampled) ++stats.sampled;
      stats.warnings +=
          static_cast<int>(report.count(analysis::Severity::kWarning));
      int err_bounds = 0, err_sem = 0;
      for (const analysis::Finding& f : report.findings) {
        if (f.severity == analysis::Severity::kNote) continue;
        ++stats.by_kind[f.kind];
        if (f.severity != analysis::Severity::kError) continue;
        if (is_semantics_kind(f.kind))
          ++err_sem;
        else
          ++err_bounds;
      }
      if (err_bounds + err_sem > 0) {
        std::printf("FAIL %s\n", c.to_string().c_str());
        for (const analysis::Finding& f : report.findings)
          if (f.severity == analysis::Severity::kError)
            std::printf("  [%zu] %s: %s\n", f.index, f.kind.c_str(),
                        f.message.c_str());
      }
      if (sampled) {
        if (err_bounds + err_sem > 0) {
          stats.errors_search += err_bounds + err_sem;
          stats.failed_search.push_back(c.to_string());
        }
      } else {
        if (err_bounds > 0) {
          stats.errors_bounds += err_bounds;
          stats.failed_bounds.push_back(c.to_string());
        }
        if (err_sem > 0) {
          stats.errors_semantics += err_sem;
          stats.failed_semantics.push_back(c.to_string());
        }
      }
    } catch (const Error& e) {
      // Planner / register-allocator rejections are expected out-of-domain
      // outcomes; a verification failure inside generation is a real error.
      if (std::strstr(e.what(), "machine-code verification failed") !=
          nullptr) {
        if (sampled) {
          ++stats.errors_search;
          stats.failed_search.push_back(c.to_string());
        } else {
          ++stats.errors_bounds;
          stats.failed_bounds.push_back(c.to_string());
        }
        ++stats.by_kind["generation-verify"];
        std::printf("FAIL %s\n  generation-time verification: %s\n",
                    c.to_string().c_str(), e.what());
      } else {
        ++stats.rejected;
      }
    }
  };

  const Isa isas[] = {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4};
  const opt::VecStrategy strategies[] = {
      opt::VecStrategy::kVdup, opt::VecStrategy::kShuf,
      opt::VecStrategy::kScalar, opt::VecStrategy::kAuto};

  for (Isa isa : isas) {
    const int w = isa_vector_doubles(isa);
    for (opt::VecStrategy strat : strategies) {
      // GEMM: both layouts, a grid of register tiles and inner unrolls.
      for (BLayout layout : {BLayout::kRowPanel, BLayout::kColMajor}) {
        for (const auto& [mr, nr] : {std::pair{w, w},       {2 * w, w},
                                     std::pair{2 * w, 2 * w}, {4 * w, w},
                                     std::pair{w, 2 * w}}) {
          for (int ku : {1, 2, 4}) {
            for (bool pf : {false, true}) {
              Case c;
              c.op = KernelKind::kGemm;
              c.layout = layout;
              c.config.isa = isa;
              c.config.strategy = strat;
              c.params.mr = mr;
              c.params.nr = nr;
              c.params.ku = ku;
              c.params.prefetch.enabled = pf;
              visit(c);
            }
          }
        }
      }
      // Level-1/2 kernels: unroll grid.
      for (KernelKind op : {KernelKind::kGemv, KernelKind::kAxpy,
                            KernelKind::kDot, KernelKind::kScal}) {
        for (int unroll : {1, 2, w, 2 * w, 4 * w}) {
          for (bool pf : {false, true}) {
            Case c;
            c.op = op;
            c.config.isa = isa;
            c.config.strategy = strat;
            c.params.unroll = unroll;
            c.params.prefetch.enabled = pf;
            visit(c);
          }
        }
      }
    }
  }

  // Batched small-GEMM kernels: shape x fused-epilogue grid on every ISA.
  // The register tile comes from small_gemm_params (what the dispatcher
  // bakes in), so this sweeps exactly the variants the runtime can serve.
  {
    const frontend::EpilogueSpec epis[] = {
        {},
        {.scale = true},
        {.bias = true},
        {.relu = true},
        {.scale = true, .bias = true},
        {.bias = true, .relu = true},
        {.scale = true, .relu = true},
        {.scale = true, .bias = true, .relu = true},
    };
    const struct {
      int m, n, k;
    } shapes[] = {{16, 16, 16}, {8, 4, 8}, {4, 4, 4}, {5, 3, 7}, {32, 32, 8}};
    for (Isa isa : isas)
      for (const auto& sh : shapes)
        for (const frontend::EpilogueSpec& e : epis) {
          frontend::SmallGemmSpec spec;
          spec.m = sh.m;
          spec.n = sh.n;
          spec.k = sh.k;
          spec.epilogue = e;
          Case c;
          c.op = KernelKind::kGemm;
          c.small = spec;
          c.config.isa = isa;
          c.config.strategy = opt::VecStrategy::kVdup;
          c.params = small_gemm_params(spec, isa);
          visit(c);
        }
  }

  // --search-sample: draw N random points from the tuner's own search
  // spaces (tuning/search.hpp) and push them through the same analysis.
  // The hill climb can reach any of these; every one must bounds-prove
  // even though the fixed grid above never visits it.
  if (search_sample > 0) {
    Rng rng(search_seed);
    sampled = true;
    const KernelKind l1_ops[] = {KernelKind::kGemv, KernelKind::kAxpy,
                                 KernelKind::kDot, KernelKind::kScal};
    for (int i = 0; i < search_sample; ++i) {
      const Isa isa = isas[rng.engine()() % 4];
      const bool gemm = rng.engine()() % 2 == 0;
      const tuning::SearchSpace space =
          gemm ? tuning::SearchSpace::gemm(isa) : tuning::SearchSpace::level1();
      Case c;
      c.params = space.materialize(space.random_point(rng));
      c.op = gemm ? KernelKind::kGemm : l1_ops[rng.engine()() % 4];
      // The layout and strategy the tuner generates every point with.
      c.layout = BLayout::kColMajor;
      c.config.isa = isa;
      c.config.strategy = opt::VecStrategy::kVdup;
      visit(c);
    }
    sampled = false;
    std::printf("mirlint search-sample: %d points drawn (seed %llu), "
                "%d analyzed, %d error finding(s)\n",
                search_sample, (unsigned long long)search_seed, stats.sampled,
                stats.errors_search);
  }

  // Count distinct failing configs (a config can fail both sections).
  std::set<std::string> failed(stats.failed_bounds.begin(),
                               stats.failed_bounds.end());
  failed.insert(stats.failed_semantics.begin(), stats.failed_semantics.end());
  failed.insert(stats.failed_search.begin(), stats.failed_search.end());
  const int errors =
      stats.errors_bounds + stats.errors_semantics + stats.errors_search;
  std::printf(
      "mirlint sweep: %d configs analyzed, %d rejected (out of domain), "
      "%d warning(s), %d error finding(s) in %d config(s)\n",
      stats.analyzed, stats.rejected, stats.warnings, errors,
      static_cast<int>(failed.size()));

  // Per-pass breakdown: every error/warning kind seen, grouped by section.
  if (with_bounds) {
    std::printf("  section     errors  failing configs\n");
    std::printf("  bounds      %6d  %d\n", stats.errors_bounds,
                static_cast<int>(stats.failed_bounds.size()));
    if (with_semantics)
      std::printf("  semantics   %6d  %d\n", stats.errors_semantics,
                  static_cast<int>(stats.failed_semantics.size()));
    if (search_sample > 0)
      std::printf("  search      %6d  %d\n", stats.errors_search,
                  static_cast<int>(stats.failed_search.size()));
  }
  if (!stats.by_kind.empty()) {
    std::printf("  findings by kind:\n");
    for (const auto& [kind, n] : stats.by_kind)
      std::printf("    %-28s %d\n", kind.c_str(), n);
  }

  if (!artifact_path.empty()) write_artifact(stats, artifact_path);
  return errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Case c;
  c.config.isa = Isa::kFma3;
  bool with_bounds = true;
  bool with_semantics = false;  // single-case default; --sweep defaults on
  bool semantics_set = false;
  bool as_text = false;
  bool sweep = false;
  int search_sample = 0;
  std::uint64_t search_seed = 2013;
  std::string artifact_path;
  std::string check_path;
  std::string section;
  bool tile_set = false;      // explicit --mr/--nr override the small default
  bool strategy_set = false;  // explicit --strategy overrides the small default
  frontend::EpilogueSpec epi;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(1);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--kernel") {
      const auto k = parse_kernel(need_value(i));
      if (!k) usage(1);
      c.op = *k;
    } else if (arg == "--isa") {
      const auto isa = parse_isa(need_value(i));
      if (!isa) usage(1);
      c.config.isa = *isa;
    } else if (arg == "--layout") {
      const std::string v = need_value(i);
      if (v == "rowpanel") c.layout = BLayout::kRowPanel;
      else if (v == "colmajor") c.layout = BLayout::kColMajor;
      else usage(1);
    } else if (arg == "--strategy") {
      const std::string v = need_value(i);
      if (v == "vdup") c.config.strategy = opt::VecStrategy::kVdup;
      else if (v == "shuf") c.config.strategy = opt::VecStrategy::kShuf;
      else if (v == "scalar") c.config.strategy = opt::VecStrategy::kScalar;
      else if (v == "auto") c.config.strategy = opt::VecStrategy::kAuto;
      else usage(1);
      strategy_set = true;
    } else if (arg == "--small") {
      const std::string v = need_value(i);
      frontend::SmallGemmSpec spec;
      if (std::sscanf(v.c_str(), "%dx%dx%d", &spec.m, &spec.n, &spec.k) != 3 ||
          spec.m < 1 || spec.n < 1 || spec.k < 1) {
        std::fprintf(stderr, "bad --small value: %s (want MxNxK)\n", v.c_str());
        usage(1);
      }
      c.small = spec;
    } else if (arg == "--epi") {
      std::string v = need_value(i);
      for (char& ch : v)
        if (ch == ',' || ch == '+') ch = ' ';
      std::istringstream in(v);
      std::string tok;
      while (in >> tok) {
        if (tok == "scale") epi.scale = true;
        else if (tok == "bias") epi.bias = true;
        else if (tok == "relu") epi.relu = true;
        else {
          std::fprintf(stderr, "bad --epi token: %s\n", tok.c_str());
          usage(1);
        }
      }
    } else if (arg == "--mr") {
      c.params.mr = std::stoi(need_value(i));
      tile_set = true;
    } else if (arg == "--nr") {
      c.params.nr = std::stoi(need_value(i));
      tile_set = true;
    } else if (arg == "--ku") {
      c.params.ku = std::stoi(need_value(i));
    } else if (arg == "--unroll") {
      c.params.unroll = std::stoi(need_value(i));
    } else if (arg == "--prefetch") {
      c.params.prefetch.enabled = true;
      c.params.prefetch.distance = std::stoi(need_value(i));
    } else if (arg == "--no-prefetch") {
      c.params.prefetch.enabled = false;
    } else if (arg == "--no-schedule") {
      c.config.schedule = false;
    } else if (arg == "--no-bounds") {
      with_bounds = false;
    } else if (arg == "--semantics") {
      with_semantics = true;
      semantics_set = true;
    } else if (arg == "--no-semantics") {
      with_semantics = false;
      semantics_set = true;
    } else if (arg == "--artifact") {
      artifact_path = need_value(i);
    } else if (arg == "--check-artifact") {
      check_path = need_value(i);
    } else if (arg == "--search-sample") {
      search_sample = std::stoi(need_value(i));
    } else if (arg == "--search-seed") {
      search_seed = std::stoull(need_value(i));
    } else if (arg == "--section") {
      section = need_value(i);
      if (section != "bounds" && section != "semantics" &&
          section != "search_sample") {
        std::fprintf(stderr, "bad --section value: %s\n", section.c_str());
        usage(1);
      }
    } else if (arg == "--text") {
      as_text = true;
    } else if (arg == "--sweep") {
      sweep = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(1);
    }
  }

  if (c.small) {
    c.small->epilogue = epi;
    c.op = KernelKind::kGemm;
    // Mirror the dispatcher's defaults unless explicitly overridden: the
    // register tile follows from the extents (and the scale epilogue's
    // register pressure), and small kernels vectorize with vdup.
    if (!tile_set) c.params = small_gemm_params(*c.small, c.config.isa);
    if (!strategy_set) c.config.strategy = opt::VecStrategy::kVdup;
  } else if (epi.scale || epi.bias || epi.relu) {
    std::fprintf(stderr, "--epi requires --small\n");
    usage(1);
  }

  if (!check_path.empty()) {
    if (section.empty()) {
      std::fprintf(stderr, "--check-artifact requires --section\n");
      usage(1);
    }
    return check_artifact(check_path, section);
  }

  // The sweep is the gate: it runs the translation validator by default so
  // both sections land in one generation pass. Single-case mode keeps it
  // opt-in (--semantics) since its reports are much longer.
  if (sweep && !semantics_set) with_semantics = true;

  try {
    if (sweep)
      return run_sweep(with_bounds, with_semantics, search_sample, search_seed,
                       artifact_path);
    return analyze_case(c, with_bounds, with_semantics, as_text,
                        /*print=*/true) > 0
               ? 1
               : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "mirlint: %s\n", e.what());
    return 1;
  }
}
