// mirlint — static analyzer for AUGEM-generated machine kernels.
//
// Generates a kernel exactly as augemc would and runs the full analysis
// pipeline (analysis/analyzer.hpp) on its machine IR through
// augem::generate_and_analyze: CFG construction, structural and encoding
// checks, flag liveness, path-sensitive definite assignment, dead-store and
// register-queue-reuse detection, and symbolic memory-bounds proofs against
// the kernel's calling contract.
//
//   mirlint [options]
//     --kernel gemm|gemv|axpy|dot|scal   kernel to analyze (default gemm)
//     --isa sse2|avx|fma3|fma4           target ISA (default fma3)
//     --layout rowpanel|colmajor         packed-B layout (GEMM; default
//                                        colmajor, the driver's)
//     --strategy vdup|shuf|scalar        vectorization strategy (default
//                                        vdup, the served one)
//     --mr N --nr N --ku N --unroll N    tile / unroll parameters (default:
//                                        the served ones, default_options)
//     --small MxNxK                      analyze the shape-specialized
//                                        batched small-GEMM kernel instead
//                                        of the blocked GEMM
//     --epi scale,bias,relu              fused epilogue for --small (any
//                                        comma-separated subset)
//     --prefetch N | --no-prefetch       software prefetching
//     --no-schedule                      disable instruction scheduling
//     --semantics                        also run translation validation
//                                        (single-case mode; the sweep always
//                                        runs it unless --no-semantics)
//     --no-semantics                     skip translation validation
//     --text                             human-readable findings (default JSON)
//     --sweep                            analyze the full op x layout x ISA x
//                                        strategy x tile grid on every pool
//                                        thread (AUGEM_NUM_THREADS); print
//                                        progress, then, in configuration
//                                        order, the failures, a per-pass
//                                        findings table and a summary
//     --artifact PATH                    (with --sweep) also write a JSON
//                                        artifact with per-section results
//     --search-sample N                  (with --sweep) additionally analyze
//                                        N cells spread evenly over the
//                                        tuner's search spaces — the same
//                                        spaces the climb walks — so
//                                        search-reachable configs outside
//                                        the fixed grid are bounds-proved
//     --check-artifact PATH              validate a sweep artifact instead of
//                                        analyzing; requires --section
//     --section bounds|semantics|search_sample
//                                        artifact section to gate on
//     --help
//
// Exit status: 0 when no error-severity findings, 1 otherwise (warnings
// alone — dead stores, queue-reuse hazards, long prefetches — exit 0).
// The sweep counts a configuration the generator refuses (augem::Refusal)
// as rejected; any other generation error fails that configuration.
// The artifact schema is documented in docs/static-analysis.md.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "augem/augem.hpp"
#include "frontend/kernels.hpp"
#include "opt/plan.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/threadpool.hpp"
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
  --layout rowpanel|colmajor          (default colmajor)
  --strategy vdup|shuf|scalar         (default vdup)
  --mr N --nr N --ku N --unroll N     (default: the served configuration)
  --small MxNxK   analyze the batched small-GEMM kernel for these extents
  --epi LIST      fused epilogue for --small: comma-separated scale,bias,relu
  --prefetch DIST | --no-prefetch
  --no-schedule   disable instruction scheduling
  --semantics     also run translation validation (default in --sweep)
  --no-semantics  skip translation validation
  --text          human-readable findings instead of JSON
  --sweep         analyze every op x layout x ISA x strategy x tile config
  --search-sample N  (with --sweep) also analyze N tuner-search cells
  --artifact P    (with --sweep) write a JSON artifact of the results
  --check-artifact P --section bounds|semantics|search_sample
                  gate on one section of a previously written artifact
exit: 0 = no errors (warnings allowed), 1 = error findings or bad usage
)");
  std::exit(code);
}

/// Generates and analyzes one configuration, prints its findings and
/// returns the number of error-severity findings.
int analyze_case(const KernelConfig& c, bool with_semantics, bool as_text) {
  const AnalyzedKernel a = generate_and_analyze(c, with_semantics);
  const opt::MInstList& insts = a.kernel.insts;
  std::fputs((as_text ? a.report.to_string(insts) : a.report.to_json(insts))
                 .c_str(),
             stdout);
  return static_cast<int>(a.report.errors());
}

/// Aggregated sweep results, split into the two gated sections: the
/// semantics section holds every `semantics-*` finding (the translation
/// validator), the bounds section everything else (bounds proofs plus the
/// structural/flags/assignment passes and generation errors other than a
/// refusal).
struct SweepStats {
  int analyzed = 0;
  int rejected = 0;
  std::map<Refusal::Stage, int> rejected_by_stage;
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
  auto section = [](int errors, const std::vector<std::string>& failed) {
    Json sec = Json::object();
    sec["errors"] = Json(errors);
    Json configs = Json::array();
    for (const std::string& f : failed) configs.push_back(Json(f));
    sec["failed_configs"] = std::move(configs);
    return sec;
  };
  Json sections = Json::object();
  sections["bounds"] = section(s.errors_bounds, s.failed_bounds);
  sections["semantics"] = section(s.errors_semantics, s.failed_semantics);
  sections["search_sample"] = section(s.errors_search, s.failed_search);
  Json by_kind = Json::object();
  for (const auto& [kind, n] : s.by_kind) by_kind[kind] = Json(n);
  Json artifact = Json::object();
  artifact["analyzed"] = Json(s.analyzed);
  artifact["rejected"] = Json(s.rejected);
  artifact["warnings"] = Json(s.warnings);
  artifact["sampled"] = Json(s.sampled);
  artifact["sections"] = std::move(sections);
  artifact["by_kind"] = std::move(by_kind);
  std::ofstream out(path);
  out << artifact.dump() << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "mirlint: cannot write artifact %s\n", path.c_str());
    std::exit(1);
  }
}

/// Gate on one section of a previously written sweep artifact.
int check_artifact(const std::string& path, const std::string& section) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<Json> doc = parse_json(text.str());
  if (!doc) {
    std::fprintf(stderr, "mirlint: cannot read artifact %s\n", path.c_str());
    return 1;
  }
  const int analyzed = static_cast<int>(doc->number("analyzed").value_or(0));
  if (analyzed <= 0) {
    std::fprintf(stderr, "mirlint: artifact %s has no analyzed configs\n",
                 path.c_str());
    return 1;
  }
  const Json* sections = doc->get("sections");
  const Json* sec = sections != nullptr ? sections->get(section) : nullptr;
  const std::optional<double> errors =
      sec != nullptr ? sec->number("errors") : std::nullopt;
  if (!errors || *errors < 0) {
    std::fprintf(stderr, "mirlint: artifact %s has no '%s' section\n",
                 path.c_str(), section.c_str());
    return 1;
  }
  std::printf("mirlint %s gate: %d configs analyzed, %d error finding(s)\n",
              section.c_str(), analyzed, static_cast<int>(*errors));
  if (*errors == 0) return 0;
  // Surface the failing configs for the log.
  if (const Json* failed = sec->get("failed_configs"))
    for (const Json& f : failed->items())
      std::printf("  failing: %s\n", f.as_string().c_str());
  return 1;
}

/// One sweep configuration, tagged with the artifact section its error
/// findings land in: sampled search cells gate the tuner's reachable space
/// (search_sample), the fixed grid gates the generator itself (bounds and
/// semantics).
struct SweepCase {
  KernelConfig config;
  bool sampled = false;
};

/// What generating and analyzing one configuration found.
struct CaseResult {
  bool analyzed = false;
  std::optional<Refusal::Stage> refused;
  int warnings = 0;
  int err_bounds = 0;
  int err_sem = 0;
  std::vector<std::string> kinds;  ///< every error and warning finding kind
  std::string failure;             ///< the FAIL report printed for the case
};

CaseResult analyze_sweep_case(const KernelConfig& c, bool with_semantics) {
  CaseResult r;
  try {
    const AnalyzedKernel a = generate_and_analyze(c, with_semantics);
    r.analyzed = true;
    r.warnings =
        static_cast<int>(a.report.count(analysis::Severity::kWarning));
    std::ostringstream errors;
    for (const analysis::Finding& f : a.report.findings) {
      if (f.severity == analysis::Severity::kNote) continue;
      r.kinds.push_back(f.kind);
      if (f.severity != analysis::Severity::kError) continue;
      ++(is_semantics_kind(f.kind) ? r.err_sem : r.err_bounds);
      errors << "  [" << f.index << "] " << f.kind << ": " << f.message
             << "\n";
    }
    if (r.err_bounds + r.err_sem > 0)
      r.failure = "FAIL " + c.to_string() + "\n" + errors.str();
  } catch (const Refusal& e) {
    // The generator refuses an out-of-domain configuration.
    r.refused = e.stage();
  } catch (const Error& e) {
    // Any other generation error is a generator defect.
    ++r.err_bounds;
    r.kinds.push_back("generation-error");
    r.failure =
        "FAIL " + c.to_string() + "\n  generation: " + e.what() + "\n";
  }
  return r;
}

int run_sweep(bool with_semantics, int search_sample,
              const std::string& artifact_path) {
  std::vector<SweepCase> cases;
  const Isa isas[] = {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4};

  // Every strategy where it generates a kernel of its own: Shuf only for
  // GEMM over row-panel B. The planner rejects it over column-major B, and
  // on the Level-1/2 kernels it emits Vdup's instructions.
  for (Isa isa : isas) {
    const int w = isa_vector_doubles(isa);
    for (opt::VecStrategy strat :
         {opt::VecStrategy::kVdup, opt::VecStrategy::kShuf,
          opt::VecStrategy::kScalar}) {
      const bool shuf = strat == opt::VecStrategy::kShuf;
      // GEMM: both layouts, a grid of register tiles and inner unrolls.
      for (BLayout layout : {BLayout::kRowPanel, BLayout::kColMajor}) {
        if (shuf && layout == BLayout::kColMajor) continue;
        for (const auto& [mr, nr] : {std::pair{w, w},       {2 * w, w},
                                     std::pair{2 * w, 2 * w}, {4 * w, w},
                                     std::pair{w, 2 * w}}) {
          for (int ku : {1, 2, 4}) {
            for (bool pf : {false, true}) {
              KernelConfig c;
              c.layout = layout;
              c.config.isa = isa;
              c.config.strategy = strat;
              c.params.mr = mr;
              c.params.nr = nr;
              c.params.ku = ku;
              c.params.prefetch.enabled = pf;
              cases.push_back({c});
            }
          }
        }
      }
      if (shuf) continue;
      // Level-1/2 kernels: unroll grid.
      for (KernelKind op : {KernelKind::kGemv, KernelKind::kAxpy,
                            KernelKind::kDot, KernelKind::kScal}) {
        for (int unroll : {1, 2, w, 2 * w, 4 * w}) {
          for (bool pf : {false, true}) {
            KernelConfig c;
            c.kind = op;
            c.config.isa = isa;
            c.config.strategy = strat;
            c.params.unroll = unroll;
            c.params.prefetch.enabled = pf;
            cases.push_back({c});
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
          cases.push_back({default_small_gemm_options(spec, isa)});
        }
  }

  // --search-sample: N cells spread evenly over the tuner's own search
  // spaces (tuning/search.hpp) — every ISA's GEMM space and the Level-1/2
  // space of each Level-1/2 kind — pushed through the same analysis. The
  // climb can reach any of them; every one must bounds-prove even though
  // the fixed grid above never visits it.
  std::vector<KernelConfig> cells;
  std::size_t sampled = 0;
  if (search_sample > 0) {
    for (Isa isa : isas)
      for (KernelKind op : {KernelKind::kGemm, KernelKind::kGemv,
                            KernelKind::kAxpy, KernelKind::kDot,
                            KernelKind::kScal}) {
        const tuning::SearchSpace space = op == KernelKind::kGemm
                                              ? tuning::SearchSpace::gemm(isa)
                                              : tuning::SearchSpace::level1();
        for (const tuning::Point& p : space.all_points()) {
          // The default layout and strategy: the ones the tuner generates
          // every point with.
          KernelConfig c;
          c.kind = op;
          c.params = space.materialize(p);
          c.config.isa = isa;
          cells.push_back(c);
        }
      }
    sampled = std::min(static_cast<std::size_t>(search_sample), cells.size());
    for (std::size_t i = 0; i < sampled; ++i)
      cases.push_back({cells[i * cells.size() / sampled], true});
  }

  // Analyses cost from ~7 ms (Level-1/2) to ~250 ms (GEMM with translation
  // validation), so each pool thread takes the next case as it finishes
  // one instead of a fixed share.
  std::vector<CaseResult> results(cases.size());
  std::atomic<std::size_t> next{0};
  std::atomic<int> done{0};
  constexpr int kProgressEvery = 128;
  ThreadPool::global().run([&](int) {
    for (std::size_t i = next++; i < cases.size(); i = next++) {
      results[i] = analyze_sweep_case(cases[i].config, with_semantics);
      if (const int d = ++done; d % kProgressEvery == 0)
        std::fprintf(stderr, "mirlint sweep: ... %d of %zu configs visited\n",
                     d, cases.size());
    }
  });

  // Fold in configuration order, so stdout and the artifact do not depend
  // on the thread count.
  SweepStats stats;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SweepCase& c = cases[i];
    const CaseResult& r = results[i];
    std::fputs(r.failure.c_str(), stdout);
    if (r.refused) {
      ++stats.rejected;
      ++stats.rejected_by_stage[*r.refused];
      continue;
    }
    if (r.analyzed) {
      ++stats.analyzed;
      if (c.sampled) ++stats.sampled;
    }
    stats.warnings += r.warnings;
    for (const std::string& kind : r.kinds) ++stats.by_kind[kind];
    if (c.sampled) {
      if (r.err_bounds + r.err_sem > 0) {
        stats.errors_search += r.err_bounds + r.err_sem;
        stats.failed_search.push_back(c.config.to_string());
      }
      continue;
    }
    if (r.err_bounds > 0) {
      stats.errors_bounds += r.err_bounds;
      stats.failed_bounds.push_back(c.config.to_string());
    }
    if (r.err_sem > 0) {
      stats.errors_semantics += r.err_sem;
      stats.failed_semantics.push_back(c.config.to_string());
    }
  }
  if (search_sample > 0)
    std::printf("mirlint search-sample: %zu of %zu search cells, %d "
                "analyzed, %d error finding(s)\n",
                sampled, cells.size(), stats.sampled, stats.errors_search);

  // Count distinct failing configs (a config can fail both sections).
  std::set<std::string> failed(stats.failed_bounds.begin(),
                               stats.failed_bounds.end());
  failed.insert(stats.failed_semantics.begin(), stats.failed_semantics.end());
  failed.insert(stats.failed_search.begin(), stats.failed_search.end());
  const int errors =
      stats.errors_bounds + stats.errors_semantics + stats.errors_search;
  std::map<Refusal::Stage, int>& refused = stats.rejected_by_stage;
  std::printf(
      "mirlint sweep: %d configs analyzed, %d rejected (out of domain: %d "
      "planner, %d vector registers, %d integer scratch), %d warning(s), "
      "%d error finding(s) in %d config(s)\n",
      stats.analyzed, stats.rejected, refused[Refusal::Stage::kPlanner],
      refused[Refusal::Stage::kVectorRegisters],
      refused[Refusal::Stage::kIntegerScratch], stats.warnings, errors,
      static_cast<int>(failed.size()));

  // Per-pass breakdown: every error/warning kind seen, grouped by section.
  std::printf("  section     errors  failing configs\n");
  std::printf("  bounds      %6d  %d\n", stats.errors_bounds,
              static_cast<int>(stats.failed_bounds.size()));
  if (with_semantics)
    std::printf("  semantics   %6d  %d\n", stats.errors_semantics,
                static_cast<int>(stats.failed_semantics.size()));
  if (search_sample > 0)
    std::printf("  search      %6d  %d\n", stats.errors_search,
                static_cast<int>(stats.failed_search.size()));
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
  bool with_semantics = false;  // single-case default; --sweep defaults on
  bool semantics_set = false;
  bool as_text = false;
  bool sweep = false;
  int search_sample = 0;
  std::string artifact_path;
  std::string check_path;
  std::string section;
  bool tile_set = false;  // explicit --mr/--nr override the small default
  frontend::EpilogueSpec epi;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(1);
    }
    return argv[++i];
  };

  // First pass for --kernel/--isa: the case starts from the configuration
  // augemc and the runtime serve for them, and the options below override it.
  KernelKind kind = KernelKind::kGemm;
  Isa isa = Isa::kFma3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--kernel") {
      const auto k = frontend::parse_kernel_kind(need_value(i));
      if (!k) usage(1);
      kind = *k;
    } else if (arg == "--isa") {
      const auto parsed = parse_isa(need_value(i));
      if (!parsed) usage(1);
      isa = *parsed;
    }
  }
  KernelConfig c = default_options(kind, isa);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel" || arg == "--isa") {
      ++i;  // handled above
    } else if (arg == "--layout") {
      const std::string v = need_value(i);
      if (v == "rowpanel") c.layout = BLayout::kRowPanel;
      else if (v == "colmajor") c.layout = BLayout::kColMajor;
      else usage(1);
    } else if (arg == "--strategy") {
      const auto s = opt::parse_vec_strategy(need_value(i));
      if (!s) usage(1);
      c.config.strategy = *s;
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
    c.kind = KernelKind::kGemm;
    // Mirror the dispatcher's default unless explicitly overridden: the
    // register tile follows from the extents (and the scale epilogue's
    // register pressure).
    if (!tile_set) c.params = small_gemm_params(*c.small, c.config.isa);
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
    if (sweep) return run_sweep(with_semantics, search_sample, artifact_path);
    return analyze_case(c, with_semantics, as_text) > 0 ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "mirlint: %s\n", e.what());
    return 1;
  }
}
