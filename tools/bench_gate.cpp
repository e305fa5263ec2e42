// bench_gate: the perf-regression gate over the shared benchmark suites.
//
// Runs a named suite (src/perf/suites.hpp) through BenchRunner, writes the
// BENCH_<suite>.json trajectory, and — when a baseline is available — diffs
// the fresh run against it with the noise-aware verdict from
// src/perf/report.hpp. Stored reports cannot be re-run, so this diff is
// how they are compared; a question two closures in one process can answer
// goes to perf::compare (src/perf/compare.hpp). Exit status is the
// contract:
//
//   0  no regression (or no comparable baseline: nothing to gate against)
//   1  at least one row regressed beyond threshold + pooled CI noise
//   2  usage / I/O error
//
//   bench_gate --suite micro --baseline BENCH_micro.json
//   bench_gate --suite micro --write-baseline bench/baselines
//   bench_gate --suite micro --quick --baseline-dir bench/baselines
//   bench_gate --selftest
//
// Baselines are per-machine: a directory baseline is looked up as
// BENCH_<suite>.<machine-signature>.json, and a file baseline whose machine
// signature differs from the host is skipped with a note (exit 0) rather
// than producing a meaningless verdict — use --allow-cross-machine to
// compare anyway. --selftest demonstrates the gate end to end: it records
// a quick baseline with the normal kernel configuration, re-runs the suite
// with the deliberately pessimized configuration (scalar GEMM, no level-1
// unrolling — a >2x slowdown), and succeeds only if the gate fires.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perf/report.hpp"
#include "perf/suites.hpp"
#include "support/arch.hpp"
#include "support/error.hpp"

namespace {

using namespace augem;
using namespace augem::perf;

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_gate [--suite NAME] [--quick] [--pessimize]\n"
      "                  [--threshold FRAC] [--out DIR]\n"
      "                  [--baseline FILE | --baseline-dir DIR]\n"
      "                  [--allow-cross-machine]\n"
      "                  [--write-baseline DIR]\n"
      "       bench_gate --selftest\n"
      "\n"
      "suites:");
  for (const std::string& s : suite_names()) std::fprintf(stderr, " %s", s.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Per-machine baseline path inside a baseline directory.
std::string baseline_path_in(const std::string& dir, const std::string& suite) {
  return dir + "/BENCH_" + suite + "." + cpu_signature(host_arch()) + ".json";
}

struct GateArgs {
  std::string suite = "micro";
  std::string baseline_file;
  std::string baseline_dir;
  std::string write_baseline_dir;
  std::string out_dir;
  double threshold = 0.05;
  bool quick = false;
  bool pessimize = false;
  bool allow_cross_machine = false;
  bool selftest = false;
};

/// Runs the suite and writes its trajectory file; `label` only affects the
/// progress line.
BenchReport run_and_write(const GateArgs& args, bool pessimize,
                          const std::string& out_dir, const char* label) {
  SuiteOptions options;
  options.quick = args.quick;
  options.pessimize = pessimize;
  std::fprintf(stderr, "bench_gate: running suite '%s'%s%s...\n",
               args.suite.c_str(), args.quick ? " (quick)" : "", label);
  BenchReport report = run_suite(args.suite, options);
  const std::string path = write_report(report, out_dir);
  std::fprintf(stderr, "bench_gate: wrote %s (%zu rows)\n", path.c_str(),
               report.rows.size());
  return report;
}

int gate(const BenchReport& baseline, const BenchReport& current,
         const GateArgs& args) {
  DiffOptions options;
  options.threshold = args.threshold;
  options.require_same_machine = !args.allow_cross_machine;
  const DiffResult diff = diff_reports(baseline, current, options);
  if (!diff.comparable()) {
    // A baseline from another machine (or schema) says nothing about this
    // run; skipping is the safe verdict for an automated gate.
    std::printf("bench_gate: baseline not comparable (%s); skipping gate\n",
                diff.machine_mismatch ? "different machine signature"
                                      : "different schema version");
    return 0;
  }
  std::fputs(diff.to_string().c_str(), stdout);
  if (diff.any_regression()) {
    std::printf("bench_gate: REGRESSION in suite '%s' (threshold %.0f%% + "
                "pooled CI)\n",
                args.suite.c_str(), 100.0 * args.threshold);
    return 1;
  }
  std::printf("bench_gate: no regression in suite '%s'\n", args.suite.c_str());
  return 0;
}

/// End-to-end demonstration that the gate fires: normal-config baseline vs
/// pessimized rerun must yield a regressed verdict through the exact same
/// diff path the real gate uses. Exit 0 iff the gate fired.
int selftest(GateArgs args) {
  args.quick = true;
  const std::string dir = bench_output_dir();
  const BenchReport baseline = run_and_write(args, /*pessimize=*/false, dir,
                                             " [selftest: baseline config]");
  const BenchReport slow = run_and_write(args, /*pessimize=*/true, dir,
                                         " [selftest: pessimized config]");
  const int rc = gate(baseline, slow, args);
  if (rc != 1) {
    std::fprintf(stderr,
                 "bench_gate: SELFTEST FAILED — pessimized run did not "
                 "trigger the gate (gate rc=%d)\n",
                 rc);
    return 1;
  }
  std::printf("bench_gate: selftest ok — pessimized configuration was "
              "flagged as a regression\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  GateArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--suite") {
      const char* v = value();
      if (!v) return usage();
      args.suite = v;
    } else if (a == "--baseline") {
      const char* v = value();
      if (!v) return usage();
      args.baseline_file = v;
    } else if (a == "--baseline-dir") {
      const char* v = value();
      if (!v) return usage();
      args.baseline_dir = v;
    } else if (a == "--write-baseline") {
      const char* v = value();
      if (!v) return usage();
      args.write_baseline_dir = v;
    } else if (a == "--out") {
      const char* v = value();
      if (!v) return usage();
      args.out_dir = v;
    } else if (a == "--threshold") {
      const char* v = value();
      if (!v) return usage();
      args.threshold = std::atof(v);
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--pessimize") {
      args.pessimize = true;
    } else if (a == "--allow-cross-machine") {
      args.allow_cross_machine = true;
    } else if (a == "--selftest") {
      args.selftest = true;
    } else {
      std::fprintf(stderr, "bench_gate: unknown option '%s'\n", a.c_str());
      return usage();
    }
  }
  if (!is_suite_name(args.suite)) {
    std::fprintf(stderr, "bench_gate: unknown suite '%s'\n",
                 args.suite.c_str());
    return usage();
  }
  if (!args.baseline_file.empty() && !args.baseline_dir.empty()) {
    std::fprintf(stderr,
                 "bench_gate: --baseline and --baseline-dir are exclusive\n");
    return usage();
  }

  try {
    if (args.selftest) return selftest(args);

    // Writing a baseline is a distinct mode: run the suite and store it
    // under the per-machine name, no gating.
    if (!args.write_baseline_dir.empty()) {
      BenchReport report = run_and_write(
          args, args.pessimize,
          args.out_dir.empty() ? bench_output_dir() : args.out_dir, "");
      const std::string path =
          baseline_path_in(args.write_baseline_dir, args.suite);
      std::error_code ec;
      std::filesystem::create_directories(args.write_baseline_dir, ec);
      write_report(report, args.write_baseline_dir);
      // write_report names the file BENCH_<suite>.json; rename to the
      // per-machine baseline name so one directory serves many hosts.
      const std::string generic =
          args.write_baseline_dir + "/" + report.file_name();
      if (generic != path && std::rename(generic.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "bench_gate: failed renaming %s -> %s\n",
                     generic.c_str(), path.c_str());
        return 2;
      }
      std::printf("bench_gate: baseline written to %s\n", path.c_str());
      return 0;
    }

    // Resolve the baseline, if any.
    std::string baseline_path = args.baseline_file;
    if (!args.baseline_dir.empty())
      baseline_path = baseline_path_in(args.baseline_dir, args.suite);
    std::optional<BenchReport> baseline;
    if (!baseline_path.empty()) {
      baseline = load_report(baseline_path);
      if (!baseline && !args.baseline_file.empty()) {
        // An explicitly named baseline that cannot be read is an error; a
        // missing per-machine file in a directory just means "no baseline
        // recorded for this host yet" and the gate is skipped.
        std::fprintf(stderr, "bench_gate: cannot load baseline %s\n",
                     baseline_path.c_str());
        return 2;
      }
      if (!baseline) {
        std::printf("bench_gate: no baseline for this machine (%s); "
                    "skipping gate\n",
                    baseline_path.c_str());
      }
    }

    const BenchReport current = run_and_write(
        args, args.pessimize,
        args.out_dir.empty() ? bench_output_dir() : args.out_dir, "");
    if (!baseline) {
      std::printf("bench_gate: no baseline to compare against; suite ran "
                  "clean\n");
      return 0;
    }
    return gate(*baseline, current, args);
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
}
