#pragma once
// Shared benchmark scaffolding: the library roster of the paper's figures
// (AUGEM + the three comparator stand-ins), the measurement policy, and
// table formatting.
//
// All timing goes through perf::BenchRunner (src/perf): warmup detection,
// adaptive repetition to a target confidence interval, median/MAD
// statistics, and a frequency-drift probe — docs/benchmarking.md is the
// methodology reference. Each bench records its points into a
// SuiteReporter, which writes a schema-versioned BENCH_<name>.json
// trajectory file (machine signature, git revision, per-point GFLOPS with
// CI bounds) that tools/bench_gate can diff against a baseline.
//
// Absolute MFLOPS are machine-specific; EXPERIMENTS.md compares *shapes* —
// series ordering, rough ratios, crossovers — against the paper's figures.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blas/libraries.hpp"
#include "perf/bench_runner.hpp"
#include "perf/clock.hpp"
#include "perf/report.hpp"
#include "perf/roofline.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/arch.hpp"
#include "support/buffer.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace augem::bench {

struct NamedLib {
  std::string label;   ///< series label incl. which paper library it stands for
  std::unique_ptr<blas::Blas> lib;
};

/// The runtime behind the AUGEM series: memory-only and without the tuner,
/// so every shape class is served by the per-ISA default (untuned) kernel
/// configuration, generated once per process.
inline runtime::KernelRuntime& untuned_runtime() {
  static runtime::KernelRuntime rt([] {
    runtime::RuntimeConfig c;
    c.use_persistent = false;
    c.tune_on_miss = false;
    return c;
  }());
  return rt;
}

/// The four series of Figs. 18-21 / Table 6: AUGEM (the RuntimeBlas every
/// user calls) vs the stand-ins for MKL/ACML ("vendorsim"), ATLAS
/// ("atlsim") and GotoBLAS ("gotosim").
inline std::vector<NamedLib> figure_libraries() {
  std::vector<NamedLib> libs;
  libs.push_back({"AUGEM", runtime::make_runtime_blas(untuned_runtime())});
  libs.push_back({"vendorsim(MKL/ACML)", blas::make_vendorsim()});
  libs.push_back({"atlsim(ATLAS)", blas::make_atlsim()});
  libs.push_back({"gotosim(GotoBLAS)", blas::make_gotosim()});
  return libs;
}

/// Median-of-adaptive-reps MFLOPS for a workload closure (no trajectory
/// row; prefer SuiteReporter::measure_mflops so the point is recorded).
inline double measure_mflops(double flops, const std::function<void()>& fn) {
  return perf::BenchRunner().run(flops, fn).mflops();
}

/// Collects one bench's measurements and writes BENCH_<name>.json on
/// destruction (into AUGEM_BENCH_DIR or the current directory).
class SuiteReporter {
 public:
  explicit SuiteReporter(std::string bench_name)
      : report_(perf::make_host_report(std::move(bench_name))) {}

  SuiteReporter(const SuiteReporter&) = delete;
  SuiteReporter& operator=(const SuiteReporter&) = delete;

  /// Measures `fn` through BenchRunner, records a trajectory row under
  /// `series` with problem identity (m, n, k, threads), and returns the
  /// median MFLOPS for the human-readable tables.
  double measure_mflops(const std::string& series, long m, long n, long k,
                        double flops, const std::function<void()>& fn,
                        int threads = 1) {
    const perf::Measurement meas = runner_.run(flops, fn);
    report_.rows.push_back(
        perf::BenchRow::from_measurement(meas, series, m, n, k, threads));
    return meas.mflops();
  }

  /// Records an externally produced row (one-shot latencies, VM
  /// instruction counts — anything not re-runnable through the runner).
  void add_row(perf::BenchRow row) { report_.rows.push_back(std::move(row)); }

  const perf::BenchReport& report() const { return report_; }

  /// Writes the trajectory file; called automatically on destruction.
  void write() {
    if (written_ || report_.rows.empty()) return;
    written_ = true;
    try {
      const std::string path = perf::write_report(report_);
      std::printf("trajectory: %s (%zu rows, rev %s)\n", path.c_str(),
                  report_.rows.size(), report_.git_rev.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "trajectory write failed: %s\n", e.what());
    }
  }

  ~SuiteReporter() { write(); }

 private:
  perf::BenchRunner runner_;
  perf::BenchReport report_;
  bool written_ = false;
};

inline void print_platform(const char* title) {
  std::printf("==== %s ====\n", title);
  std::printf("%s", host_arch().report().c_str());
  std::printf("(shape comparison vs the paper; absolute MFLOPS are "
              "machine-specific)\n\n");
  // Spin the FPU briefly so the first measured series is not taken during
  // the CPU's clock ramp (observed: the first binary of a suite run can
  // otherwise measure at half frequency).
  perf::spin_fpu(0.4);
}

inline void print_series_header(const char* xlabel,
                                const std::vector<NamedLib>& libs) {
  std::printf("%12s", xlabel);
  for (const NamedLib& l : libs) std::printf("  %20s", l.label.c_str());
  std::printf("\n");
}

inline void print_series_row(long x, const std::vector<double>& mflops) {
  std::printf("%12ld", x);
  for (double v : mflops) std::printf("  %20.1f", v);
  std::printf("\n");
}

/// One machine-readable result row (one JSON object per line, so runs can
/// be concatenated and post-processed with line-oriented tools). Used by
/// the scaling benchmarks alongside the BENCH_*.json trajectory files.
inline void print_json_row(const char* bench, const char* lib, long m, long n,
                           long k, int threads, double gflops,
                           double speedup) {
  std::printf(
      "{\"bench\":\"%s\",\"lib\":\"%s\",\"m\":%ld,\"n\":%ld,\"k\":%ld,"
      "\"threads\":%d,\"gflops\":%.3f,\"speedup_vs_1t\":%.3f}\n",
      bench, lib, m, n, k, threads, gflops, speedup);
}

/// Prints the paper-style "AUGEM outperforms X by N%" summary from
/// per-library average MFLOPS (index 0 = AUGEM), with the roofline
/// annotation for the AUGEM series.
inline void print_average_summary(const std::vector<NamedLib>& libs,
                                  const std::vector<double>& avg) {
  std::printf("\naverage MFLOPS:");
  for (std::size_t i = 0; i < libs.size(); ++i)
    std::printf("  %s=%.1f", libs[i].label.c_str(), avg[i]);
  std::printf("\nAUGEM vs:");
  for (std::size_t i = 1; i < libs.size(); ++i)
    std::printf("  %s %+.1f%%", libs[i].label.c_str(),
                100.0 * (avg[0] / avg[i] - 1.0));
  const CpuArch& arch = host_arch();
  std::printf("\nroofline: AUGEM %s\n\n",
              perf::roofline_annotation(avg[0] / 1000.0, arch,
                                        arch.best_native_isa())
                  .c_str());
}

}  // namespace augem::bench
