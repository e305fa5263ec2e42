// augem_perfbench — one workload of the repository benchmark in one
// process (perfbench/README.md). Normally driven by perfbench/run.py:
//
//   augem_perfbench --workload gemm_large --seed 1 --seconds 10
//                   --trace 0 --threads 4 --cache-dir <empty dir>
//
// Closed loop, one caller: each call starts when the previous one returned.
// Inputs are generated from the seed before any timing starts. The last
// stdout line is one JSON object: provenance, attempted/failed counts, the
// metrics of the requested mode (end-to-end with --trace 0, per-layer with
// --trace 1) and a report of the extra figures the table prints.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "blas/level3.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/arch.hpp"
#include "support/error.hpp"
#include "support/threadpool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using augem::runtime::KernelRuntime;
using augem::runtime::RuntimeConfig;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::string cache_dir;
  std::string trace_out;
  std::string source_rev = "unknown";
  bool tiny = false;
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "augem_perfbench: " << why << "\n"
            << "usage: augem_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --threads T --cache-dir DIR [--trace-out FILE] "
               "[--source-rev REV] [--tiny] [--corrupt]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--threads") a.threads = std::stoi(value());
    else if (flag == "--cache-dir") a.cache_dir = value();
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--source-rev") a.source_rev = value();
    else if (flag == "--tiny") a.tiny = true;
    else if (flag == "--corrupt") a.corrupt = true;
    else usage("unknown flag " + flag);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.cache_dir.empty()) usage("--cache-dir is required");
  if (a.threads < 1) usage("--threads must be >= 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Counts attempted and failed operations; an operation fails when its
/// output is outside the oracle's CompareSpec, when it throws, or when a
/// traced replica's output differs from the public call's by one bit.
struct Outcome {
  std::int64_t attempted = 0, failed = 0, replica_mismatches = 0;
  bool corrupt_pending = false;
  void fail(const std::string& what) {
    ++failed;
    if (failed <= 5) std::cerr << "FAILED: " << what << "\n";
  }
};

/// Output buffers of a workload: the working output, the replica output,
/// and the verified first output of each full-check op (repeats compare
/// bitwise against it).
struct Buffers {
  std::vector<double> out, replica;
  std::vector<std::vector<double>> first;
  explicit Buffers(const Workload& wl) : first(wl.ops.size()) {
    std::size_t n = 1;
    for (const Op& op : wl.ops) n = std::max(n, op.out_doubles());
    n = std::bit_ceil(n);  // seed-independent footprint, like the pools
    out.resize(n);
    replica.resize(n);
  }
};

/// Verifies one call's output (oracle on the first execution of a
/// full-check op, bitwise against it afterwards; a fresh seeded sample for
/// sampled ops).
bool verify(const Workload& wl, std::size_t i, Buffers& buf, Outcome& oc,
            std::uint64_t sample_seed) {
  const Op& op = wl.ops[i];
  double* out = buf.out.data();
  if (oc.corrupt_pending) {  // self-test: one deliberately wrong element
    out[0] += 1.0;
    oc.corrupt_pending = false;
  }
  const std::size_t n = op.out_doubles();
  if (op.full_check && !buf.first[i].empty())
    return std::memcmp(out, buf.first[i].data(), n * sizeof(double)) == 0;
  const bool ok = check_output(op, wl.pools, out, sample_seed);
  if (ok && op.full_check) buf.first[i].assign(out, out + n);
  return ok;
}

/// One timed public call plus its check. Returns the call's wall time, or
/// a negative value when it failed.
double timed_call(augem::blas::Blas& lib, const Workload& wl, std::size_t i,
                  Buffers& buf, Outcome& oc, std::uint64_t sample_seed) {
  const Op& op = wl.ops[i];
  load_output(op, wl.pools, buf.out.data());
  ++oc.attempted;
  double dt = -1.0;
  try {
    const double t0 = now_s();
    call_public(lib, op, wl.pools, buf.out.data());
    dt = now_s() - t0;
  } catch (const std::exception& e) {
    oc.fail(op.describe() + " threw: " + e.what());
    return -1.0;
  }
  if (!verify(wl, i, buf, oc, sample_seed)) {
    oc.fail(op.describe() + ": output outside the oracle's CompareSpec");
    return -1.0;
  }
  return dt;
}

RuntimeConfig compute_config(const std::string& dir) {
  // The per-ISA default configuration: the tuner's winner depends on timing
  // noise, which would make throughput unsteady; the tuner is measured in
  // cold_start instead.
  RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = false;
  cfg.tune_on_miss = false;
  cfg.use_daemon = false;
  return cfg;
}

RuntimeConfig cold_config(const std::string& dir) {
  RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = true;
  cfg.tune_on_miss = true;
  cfg.use_daemon = false;
  return cfg;
}

std::string fresh_dir(const std::string& root, const std::string& name) {
  const fs::path p = fs::path(root) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

/// Accumulated timing of the calls of a phase.
struct CallStats {
  std::vector<double> latency_s;
  double flops = 0.0, seconds = 0.0;
  void add(const Op& op, double dt) {
    latency_s.push_back(dt);
    flops += op.flops();
    seconds += dt;
  }
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

/// Throughput per window of the timed phase: whole cycles of the op list
/// (so every window holds the same call mix) lasting at least a second.
/// Interference on a shared host comes in bursts; the median over windows
/// moves only when a burst covers most of the run.
struct Windows {
  std::vector<double> gflops;
  CallStats current;
  double start = now_s();
  void add(const Op& op, double dt) { current.add(op, dt); }
  void close_if_due() {
    if (now_s() - start < 1.0 || current.latency_s.empty()) return;
    gflops.push_back(current.gflops());
    current = CallStats{};
    start = now_s();
  }
};

/// Layer accumulators of the traced calls.
struct LayerStats {
  double kernel_s = 0, block_s = 0, thread_wall_s = 0;  // driver calls
  CallStats replica;
  struct Routine {
    CallStats calls;
    double block_s = 0, thread_wall_s = 0;
  };
  std::map<std::string, Routine> level3;
  augem::blas::Level3Stats panels;
  std::map<std::size_t, double> op_thread_wall;  ///< threads × wall, by op
};

/// Runs op i through the public API and through its traced replica on the
/// same runtime, asserting bit-identical outputs.
void traced_pair(KernelRuntime& rt, augem::blas::Blas& lib, const Workload& wl,
                 std::size_t i, Buffers& buf, Outcome& oc, CallStats& untraced,
                 LayerStats& ls, std::uint64_t sample_seed) {
  const Op& op = wl.ops[i];
  const double dt = timed_call(lib, wl, i, buf, oc, sample_seed);
  if (dt < 0) return;
  untraced.add(op, dt);
  load_output(op, wl.pools, buf.replica.data());
  ReplicaTiming rep;
  try {
    rep = call_replica(rt, op, wl.pools, buf.replica.data(), &ls.panels);
  } catch (const std::exception& e) {
    oc.fail(op.describe() + " replica threw: " + e.what());
    return;
  }
  if (std::memcmp(buf.out.data(), buf.replica.data(),
                  op.out_doubles() * sizeof(double)) != 0) {
    ++oc.replica_mismatches;
    oc.fail(op.describe() + ": traced replica differs from the public call");
    return;
  }
  ls.replica.add(op, rep.seconds);
  const double raw = rep.layer_s[kGemmFn];
  const double block = rep.layer_s[kBlockKernel];
  if (op.kind == OpKind::kGemm || is_level3(op.kind)) {
    ls.kernel_s += raw;
    ls.block_s += block;
    ls.thread_wall_s += rep.threads * rep.seconds;
    ls.op_thread_wall[i] = rep.threads * rep.seconds;
  }
  if (is_level3(op.kind)) {
    auto& r = ls.level3[op_kind_name(op.kind)];
    r.calls.add(op, dt);
    r.block_s += block;
    r.thread_wall_s += rep.threads * rep.seconds;
  }
}

void add_level3_metrics(const LayerStats& ls, Metrics& m) {
  for (const auto& [name, r] : ls.level3) {
    m["level3." + name + ".gflops"] = {r.calls.gflops(), "GFLOP/s"};
    m["level3." + name + ".kernel_share"] = {r.block_s / r.thread_wall_s,
                                             "ratio"};
  }
  m["level3.panel_reuse_ratio"] = {
      static_cast<double>(ls.panels.panel_reuses) /
          std::max<double>(static_cast<double>(ls.panels.panels_packed), 1.0),
      "ratio"};
}

/// One traced call per Level-3 routine at n≈256.
void add_level3_probe(KernelRuntime& rt, std::uint64_t seed, Outcome& oc,
                      Metrics& m) {
  const Workload probe = make_level3_probe(seed);
  auto lib = augem::runtime::make_runtime_blas(rt);
  Buffers buf(probe);
  CallStats ignored;
  LayerStats ls;
  for (const Op& op : probe.ops) op.resolve(rt);  // time calls, not builds
  for (std::size_t i = 0; i < probe.ops.size(); ++i)
    traced_pair(rt, *lib, probe, i, buf, oc, ignored, ls, seed + i);
  add_level3_metrics(ls, m);
}

/// Kernel and padding shares from the spans of the traced driver calls;
/// packing from the driver's pack sequence replayed on the first three of
/// them (Level-3 calls as their bulk GEMM) against a serial call; the rest
/// of the threads' time is waiting (beta scaling, barriers, pool wakes).
void add_driver_shares(KernelRuntime& rt, const Workload& wl,
                       const LayerStats& ls, Metrics& m) {
  PackTiming pack;
  double pack_thread_wall = 0.0;
  int packed = 0;
  for (std::size_t i = 0; i < wl.ops.size() && packed < 3; ++i) {
    const Op& op = wl.ops[i];
    const auto wall = ls.op_thread_wall.find(i);
    if (wall == ls.op_thread_wall.end()) continue;  // not a traced driver call
    Op g = op;
    if (is_level3(op.kind)) {
      g.kind = OpKind::kGemm;
      op.gemm_shape(g.m, g.n, g.k);
      g.ta = g.tb = Trans::kNo;
    }
    const PackTiming t = measure_packing(rt, g, wl.pools);
    pack.pack_s += t.pack_s;
    pack.bytes += t.bytes;
    pack.serial_call_s += t.serial_call_s;
    pack_thread_wall += wall->second;
    ++packed;
  }
  const double kernel_share = ls.kernel_s / ls.thread_wall_s;
  const double pad_share = (ls.block_s - ls.kernel_s) / ls.thread_wall_s;
  m["blas.kernel_share"] = {kernel_share, "ratio"};
  m["blas.pad_share"] = {pad_share, "ratio"};
  m["blas.pack_share"] = {pack.pack_s / pack.serial_call_s, "ratio"};
  m["blas.pack_gbps"] = {pack.bytes / pack.pack_s * 1e-9, "GB/s"};
  // Packing work is the same serial or threaded, so its threaded share is
  // the pack time over the threads' wall time of the same calls.
  m["blas.wait_share"] = {
      1.0 - kernel_share - pad_share - pack.pack_s / pack_thread_wall, "ratio"};
}

struct Run {
  Args args;
  Metrics metrics;  ///< the mode's contract metrics
  Metrics report;   ///< extra figures (error rate, p99, sample counts)
  Outcome oc;
  double peak_gflops = 0.0;
};

void add_latency_report(const CallStats& cs, Metrics& report) {
  const double n = static_cast<double>(cs.latency_s.size());
  report["latency_samples"] = {n, "count"};
  // The p99 is reported only where at least ten samples lie beyond it.
  if (n * 0.01 >= 10.0)
    report["latency_p99_us"] = {percentile(cs.latency_s, 99.0) * 1e6, "us"};
}

/// A runtime on an empty cache directory, timed until the workload has a
/// checked result from every kernel it uses (its first call of each key);
/// the sample lands in `setup_s`.
std::unique_ptr<KernelRuntime> setup_once(Run& run, const Workload& wl,
                                          const std::vector<std::size_t>& firsts,
                                          Buffers& buf, int n,
                                          std::vector<double>& setup_s) {
  const std::string dir = fresh_dir(run.args.cache_dir, "setup" + std::to_string(n));
  double checks = 0.0;
  bool ok = true;
  const double t0 = now_s();
  auto rt = std::make_unique<KernelRuntime>(compute_config(dir));
  auto lib = augem::runtime::make_runtime_blas(*rt);
  for (std::size_t i : firsts) {
    const double c0 = now_s();
    load_output(wl.ops[i], wl.pools, buf.out.data());
    checks += now_s() - c0;
    ++run.oc.attempted;
    try {
      call_public(*lib, wl.ops[i], wl.pools, buf.out.data());
    } catch (const std::exception& e) {
      run.oc.fail("setup call " + wl.ops[i].describe() + " threw: " + e.what());
      ok = false;
      continue;
    }
    const double c1 = now_s();
    if (!check_output(wl.ops[i], wl.pools, buf.out.data(), run.args.seed + i)) {
      run.oc.fail("setup call " + wl.ops[i].describe());
      ok = false;
    }
    checks += now_s() - c1;
  }
  if (ok) setup_s.push_back(now_s() - t0 - checks);
  return rt;
}

/// A new runtime (same configuration) resolving every key the workload
/// uses: what a restarted process pays before its first call.
double restart_once(const Run& run, const Workload& wl,
                    const std::vector<std::size_t>& firsts) {
  const double t0 = now_s();
  KernelRuntime again(compute_config(fresh_dir(run.args.cache_dir, "restart")));
  for (std::size_t i : firsts) wl.ops[i].resolve(again);
  return now_s() - t0;
}

/// End-to-end and per-layer measurement of the three compute workloads.
void run_compute(Run& run, const Workload& wl) {
  const Args& a = run.args;
  Buffers buf(wl);
  const auto firsts = first_of_each_key(wl);
  std::vector<double> setup_s, restart_s;
  // The timed phase serves from the first set-up's runtime. Further set-up
  // and restart samples are taken at even intervals across the run, so a
  // slow phase of the shared host moves some samples, not all of them.
  const int samples = a.trace ? 1 : 5;
  std::unique_ptr<KernelRuntime> rt = setup_once(run, wl, firsts, buf, 0, setup_s);
  auto lib = augem::runtime::make_runtime_blas(*rt);
  restart_s.push_back(restart_once(run, wl, firsts));

  run.oc.corrupt_pending = a.corrupt;
  CallStats untraced;
  Windows windows;
  LayerStats ls;
  const auto stats0 = rt->code_stats();
  const double start = now_s();
  std::uint64_t sample = a.seed * 1000003;
  int taken = 1;
  bool done = false;
  while (!done) {
    for (std::size_t i = 0; i < wl.ops.size() && !done; ++i) {
      if (a.trace) {
        traced_pair(*rt, *lib, wl, i, buf, run.oc, untraced, ls, ++sample);
      } else {
        const double dt = timed_call(*lib, wl, i, buf, run.oc, ++sample);
        if (dt >= 0) {
          untraced.add(wl.ops[i], dt);
          windows.add(wl.ops[i], dt);
        }
      }
      if (i + 1 == wl.ops.size()) windows.close_if_due();
      const double elapsed = now_s() - start;
      if (taken < samples && elapsed >= a.seconds * taken / samples) {
        setup_once(run, wl, firsts, buf, taken, setup_s);
        restart_s.push_back(restart_once(run, wl, firsts));
        ++taken;
      }
      done = elapsed >= a.seconds;
    }
  }
  const auto stats1 = rt->code_stats();

  if (!a.trace) {
    // Runs shorter than three windows (the self-test) fall back to the
    // whole phase.
    const bool windowed = windows.gflops.size() >= 3;
    run.metrics["gflops"] = {
        windowed ? median(windows.gflops) : untraced.gflops(), "GFLOP/s"};
    run.metrics["latency_p50_us"] = {median(untraced.latency_s) * 1e6, "us"};
    run.metrics["setup_s"] = {median(setup_s), "s"};
    run.metrics["restart_s"] = {median(restart_s), "s"};
    run.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    add_latency_report(untraced, run.report);
    return;
  }

  Metrics& m = run.metrics;
  m["trace.overhead"] = {untraced.gflops() / ls.replica.gflops(), "ratio"};
  const double hits = static_cast<double>(stats1.hits - stats0.hits);
  const double misses = static_cast<double>(stats1.misses - stats0.misses);
  m["runtime.cache_hit_ratio"] = {hits / std::max(hits + misses, 1.0), "ratio"};
  m["runtime.builds"] = {static_cast<double>(rt->counters().builds), "count"};

  // Level-3 per-routine figures: this workload's calls, or a probe of one
  // call per routine at n≈256 where the workload issues none.
  if (ls.level3.empty()) {
    add_level3_probe(*rt, a.seed, run.oc, m);
  } else {
    add_level3_metrics(ls, m);
  }
  add_driver_shares(*rt, wl, ls, m);

  ProbeContext pc{*rt, wl, fresh_dir(a.cache_dir, "probe"), run.peak_gflops, ""};
  run_probes(pc, m);
  add_latency_report(untraced, run.report);
}

/// cold_start: a tuned cold resolve of every key in an empty directory,
/// then a restart on the populated directory (db replay, no tuner).
void run_cold(Run& run, const Workload& wl) {
  const Args& a = run.args;
  std::vector<double> cold_s, restart_s, resolve_s, cycle_gflops, cycle_p50_s;
  Buffers buf(wl);
  std::string last_dir;
  std::unique_ptr<KernelRuntime> last_rt;
  std::uint64_t sample = a.seed * 1000003;
  CallStats traced_cycle, untraced_cycle;
  LayerStats ls;
  run.oc.corrupt_pending = a.corrupt;
  double builds = 0, hit_ratio = 0;
  const double start = now_s();
  int cycle = 0;
  // A traced run measures one untraced and one traced cycle.
  while (a.trace ? cycle < 2 : (cycle == 0 || now_s() - start < a.seconds)) {
    const bool traced = a.trace && cycle == 1;
    // Each cycle tunes afresh and may pick other variants, whose rounding
    // differs: every cycle is checked against the oracle anew.
    for (auto& f : buf.first) f.clear();
    const std::string dir = fresh_dir(a.cache_dir, "cold" + std::to_string(cycle));
    double check_s = 0.0, flops = 0.0;
    const std::size_t resolves0 = resolve_s.size();
    const double t0 = now_s();
    auto rt = std::make_unique<KernelRuntime>(cold_config(dir));
    auto lib = augem::runtime::make_runtime_blas(*rt);
    for (std::size_t i = 0; i < wl.ops.size(); ++i) {
      const Op& op = wl.ops[i];
      const double r0 = now_s();
      try {
        if (traced) {
          const std::uint64_t id = Tracer::get().begin_call("cold.resolve");
          {
            ScopedSpan span(kResolve);
            op.resolve(*rt);
          }
          Tracer::get().end_call(id);
        } else {
          op.resolve(*rt);
        }
      } catch (const std::exception& e) {
        ++run.oc.attempted;
        run.oc.fail(op.describe() + " cold resolve threw: " + e.what());
        continue;
      }
      resolve_s.push_back(now_s() - r0);
      const double c0 = now_s();
      if (traced) {
        CallStats ignored;
        traced_pair(*rt, *lib, wl, i, buf, run.oc, ignored, ls, ++sample);
      } else {
        timed_call(*lib, wl, i, buf, run.oc, ++sample);
      }
      check_s += now_s() - c0;
      flops += op.flops();
    }
    const double cold = now_s() - t0 - check_s;
    const auto stats = rt->code_stats();
    builds = static_cast<double>(rt->counters().builds);
    hit_ratio = static_cast<double>(stats.hits) /
                std::max<double>(static_cast<double>(stats.hits + stats.misses), 1.0);
    (traced ? traced_cycle : untraced_cycle).flops += flops;
    (traced ? traced_cycle : untraced_cycle).seconds += cold;
    if (!traced) {
      cold_s.push_back(cold);
      cycle_gflops.push_back(flops / cold * 1e-9);
      cycle_p50_s.push_back(median(std::vector<double>(
          resolve_s.begin() + static_cast<std::ptrdiff_t>(resolves0), resolve_s.end())));
    }
    lib.reset();
    rt.reset();

    // Restart on the populated directory: every key from the database.
    const double r0 = now_s();
    auto again = std::make_unique<KernelRuntime>(cold_config(dir));
    try {
      for (const Op& op : wl.ops) op.resolve(*again);
      restart_s.push_back(now_s() - r0);
    } catch (const std::exception& e) {
      ++run.oc.attempted;
      run.oc.fail(std::string("restart resolve threw: ") + e.what());
    }
    const auto c = again->counters();
    if (c.tuner_runs != 0) run.oc.fail("restart ran the tuner");
    auto lib2 = augem::runtime::make_runtime_blas(*again);
    for (std::size_t i = 0; i < wl.ops.size(); ++i)
      timed_call(*lib2, wl, i, buf, run.oc, ++sample);
    lib2.reset();
    last_rt = std::move(again);
    if (!last_dir.empty()) fs::remove_all(last_dir);
    last_dir = dir;
    ++cycle;
  }

  if (!a.trace) {
    // Medians over cycles, like the windows of the compute workloads.
    run.metrics["gflops"] = {median(cycle_gflops), "GFLOP/s"};
    run.metrics["latency_p50_us"] = {median(cycle_p50_s) * 1e6, "us"};
    run.metrics["setup_s"] = {median(cold_s), "s"};
    run.metrics["restart_s"] = {median(restart_s), "s"};
    run.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    CallStats cs;
    cs.latency_s = resolve_s;
    add_latency_report(cs, run.report);
    run.report["cycles"] = {static_cast<double>(cycle), "count"};
    return;
  }

  Metrics& m = run.metrics;
  m["trace.overhead"] = {untraced_cycle.gflops() / traced_cycle.gflops(), "ratio"};
  m["runtime.cache_hit_ratio"] = {hit_ratio, "ratio"};
  m["runtime.builds"] = {builds, "count"};
  // The Level-3 routines on the tuned, restarted runtime.
  add_level3_probe(*last_rt, a.seed, run.oc, m);
  add_driver_shares(*last_rt, wl, ls, m);

  ProbeContext pc{*last_rt, wl, fresh_dir(a.cache_dir, "probe"),
                  run.peak_gflops, last_dir};
  run_probes(pc, m);
}

// ---- output ---------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string metrics_json(const Metrics& ms) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

/// Every AUGEM_* variable in the environment (run.py clears the inherited
/// ones; whatever remains is recorded, never hidden).
std::string augem_env_json() {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AUGEM_", 0) != 0) continue;
    const auto eq = kv.find('=');
    os << (first ? "" : ", ") << "\"" << json_escape(kv.substr(0, eq))
       << "\": \"" << json_escape(kv.substr(eq + 1)) << "\"";
    first = false;
  }
  os << "}";
  return os.str();
}

void write_trace(const std::string& path) {
  std::ofstream f(path);
  for (const Span& s : Tracer::get().spans())
    f << "{\"name\": \"" << s.name << "\", \"start\": " << json_number(s.start)
      << ", \"end\": " << json_number(s.end) << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"call\": " << s.call
      << ", \"thread\": " << s.thread << "}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  run.args = parse_args(argc, argv);
  const Args& a = run.args;
  // Pin the pool size before anything sizes the global pool, and keep the
  // JIT's temporary files inside the private cache directory.
  setenv("AUGEM_NUM_THREADS", std::to_string(a.threads).c_str(), 1);
  const std::string tmp = fresh_dir(a.cache_dir, "tmp");
  setenv("TMPDIR", tmp.c_str(), 1);
  try {
    const int pool = augem::ThreadPool::global().num_threads();
    AUGEM_CHECK(pool == a.threads,
                "thread pool has " << pool << " threads, wanted " << a.threads);
    const Workload wl = make_workload(a.workload, a.seed, a.tiny);
    const augem::Isa isa = augem::runtime::select_dispatch_isa(augem::host_arch());
    run.peak_gflops = measure_peak_gflops(isa);
    if (wl.cold)
      run_cold(run, wl);
    else
      run_compute(run, wl);
    if (a.trace) {
      run.metrics["peak.gflops"] = {run.peak_gflops, "GFLOP/s"};
      if (!a.trace_out.empty()) write_trace(a.trace_out);
    }
    run.report["error_rate"] = {
        static_cast<double>(run.oc.failed) /
            static_cast<double>(std::max<std::int64_t>(run.oc.attempted, 1)),
        "ratio"};
    run.report["replica_mismatches"] = {
        static_cast<double>(run.oc.replica_mismatches), "count"};

    std::cout << "{\"workload\": \"" << a.workload << "\", \"provenance\": {"
              << "\"cpu_signature\": \""
              << json_escape(augem::cpu_signature(augem::host_arch()))
              << "\", \"isa\": \"" << augem::isa_name(isa)
              << "\", \"source_rev\": \"" << json_escape(a.source_rev)
              << "\", \"seed\": " << a.seed << ", \"threads\": " << a.threads
              << ", \"trace\": " << (a.trace ? "true" : "false")
              << ", \"tiny\": " << (a.tiny ? "true" : "false")
              << ", \"peak.gflops\": " << json_number(run.peak_gflops)
              << ", \"env\": " << augem_env_json() << "}"
              << ", \"attempted\": " << run.oc.attempted
              << ", \"failed\": " << run.oc.failed
              << ", \"metrics\": " << metrics_json(run.metrics)
              << ", \"report\": " << metrics_json(run.report) << "}"
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "augem_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
