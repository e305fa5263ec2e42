#pragma once
// Shared types of the repository benchmark (perfbench/README.md): the
// operations a workload issues through the public BLAS API, the operand
// pools they read, the oracle checks behind the failure count, and the
// in-memory span tracer of the traced run.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "frontend/kernels.hpp"
#include "runtime/dispatch.hpp"

namespace perfbench {

using augem::blas::index_t;
using augem::blas::Side;
using augem::blas::Trans;
using augem::blas::Uplo;

/// Monotonic seconds (steady_clock), the one clock of the benchmark.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// ---- operations ------------------------------------------------------------

enum class OpKind {
  kGemm, kBatch, kAxpy, kDot, kGemv, kSymm, kSyrk, kSyr2k, kTrmm, kTrsm
};
const char* op_kind_name(OpKind k);
bool is_level3(OpKind k);

/// Operand pools of one workload, filled from the seed before timing.
/// Operations read sub-matrices of these; outputs go to per-run buffers.
struct Pools {
  std::vector<double> a, b, c0;  ///< general operands and initial C
  std::vector<double> tri;       ///< diagonally dominant triangle (TRSM/TRMM)
  std::vector<double> bias;
};

/// One call through the public API, with every argument fixed.
struct Op {
  OpKind kind = OpKind::kGemm;
  index_t m = 0, n = 0, k = 0, batch = 1;
  Trans ta = Trans::kNo, tb = Trans::kNo, trans = Trans::kNo;
  Side side = Side::kLeft;
  Uplo uplo = Uplo::kLower;
  double alpha = 1.0, beta = 0.0;
  bool bias = false, relu = false;
  /// Full oracle comparison (small calls) or a seeded element sample.
  bool full_check = true;
  /// Offset of this call's triangular operand in Pools::tri (TRMM/TRSM).
  std::size_t tri_off = 0;

  /// Useful netlib flops of one call.
  double flops() const;
  /// Doubles of the output operand (C, B in place, y, or the dot scalar).
  std::size_t out_doubles() const;
  /// Extent of the triangular/symmetric operand (m on the left, n on the
  /// right; n for SYRK/SYR2K).
  index_t ka() const;
  /// The bulk-GEMM shape RuntimeBlas classifies for this call.
  void gemm_shape(index_t& gm, index_t& gn, index_t& gk) const;
  /// The small-GEMM spec a batched call resolves.
  augem::frontend::SmallGemmSpec small_spec() const;
  /// Resolves the kernel this call is served by, exactly as RuntimeBlas
  /// does (same key, so a warm runtime answers from its code cache).
  std::shared_ptr<const augem::runtime::CachedKernel> resolve(
      augem::runtime::KernelRuntime& rt) const;
  /// Canonical name of that key.
  std::string key_name() const;
  std::string describe() const;
};

/// Operand pointers of `op` inside `pools`.
struct Operands {
  const double* a = nullptr;
  const double* b = nullptr;
  const double* c0 = nullptr;
  const double* bias = nullptr;
  index_t lda = 1, ldb = 1, ldc = 1;
  index_t stride_a = 0, stride_b = 0, stride_c = 0;
};
Operands operands(const Op& op, const Pools& pools);

/// Copies the initial output operand into `out` (never timed).
void load_output(const Op& op, const Pools& pools, double* out);

/// Runs `op` on `lib`, writing into `out` (already loaded).
void call_public(augem::blas::Blas& lib, const Op& op, const Pools& pools,
                 double* out);

/// Oracle check of `out` against blas::ref under check::CompareSpec: the
/// whole output for full_check ops, else `samples` seeded elements (TRSM:
/// the residual op(A)·X ≈ αB on sampled columns/rows).
bool check_output(const Op& op, const Pools& pools, const double* out,
                  std::uint64_t sample_seed, int samples = 48);

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<Op> ops;             ///< one cycle, in issue order
  Pools pools;
  /// The shape whose GEMM kernel and blocking the kernel probe times.
  index_t probe_m = 0, probe_n = 0, probe_k = 0;
  /// Cold-start phase: every key the three compute workloads resolve.
  bool cold = false;
};

/// Builds the workload's operations and operands from `seed`. `tiny`
/// shrinks every extent for the self-test. For cold_start the operations
/// are one small check call per kernel key the other three workloads use.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// Index of the first op of each kernel key the workload resolves.
std::vector<std::size_t> first_of_each_key(const Workload& wl);

/// One call of each Level-3 routine at n≈256: the per-routine layer
/// metrics on workloads that issue no Level-3 calls.
Workload make_level3_probe(std::uint64_t seed);


// ---- tracing -----------------------------------------------------------------

/// One recorded span. Spans of one public call share `call`; `parent` is
/// the span that caused it (0 for a call span).
struct Span {
  const char* name;
  double start, end;
  std::uint64_t id, parent, call;
  int thread;
};

/// The layer boundaries spans are recorded at.
enum Layer : int {
  kResolve,      ///< KernelRuntime::resolve / resolve_small
  kBlockKernel,  ///< the padded BlockKernel handed to the driver
  kGemmFn,       ///< the raw generated GemmFn inside it
  kSmallFn,      ///< raw SmallGemmFn instance loops
  kLevel1,       ///< raw Level-1/2 kernels with their netlib wrappers
  kLayers
};
const char* layer_name(Layer l);
using LayerTimes = std::array<double, kLayers>;

/// In-memory span recorder, safe to use from the driver's pool threads.
/// Spans stay in per-thread buffers until the run ends.
class Tracer {
 public:
  static Tracer& get();

  /// Opens a call-level span; children recorded until end_call() attach to
  /// it from any thread.
  std::uint64_t begin_call(const char* name);
  void end_call(std::uint64_t id);
  std::uint64_t new_id() { return next_id_.fetch_add(1); }
  /// Records a finished child span of the current call; parent 0 means the
  /// call span itself.
  void record(Layer layer, double start, double end, std::uint64_t id,
              std::uint64_t parent);

  /// Summed duration per layer over every thread, since the start. Read
  /// only while no traced call is running.
  LayerTimes totals() const;
  /// Every recorded span, ordered by start time.
  std::vector<Span> spans() const;

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
    LayerTimes sums{};
  };
  Buffer& local();

  mutable std::mutex mutex_;  // guards buffers_ (registration and reads)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> current_call_{0};
};

/// Times its scope into a tracer span; spans opened inside it on the same
/// thread become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  double start_;
  std::uint64_t id_, parent_;
};

// ---- layers ------------------------------------------------------------------

/// Result of the traced replica of one call.
struct ReplicaTiming {
  double seconds = 0.0;  ///< wall time of the replica call
  int threads = 1;       ///< participants of its GEMM context
  /// Time inside each layer span during this call, summed over threads.
  LayerTimes layer_s{};
};

/// Re-runs `op` through the library functions RuntimeBlas composes
/// (blocked_gemm / level3_* / the raw kernels) with the same kernel and
/// context, recording spans around each layer's public function. The
/// output must be bit-identical to call_public's.
ReplicaTiming call_replica(augem::runtime::KernelRuntime& rt, const Op& op,
                           const Pools& pools, double* out,
                           augem::blas::Level3Stats* stats);

/// Metric name → (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Peak double-precision FMA throughput of one core at the dispatch ISA's
/// vector width, in GFLOP/s (the benchmark's own roofline).
double measure_peak_gflops(augem::Isa isa);

/// Per-layer probes that do not follow from the traced calls: kernel rates,
/// resolve latency, call and batch overheads, generator stages, tuning and
/// tunedb replay. Adds their metrics to `out`.
struct ProbeContext {
  augem::runtime::KernelRuntime& rt;
  const Workload& wl;
  std::string scratch_dir;  ///< private directory for the tunedb probe
  double peak_gflops = 0.0;
  /// Tuned cache directory of the cold-start workload ("" elsewhere).
  std::string tuned_dir;
};
void run_probes(const ProbeContext& ctx, Metrics& out);

/// Pack sweep of the driver's blocking for one GEMM op: time spent in
/// pack_a_block + pack_b_block and the bytes they write, plus the wall time
/// of the serial blocked_gemm call it belongs to.
struct PackTiming {
  double pack_s = 0.0, bytes = 0.0, serial_call_s = 0.0;
};
PackTiming measure_packing(augem::runtime::KernelRuntime& rt, const Op& op,
                           const Pools& pools);

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

}  // namespace perfbench
