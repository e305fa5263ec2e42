#pragma once
// KernelProbe: how this repository binds a generated kernel to operands
// for timing. The tuner's trials, `augemc --run`, the bench_gate suites and
// the GEMM ablations time a kernel as a probe plus perf::BenchRunner, and
// the climb and `augem_tunedb retune` compare two probes' calls with
// perf::compare, so one kernel's MFLOPS mean the same workload wherever
// they are quoted; each caller picks only the extents and how to time
// (docs/tuning.md, "Measuring a trial").

#include <cstdint>
#include <functional>

#include "frontend/kernels.hpp"
#include "perf/bench_runner.hpp"
#include "support/buffer.hpp"

namespace augem::tuning {

/// Operand extents. GEMM reads an m×k packed A block, a k×n packed B block
/// and an m×n C block; GEMV an m×n matrix; AXPY, DOT and SCAL vectors of
/// length m. (A BenchRow names its problem the same way.)
struct ProbeExtents {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
};

/// One generated kernel bound to seeded synthetic operands.
class KernelProbe {
 public:
  /// Binds `entry`, a `kind` kernel with the KernelSet ABI
  /// (augem/augem.hpp). A GEMM kernel needs the mr×nr register tile it was
  /// generated for: m and n are rounded down to it, and C's leading
  /// dimension is the rounded m. Other kinds ignore the tile.
  KernelProbe(frontend::KernelKind kind, void* entry, ProbeExtents extents,
              int mr = 0, int nr = 0);

  /// The extents bound (GEMM's m and n rounded down to the tile).
  const ProbeExtents& extents() const { return extents_; }
  /// Flops of one call (support/flops.hpp on the bound extents).
  double flops() const { return flops_; }
  /// One call of the kernel on the bound operands.
  const std::function<void()>& call() const { return call_; }

  /// Times the kernel, `calls` back-to-back calls per sample (a batch
  /// amortizes the timer on short vectors).
  perf::Measurement measure(const perf::BenchRunner& runner,
                            int calls = 1) const;

 private:
  ProbeExtents extents_;
  double flops_ = 0.0;
  DoubleBuffer a_, b_, c_;
  std::function<void()> call_;
};

}  // namespace augem::tuning
