#include "tuning/probe.hpp"

#include "augem/augem.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace augem::tuning {

using frontend::KernelKind;

KernelProbe::KernelProbe(KernelKind kind, void* entry, ProbeExtents e, int mr,
                         int nr) {
  AUGEM_CHECK(entry != nullptr, "kernel probe needs an entry point");
  AUGEM_CHECK(kind != KernelKind::kGemm || (mr >= 1 && nr >= 1),
              "a GEMM probe needs the kernel's register tile");
  Rng rng(11);
  // Operands are filled in declaration order, so a probe's data depends
  // only on its kind and extents.
  const auto operand = [&](DoubleBuffer& buf, std::int64_t size) {
    buf = DoubleBuffer(static_cast<std::size_t>(size));
    rng.fill(buf.span());
    return buf.data();
  };
  const long m = kind == KernelKind::kGemm ? e.m / mr * mr : e.m;
  const long n = kind == KernelKind::kGemm ? e.n / nr * nr : e.n;
  const long k = e.k;
  switch (kind) {
    case KernelKind::kGemm: {
      auto* fn = reinterpret_cast<KernelSet::GemmFn*>(entry);
      const double* a = operand(a_, m * k);
      const double* b = operand(b_, k * n);
      double* c = operand(c_, m * n);
      flops_ = gemm_flops(m, n, k);
      call_ = [=] { fn(m, n, k, a, b, c, m); };
      extents_ = {m, n, k};
      break;
    }
    case KernelKind::kGemv: {
      auto* fn = reinterpret_cast<KernelSet::GemvFn*>(entry);
      const double* a = operand(a_, m * n);
      const double* x = operand(b_, n);
      double* y = operand(c_, m);
      flops_ = gemv_flops(m, n);
      call_ = [=] { fn(m, n, a, m, x, y); };
      extents_ = {m, n};
      break;
    }
    case KernelKind::kAxpy: {
      auto* fn = reinterpret_cast<KernelSet::AxpyFn*>(entry);
      const double* x = operand(a_, m);
      double* y = operand(b_, m);
      flops_ = axpy_flops(m);
      call_ = [=] { fn(m, 1.0000001, x, y); };
      extents_ = {m};
      break;
    }
    case KernelKind::kDot: {
      auto* fn = reinterpret_cast<KernelSet::DotFn*>(entry);
      const double* x = operand(a_, m);
      const double* y = operand(b_, m);
      flops_ = dot_flops(m);
      call_ = [=] {
        volatile double sink = fn(m, x, y);
        (void)sink;
      };
      extents_ = {m};
      break;
    }
    case KernelKind::kScal: {
      auto* fn = reinterpret_cast<KernelSet::ScalFn*>(entry);
      double* x = operand(a_, m);
      flops_ = scal_flops(m);
      call_ = [=] { fn(m, 1.0000001, x); };
      extents_ = {m};
      break;
    }
  }
  AUGEM_CHECK(call_, "unknown kernel kind");
}

perf::Measurement KernelProbe::measure(const perf::BenchRunner& runner,
                                       int calls) const {
  if (calls <= 1) return runner.run(flops_, call_);
  return runner.run(flops_ * calls, [&] {
    for (int r = 0; r < calls; ++r) call_();
  });
}

}  // namespace augem::tuning
