#pragma once
// The dispatching BLAS: the blas::Blas whose GEMM block kernel and
// Level-1/2 kernels (dgemv/daxpy/ddot/dscal) are served by the kernel
// runtime. Every call classifies its problem shape — for GEMM and the
// Level-3 routines, the bulk GEMM shape — resolves the tuned kernel for
// (host CPU, kind, ISA, shape class) through the code cache / tuning
// database / tuner pipeline, and runs it with shape-aware blocking. So a
// process's first call pays generation once and every later call (and
// every later *process* sharing the cache directory) serves resident code.

#include <memory>

#include "blas/blas.hpp"
#include "runtime/dispatch.hpp"

namespace augem::runtime {

/// A Blas on the process-global KernelRuntime (the transparent serving
/// configuration: persistent database honoring AUGEM_CACHE_DIR /
/// AUGEM_DISABLE_TUNE_CACHE, tuner on cold miss).
std::unique_ptr<blas::Blas> make_runtime_blas();

/// A Blas on an explicit runtime (tests, benchmarks, tools). The runtime
/// must outlive the returned Blas.
std::unique_ptr<blas::Blas> make_runtime_blas(KernelRuntime& runtime);

}  // namespace augem::runtime
