#pragma once
// "Simple C" implementations of the four DLA kernels the paper optimizes
// (GEMM Fig. 12, GEMV Fig. 15, AXPY Fig. 16, DOT Fig. 17), expressed in the
// low-level C IR. These are the *inputs* to the AUGEM pipeline.
//
// ABI note: the parameter lists below define the SysV x86-64 signatures of
// the generated assembly functions (see asmgen/abi.hpp). All extents are
// `long`, all data is `double`.

#include <optional>
#include <string>

#include "ir/kernel.hpp"

namespace augem::frontend {

/// Layout of the packed B block consumed by the GEMM kernel.
enum class BLayout {
  /// B[l*nc + j]: row-major packed block, contiguous across the unrolled j
  /// direction. Both of the paper's vectorization strategies (Vdup and
  /// Shuf, §3.4) apply. No driver packs it: it serves the Vdup/Shuf
  /// comparisons (augemc, the Shuf snapshots, the ablation, the fuzzer and
  /// mirlint).
  kRowPanel,
  /// B[j*kc + l]: column-major block, exactly the paper's Fig. 12, and the
  /// layout the blocked driver packs (blas/pack.hpp): every column is one
  /// contiguous kc-deep sliver. The unrolled j elements are `kc` apart, so
  /// only the Vdup strategy applies (the Template Identifier rejects Shuf
  /// here).
  kColMajor,
};

/// Which kernel a spec describes. The first four are the paper's; kScal is
/// this repository's demonstration of the paper's stated future work
/// ("extending our template-based approach to support a much broader
/// collection of routines"): one new template (svSCAL) plus one specialized
/// optimizer suffice to cover a new Level-1 routine.
enum class KernelKind { kGemm, kGemv, kAxpy, kDot, kScal };

const char* kernel_kind_name(KernelKind k);
/// Inverse of kernel_kind_name, in either case ("gemm" or "GEMM"); nullopt
/// for any other name.
std::optional<KernelKind> parse_kernel_kind(const std::string& name);

/// GEMM inner kernel over packed blocks (Goto-style, paper Fig. 12):
///
///   void name(long mc, long nc, long kc,
///             const double* A, const double* B, double* C, long ldc)
///   // C[j*ldc+i] += sum_l A[l*mc+i] * B_elem(l,j)   for i<mc, j<nc
ir::Kernel make_gemm_kernel(BLayout layout = BLayout::kRowPanel,
                            const std::string& name = "dgemm_kernel");

/// GEMV, column-traversal AXPY form (paper Fig. 15):
///
///   void name(long m, long n, const double* A, long lda,
///             const double* x, double* y)
///   // y[j] += A[i*lda+j] * x[i]   for i<n, j<m   (A column-major)
ir::Kernel make_gemv_kernel(const std::string& name = "dgemv_kernel");

/// AXPY (paper Fig. 16):
///
///   void name(long n, double alpha, const double* x, double* y)
///   // y[i] += x[i] * alpha
ir::Kernel make_axpy_kernel(const std::string& name = "daxpy_kernel");

/// DOT (paper Fig. 17):
///
///   double name(long n, const double* x, const double* y)
///   // returns sum_i x[i]*y[i]
ir::Kernel make_dot_kernel(const std::string& name = "ddot_kernel");

/// SCAL (extension kernel, see KernelKind::kScal):
///
///   void name(long n, double alpha, double* x)
///   // x[i] = x[i] * alpha
ir::Kernel make_scal_kernel(const std::string& name = "dscal_kernel");

/// Builds the simple-C kernel for `kind` (GEMM uses `layout`).
ir::Kernel make_kernel(KernelKind kind, BLayout layout = BLayout::kRowPanel);

// ---- shape-specialized small GEMM ----------------------------------------

/// Optional epilogue fused into the small-GEMM store. The combined update is
///
///   C[j*ldc+i] = relu( scale(C[j*ldc+i], res) + bias[i] )
///
/// where scale(c, r) is `c*beta + r*alpha` when `scale` is set and `c + r`
/// otherwise, the bias term appears only when `bias` is set, and relu(x) is
/// `max(x, 0.0)` (MAXPD semantics: relu(NaN) == 0.0) when `relu` is set.
struct EpilogueSpec {
  bool scale = false;  ///< alpha/beta scaling instead of plain accumulate
  bool bias = false;   ///< add bias[i] (one vector of m doubles)
  bool relu = false;   ///< clamp at zero

  bool any() const { return scale || bias || relu; }
  /// Display tag, e.g. "+scale+bias+relu"; empty for a plain store.
  std::string tag() const;
  /// Symbol-safe suffix, e.g. "_scale_bias_relu"; empty for a plain store.
  std::string suffix() const;

  friend bool operator==(const EpilogueSpec& a, const EpilogueSpec& b) {
    return a.scale == b.scale && a.bias == b.bias && a.relu == b.relu;
  }
  friend bool operator!=(const EpilogueSpec& a, const EpilogueSpec& b) {
    return !(a == b);
  }
};

/// A fully shape-specialized small GEMM problem: every extent is a compile-
/// time constant, A/B are read in place (no packing), and the epilogue is
/// fused into the generated store.
struct SmallGemmSpec {
  int m = 16;
  int n = 16;
  int k = 16;
  EpilogueSpec epilogue;

  /// e.g. "16x16x16+bias+relu".
  std::string to_string() const;

  friend bool operator==(const SmallGemmSpec& a, const SmallGemmSpec& b) {
    return a.m == b.m && a.n == b.n && a.k == b.k && a.epilogue == b.epilogue;
  }
  friend bool operator!=(const SmallGemmSpec& a, const SmallGemmSpec& b) {
    return !(a == b);
  }
};

/// Small-GEMM kernel over unpacked column-major operands with the fused
/// epilogue of `spec`. Loop bounds are the spec's constants, so the whole
/// kernel unrolls away under the small-GEMM pipeline. Signature (uniform
/// across epilogue variants; unused trailing operands are simply ignored):
///
///   void name(const double* A, long lda, const double* B, long ldb,
///             double* C, long ldc, const double* bias,
///             double alpha, double beta)
///   // C[j*ldc+i] = epilogue(C[j*ldc+i], sum_l A[l*lda+i] * B[j*ldb+l])
ir::Kernel make_small_gemm_kernel(const SmallGemmSpec& spec,
                                  const std::string& name = "");

}  // namespace augem::frontend
