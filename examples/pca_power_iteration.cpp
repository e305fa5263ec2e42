// Domain application: principal component of a data covariance matrix via
// power iteration, built entirely on the AUGEM-generated kernels — the kind
// of scientific-computing workload the paper's introduction motivates.
//
//   C = X^T X / samples      (SYRK on the generated GEMM kernel)
//   repeat: v ← C v / ‖C v‖  (GEMV, DOT, AXPY — the other three kernels)
//
//   build/examples/pca_power_iteration

#include <cmath>
#include <cstdio>
#include <vector>

#include "perf/clock.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/buffer.hpp"
#include "support/rng.hpp"

int main() {
  using namespace augem;
  auto lib = runtime::make_runtime_blas();

  // Synthetic data: `samples` observations of `dims` correlated features.
  const long samples = 4096, dims = 512;
  Rng rng(123);
  DoubleBuffer x(static_cast<std::size_t>(samples * dims));  // col-major
  // Feature j = latent signal * weight_j + noise → a dominant component.
  std::vector<double> latent(static_cast<std::size_t>(samples));
  rng.fill(latent);
  for (long j = 0; j < dims; ++j) {
    const double weight = std::sin(0.05 * static_cast<double>(j)) + 1.5;
    for (long i = 0; i < samples; ++i)
      x[static_cast<std::size_t>(j * samples + i)] =
          weight * latent[static_cast<std::size_t>(i)] + 0.1 * rng.uniform();
  }

  perf::Stopwatch total;

  // Covariance (lower triangle) via SYRK: C = X^T X / samples.
  // X^T is dims×samples, so SYRK over A = X^T — expressed with the packed
  // transpose read the library supports (A(n×k) with n=dims, k=samples).
  DoubleBuffer xt(static_cast<std::size_t>(dims * samples));
  for (long j = 0; j < dims; ++j)
    for (long i = 0; i < samples; ++i)
      xt[static_cast<std::size_t>(i * dims + j)] =
          x[static_cast<std::size_t>(j * samples + i)];
  DoubleBuffer c(static_cast<std::size_t>(dims * dims));
  lib->syrk(blas::Uplo::kLower, blas::Trans::kNo, dims, samples, 1.0 / static_cast<double>(samples), xt.data(),
            dims, 0.0, c.data(), dims);
  // Mirror to a full symmetric matrix for the GEMV iterations.
  for (long j = 0; j < dims; ++j)
    for (long i = 0; i < j; ++i)
      c[static_cast<std::size_t>(j * dims + i)] =
          c[static_cast<std::size_t>(i * dims + j)];

  // Power iteration on C.
  DoubleBuffer v(static_cast<std::size_t>(dims));
  DoubleBuffer w(static_cast<std::size_t>(dims));
  for (long i = 0; i < dims; ++i) v[static_cast<std::size_t>(i)] = 1.0;
  double eigenvalue = 0.0;
  int iters = 0;
  for (; iters < 200; ++iters) {
    lib->gemv(dims, dims, 1.0, c.data(), dims, v.data(), 0.0, w.data());
    const double norm = std::sqrt(lib->dot(dims, w.data(), w.data()));
    double next = 0.0;
    for (long i = 0; i < dims; ++i) {
      w[static_cast<std::size_t>(i)] /= norm;
    }
    next = norm;  // ‖Cv‖ with ‖v‖=1 estimates the dominant eigenvalue
    // v ← w via AXPY trickery: v = 0 + 1.0*w.
    for (long i = 0; i < dims; ++i) v[static_cast<std::size_t>(i)] = 0.0;
    lib->axpy(dims, 1.0, w.data(), v.data());
    if (std::abs(next - eigenvalue) < 1e-9 * next) {
      eigenvalue = next;
      break;
    }
    eigenvalue = next;
  }

  std::printf("PCA on %ldx%ld data (covariance %ldx%ld)\n", samples, dims,
              dims, dims);
  std::printf("dominant eigenvalue: %.6f after %d power iterations\n",
              eigenvalue, iters + 1);
  std::printf("total time: %.3f s (SYRK + iterations, all on generated "
              "kernels)\n",
              total.elapsed_s());

  // Sanity: the leading eigenvector should follow the planted weights.
  const double v0 = v[0];
  const double w0 = std::sin(0.0) + 1.5;
  double max_rel = 0.0;
  for (long j = 0; j < dims; ++j) {
    const double expected = (std::sin(0.05 * static_cast<double>(j)) + 1.5) /
                            w0 * v0;
    max_rel = std::max(max_rel,
                       std::abs(v[static_cast<std::size_t>(j)] - expected) /
                           std::abs(expected));
  }
  std::printf("eigenvector matches planted structure within %.2f%%\n",
              100.0 * max_rel);
  return max_rel < 0.05 ? 0 : 1;
}
