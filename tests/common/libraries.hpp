#pragma once
// The BLAS libraries the parameterized blas tests run over, by name: the
// four comparator libraries and "runtime" — RuntimeBlas, the BLAS every
// user calls, on a memory-only runtime serving the untuned default kernels.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "blas/libraries.hpp"
#include "jit/jit.hpp"
#include "runtime/runtime_blas.hpp"

namespace augem::testing {

inline std::unique_ptr<blas::Blas> make_library(const std::string& which) {
  if (which == "refblas") return blas::make_refblas();
  if (which == "gotosim") return blas::make_gotosim();
  if (which == "atlsim") return blas::make_atlsim();
  if (which == "runtime") {
    static runtime::KernelRuntime rt([] {
      runtime::RuntimeConfig c;
      c.use_persistent = false;
      c.tune_on_miss = false;
      return c;
    }());
    return runtime::make_runtime_blas(rt);
  }
  return blas::make_vendorsim();
}

/// Fixture over the library its test parameter names.
class LibraryTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "runtime" && !jit::toolchain_available())
      GTEST_SKIP() << "no assembler toolchain; RuntimeBlas needs native "
                      "kernels";
  }

  std::unique_ptr<blas::Blas> lib_ = make_library(GetParam());
};

}  // namespace augem::testing
