#pragma once
// Factory functions for the comparator BLAS libraries of the evaluation
// (DESIGN.md §2 maps each to the library it stands in for). Each supplies
// a block kernel; GEMM and the Level-3 routines run the shared algorithms
// of blas/blas.hpp on it:
//
//   refblas   — a scalar block kernel on one thread, naive Level-1/2
//               loops; the "simple C" floor
//   gotosim   — Goto blocking + 128-bit SSE2/SSE3 kernels, no AVX/FMA:
//               stands in for GotoBLAS2 1.13, whose losses the paper
//               attributes precisely to the missing AVX/FMA support
//   atlsim    — register-tiled plain C compiled by the general-purpose
//               compiler (auto-vectorization): the ATLAS approach
//   vendorsim — expert-tuned AVX2+FMA intrinsics kernels: the MKL/ACML
//               stand-in
//
// The AUGEM implementation over generated kernels is
// runtime::make_runtime_blas (runtime/runtime_blas.hpp).

#include <memory>

#include "blas/blas.hpp"

namespace augem::blas {

std::unique_ptr<Blas> make_refblas();
std::unique_ptr<Blas> make_gotosim();
std::unique_ptr<Blas> make_atlsim();
std::unique_ptr<Blas> make_vendorsim();

}  // namespace augem::blas
