#include "frontend/kernels.hpp"

#include <strings.h>

#include "support/error.hpp"

namespace augem::frontend {

using namespace augem::ir;

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::kGemm: return "gemm";
    case KernelKind::kGemv: return "gemv";
    case KernelKind::kAxpy: return "axpy";
    case KernelKind::kDot:  return "dot";
    case KernelKind::kScal: return "scal";
  }
  return "?";
}

std::optional<KernelKind> parse_kernel_kind(const std::string& name) {
  for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv, KernelKind::kAxpy,
                       KernelKind::kDot, KernelKind::kScal})
    if (strcasecmp(name.c_str(), kernel_kind_name(k)) == 0) return k;
  return std::nullopt;
}

ir::Kernel make_gemm_kernel(BLayout layout, const std::string& name) {
  Kernel k(name, {
                     {"mc", ScalarType::kI64},
                     {"nc", ScalarType::kI64},
                     {"kc", ScalarType::kI64},
                     {"A", ScalarType::kPtrF64, /*is_const=*/true},
                     {"B", ScalarType::kPtrF64, /*is_const=*/true},
                     {"C", ScalarType::kPtrF64, /*is_const=*/false},
                     {"ldc", ScalarType::kI64},
                 });
  k.declare_local("i", ScalarType::kI64);
  k.declare_local("j", ScalarType::kI64);
  k.declare_local("l", ScalarType::kI64);
  k.declare_local("res", ScalarType::kF64);

  // B element (l, j) in the chosen packed layout.
  auto b_index = [&]() -> ExprPtr {
    if (layout == BLayout::kRowPanel)
      return add(mul(var("l"), var("nc")), var("j"));
    return add(mul(var("j"), var("kc")), var("l"));
  };

  StmtList l_body;
  // res = res + A[l*mc + i] * B[...];
  l_body.push_back(assign(
      var("res"),
      add(var("res"), mul(arr("A", add(mul(var("l"), var("mc")), var("i"))),
                          arr("B", b_index())))));

  StmtList i_body;
  i_body.push_back(assign(var("res"), fval(0.0)));
  i_body.push_back(forloop("l", ival(0), var("kc"), 1, std::move(l_body)));
  // C[j*ldc + i] = C[j*ldc + i] + res;
  auto c_ref = [&] { return arr("C", add(mul(var("j"), var("ldc")), var("i"))); };
  i_body.push_back(assign(c_ref(), add(c_ref(), var("res"))));

  StmtList j_body;
  j_body.push_back(forloop("i", ival(0), var("mc"), 1, std::move(i_body)));

  StmtList body;
  body.push_back(forloop("j", ival(0), var("nc"), 1, std::move(j_body)));
  k.set_body(std::move(body));
  return k;
}

ir::Kernel make_gemv_kernel(const std::string& name) {
  Kernel k(name, {
                     {"m", ScalarType::kI64},
                     {"n", ScalarType::kI64},
                     {"A", ScalarType::kPtrF64, /*is_const=*/true},
                     {"lda", ScalarType::kI64},
                     {"x", ScalarType::kPtrF64, /*is_const=*/true},
                     {"y", ScalarType::kPtrF64, /*is_const=*/false},
                 });
  k.declare_local("i", ScalarType::kI64);
  k.declare_local("j", ScalarType::kI64);
  k.declare_local("scal", ScalarType::kF64);

  StmtList j_body;
  // y[j] = y[j] + A[i*lda + j] * scal;
  j_body.push_back(assign(
      arr("y", var("j")),
      add(arr("y", var("j")),
          mul(arr("A", add(mul(var("i"), var("lda")), var("j"))), var("scal")))));

  StmtList i_body;
  i_body.push_back(assign(var("scal"), arr("x", var("i"))));
  i_body.push_back(forloop("j", ival(0), var("m"), 1, std::move(j_body)));

  StmtList body;
  body.push_back(forloop("i", ival(0), var("n"), 1, std::move(i_body)));
  k.set_body(std::move(body));
  return k;
}

ir::Kernel make_axpy_kernel(const std::string& name) {
  Kernel k(name, {
                     {"n", ScalarType::kI64},
                     {"alpha", ScalarType::kF64},
                     {"x", ScalarType::kPtrF64, /*is_const=*/true},
                     {"y", ScalarType::kPtrF64, /*is_const=*/false},
                 });
  k.declare_local("i", ScalarType::kI64);

  StmtList i_body;
  // y[i] = y[i] + x[i] * alpha;
  i_body.push_back(assign(arr("y", var("i")),
                          add(arr("y", var("i")),
                              mul(arr("x", var("i")), var("alpha")))));

  StmtList body;
  body.push_back(forloop("i", ival(0), var("n"), 1, std::move(i_body)));
  k.set_body(std::move(body));
  return k;
}

ir::Kernel make_dot_kernel(const std::string& name) {
  Kernel k(name, {
                     {"n", ScalarType::kI64},
                     {"x", ScalarType::kPtrF64, /*is_const=*/true},
                     {"y", ScalarType::kPtrF64, /*is_const=*/true},
                 });
  k.declare_local("i", ScalarType::kI64);
  k.declare_local("res", ScalarType::kF64);

  StmtList i_body;
  // res = res + x[i] * y[i];
  i_body.push_back(assign(
      var("res"),
      add(var("res"), mul(arr("x", var("i")), arr("y", var("i"))))));

  StmtList body;
  body.push_back(assign(var("res"), fval(0.0)));
  body.push_back(forloop("i", ival(0), var("n"), 1, std::move(i_body)));
  k.set_body(std::move(body));
  k.set_return_var("res");
  return k;
}

ir::Kernel make_scal_kernel(const std::string& name) {
  Kernel k(name, {
                     {"n", ScalarType::kI64},
                     {"alpha", ScalarType::kF64},
                     {"x", ScalarType::kPtrF64, /*is_const=*/false},
                 });
  k.declare_local("i", ScalarType::kI64);

  StmtList i_body;
  // x[i] = x[i] * alpha;
  i_body.push_back(assign(arr("x", var("i")),
                          mul(arr("x", var("i")), var("alpha"))));

  StmtList body;
  body.push_back(forloop("i", ival(0), var("n"), 1, std::move(i_body)));
  k.set_body(std::move(body));
  return k;
}

std::string EpilogueSpec::tag() const {
  std::string s;
  if (scale) s += "+scale";
  if (bias) s += "+bias";
  if (relu) s += "+relu";
  return s;
}

std::string EpilogueSpec::suffix() const {
  std::string s;
  if (scale) s += "_scale";
  if (bias) s += "_bias";
  if (relu) s += "_relu";
  return s;
}

std::string SmallGemmSpec::to_string() const {
  return std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k) +
         epilogue.tag();
}

ir::Kernel make_small_gemm_kernel(const SmallGemmSpec& spec,
                                  const std::string& name) {
  AUGEM_CHECK(spec.m > 0 && spec.n > 0 && spec.k > 0,
              "small-GEMM extents must be positive");
  std::string fn = name;
  if (fn.empty()) {
    fn = "dgemm_small_" + std::to_string(spec.m) + "x" +
         std::to_string(spec.n) + "x" + std::to_string(spec.k) +
         spec.epilogue.suffix();
  }
  Kernel k(fn, {
                   {"A", ScalarType::kPtrF64, /*is_const=*/true},
                   {"lda", ScalarType::kI64},
                   {"B", ScalarType::kPtrF64, /*is_const=*/true},
                   {"ldb", ScalarType::kI64},
                   {"C", ScalarType::kPtrF64, /*is_const=*/false},
                   {"ldc", ScalarType::kI64},
                   {"bias", ScalarType::kPtrF64, /*is_const=*/true},
                   {"alpha", ScalarType::kF64},
                   {"beta", ScalarType::kF64},
               });
  k.declare_local("i", ScalarType::kI64);
  k.declare_local("j", ScalarType::kI64);
  k.declare_local("l", ScalarType::kI64);
  k.declare_local("res", ScalarType::kF64);

  StmtList l_body;
  // res = res + A[l*lda + i] * B[j*ldb + l];
  l_body.push_back(assign(
      var("res"),
      add(var("res"), mul(arr("A", add(mul(var("l"), var("lda")), var("i"))),
                          arr("B", add(mul(var("j"), var("ldb")), var("l")))))));

  StmtList i_body;
  i_body.push_back(assign(var("res"), fval(0.0)));
  i_body.push_back(forloop("l", ival(0), ival(spec.k), 1, std::move(l_body)));
  auto c_ref = [&] { return arr("C", add(mul(var("j"), var("ldc")), var("i"))); };
  // C[j*ldc+i] = relu(scale(C[j*ldc+i], res) + bias[i]) per the spec.
  ExprPtr upd;
  if (spec.epilogue.scale) {
    upd = add(mul(c_ref(), var("beta")), mul(var("res"), var("alpha")));
  } else {
    upd = add(c_ref(), var("res"));
  }
  if (spec.epilogue.bias) upd = add(std::move(upd), arr("bias", var("i")));
  if (spec.epilogue.relu) upd = fmax2(std::move(upd), fval(0.0));
  i_body.push_back(assign(c_ref(), std::move(upd)));

  StmtList j_body;
  j_body.push_back(forloop("i", ival(0), ival(spec.m), 1, std::move(i_body)));

  StmtList body;
  body.push_back(forloop("j", ival(0), ival(spec.n), 1, std::move(j_body)));
  k.set_body(std::move(body));
  return k;
}

ir::Kernel make_kernel(KernelKind kind, BLayout layout) {
  switch (kind) {
    case KernelKind::kGemm: return make_gemm_kernel(layout);
    case KernelKind::kGemv: return make_gemv_kernel();
    case KernelKind::kAxpy: return make_axpy_kernel();
    case KernelKind::kDot:  return make_dot_kernel();
    case KernelKind::kScal: return make_scal_kernel();
  }
  AUGEM_FAIL("unknown kernel kind");
}

}  // namespace augem::frontend
