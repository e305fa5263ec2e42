// The structural, flag and definite-assignment checks every generated
// kernel must pass (the generation-time gate in asmgen::generate_assembly):
// one hand-built instruction list per rule, judged on error findings only.

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "support/error.hpp"

namespace augem::analysis {
namespace {

using namespace opt;

MInstList minimal_ok() {
  MInstList l;
  l.push_back(vzero(Vr::v0, 1, false));
  l.push_back(ret());
  return l;
}

AnalysisReport analyze_with(const MInstList& l, int f64_params = 0) {
  AnalyzeOptions o;
  o.num_f64_params = f64_params;
  return analyze(l, o);
}

bool clean(const MInstList& l) { return analyze(l).errors() == 0; }

bool has_issue(const MInstList& l, const std::string& fragment,
               int f64_params = 0) {
  for (const Finding& f : analyze_with(l, f64_params).findings)
    if (f.severity == Severity::kError &&
        f.message.find(fragment) != std::string::npos)
      return true;
  return false;
}

TEST(Verifier, CleanFunctionPasses) {
  EXPECT_TRUE(clean(minimal_ok()));
  EXPECT_NO_THROW(check_clean(analyze(minimal_ok()), minimal_ok()));
}

TEST(Verifier, MissingRetFlagged) {
  MInstList l;
  l.push_back(vzero(Vr::v0, 1, false));
  EXPECT_TRUE(has_issue(l, "no ret"));
}

TEST(Verifier, TwoOperandViolation) {
  MInstList l;
  l.push_back(vzero(Vr::v0, 2, false));
  l.push_back(vzero(Vr::v1, 2, false));
  l.push_back(vzero(Vr::v2, 2, false));
  l.push_back(vmul(Vr::v2, Vr::v0, Vr::v1, 2, false));  // dst != src1, SSE
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "dst == src1"));
}

TEST(Verifier, WidthFourRequiresVex) {
  MInstList l;
  MInst bad = vzero(Vr::v0, 4, false);
  l.push_back(bad);
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "without VEX"));
}

TEST(Verifier, CondJumpNeedsCompare) {
  MInstList l;
  l.push_back(label("x"));
  l.push_back(jl("x"));  // no compare at all
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "without an immediately preceding compare"));
}

TEST(Verifier, ArithmeticInvalidatesFlags) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(label("x"));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(iadd_imm(Gpr::rax, 1));  // clobbers EFLAGS
  l.push_back(jl("x"));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "without an immediately preceding compare"));
}

TEST(Verifier, CommentsDoNotInvalidateFlags) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(label("x"));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(comment("still fine"));
  l.push_back(jl("x"));
  l.push_back(ret());
  EXPECT_TRUE(clean(l));
}

TEST(Verifier, UnknownJumpTarget) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(jl("nowhere"));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "unknown label"));
}

TEST(Verifier, UnbalancedPushes) {
  MInstList l;
  l.push_back(push(Gpr::rbx));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "not restored"));
}

TEST(Verifier, PopOrderMismatch) {
  MInstList l;
  l.push_back(push(Gpr::rbx));
  l.push_back(push(Gpr::r12));
  l.push_back(pop(Gpr::rbx));  // should be r12 first
  l.push_back(pop(Gpr::r12));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "pop order mismatch"));
}

TEST(Verifier, UnbalancedFrameAdjustment) {
  MInstList l;
  l.push_back(isub_imm(Gpr::rsp, 64));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "unbalanced stack frame"));
}

TEST(Verifier, BalancedFramePasses) {
  MInstList l;
  l.push_back(push(Gpr::rbx));
  l.push_back(isub_imm(Gpr::rsp, 64));
  l.push_back(imov_imm(Gpr::rbx, 7));
  l.push_back(iadd_imm(Gpr::rsp, 64));
  l.push_back(pop(Gpr::rbx));
  l.push_back(ret());
  EXPECT_TRUE(clean(l));
}

TEST(Verifier, UninitializedVectorReadFlagged) {
  MInstList l;
  l.push_back(vmov(Vr::v1, Vr::v9, 2, true));  // v9 never written
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "uninitialized vector register"));
}

TEST(Verifier, F64ParamsPreinitializeXmm) {
  MInstList l;
  l.push_back(vmov(Vr::v1, Vr::v0, 1, true));  // xmm0 = alpha argument
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "uninitialized vector register", 0));
  EXPECT_FALSE(has_issue(l, "uninitialized vector register", 1));
}

TEST(Verifier, UninitializedGprReadFlagged) {
  MInstList l;
  l.push_back(imov(Gpr::rax, Gpr::r15));  // r15 is not an argument register
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "uninitialized register r15"));
}

TEST(Verifier, ArgumentRegistersArePreinitialized) {
  MInstList l;
  l.push_back(imov(Gpr::rax, Gpr::rdi));
  l.push_back(iload(Gpr::rbx, mem_bd(Gpr::rsp, 8)));
  l.push_back(ret());
  EXPECT_TRUE(clean(l));
}

// Regression: the pre-CFG verifier walked instructions in emission order, so
// a register defined only on one path looked defined everywhere. The
// analyzer must catch a read whose definition can be jumped over.
TEST(Verifier, GprDefinedOnlyOnOnePathFlagged) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(jge("skip"));
  l.push_back(imov_imm(Gpr::rbx, 1));  // defined only on the fallthrough
  l.push_back(label("skip"));
  l.push_back(imov(Gpr::rcx, Gpr::rbx));  // uninitialized via the jump
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "uninitialized register rbx"));
}

// Regression: a vector register written only inside a pre-guarded loop is
// undefined after it when the loop runs zero iterations — in emission order
// the write precedes the read, so the old verifier accepted this.
TEST(Verifier, PostLoopReadOfLoopOnlyVectorFlagged) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(jge("end"));  // zero-trip path skips the body entirely
  l.push_back(label("body"));
  l.push_back(vzero(Vr::v3, 2, true));
  l.push_back(iadd_imm(Gpr::rax, 1));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(jl("body"));
  l.push_back(label("end"));
  l.push_back(vmov(Vr::v1, Vr::v3, 2, true));
  l.push_back(ret());
  EXPECT_TRUE(has_issue(l, "uninitialized vector register"));
}

// The dual: a definition that dominates the read through both paths of a
// diamond must NOT be flagged (no straight-line false positive either).
TEST(Verifier, DominatingDefinitionAcrossJoinPasses) {
  MInstList l;
  l.push_back(imov_imm(Gpr::rbx, 1));  // dominates everything below
  l.push_back(imov_imm(Gpr::rax, 0));
  l.push_back(cmp_imm(Gpr::rax, 5));
  l.push_back(jge("skip"));
  l.push_back(iadd_imm(Gpr::rbx, 1));
  l.push_back(label("skip"));
  l.push_back(imov(Gpr::rcx, Gpr::rbx));
  l.push_back(ret());
  EXPECT_TRUE(clean(l));
}

TEST(Verifier, CheckThrowsWithIndexedMessages) {
  MInstList l;
  l.push_back(push(Gpr::rbx));
  l.push_back(ret());
  try {
    check_clean(analyze(l), l);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("[1]"), std::string::npos);
  }
}

}  // namespace
}  // namespace augem::analysis
