#include "ir/visit.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace augem::ir {
namespace {

StmtList sample_nest() {
  StmtList inner;
  inner.push_back(assign(var("res"), add(var("res"), arr("A", var("l")))));
  StmtList outer;
  outer.push_back(assign(var("res"), fval(0.0)));
  outer.push_back(forloop("l", ival(0), var("kc"), 1, std::move(inner)));
  StmtList top;
  top.push_back(forloop("i", ival(0), var("mc"), 1, std::move(outer)));
  return top;
}

TEST(Visit, ForEachStmtVisitsNested) {
  int count = 0;
  for_each_stmt(sample_nest(), [&](const Stmt&) { ++count; });
  EXPECT_EQ(count, 4);  // outer for, assign, inner for, inner assign
}

TEST(Visit, ForEachExprSeesLoopBounds) {
  std::vector<std::string> vars;
  for_each_expr(sample_nest(), [&](const Expr& e) {
    if (const auto* v = as<VarRef>(e)) vars.push_back(v->name());
  });
  // mc and kc appear as loop bounds; l appears as subscript; res twice more.
  EXPECT_NE(std::find(vars.begin(), vars.end(), "mc"), vars.end());
  EXPECT_NE(std::find(vars.begin(), vars.end(), "kc"), vars.end());
  EXPECT_NE(std::find(vars.begin(), vars.end(), "l"), vars.end());
}

TEST(Visit, RewriteExprReplacesLeaf) {
  auto e = add(var("i"), mul(var("i"), ival(2)));
  auto r = rewrite_expr(*e, [](const Expr& node) -> ExprPtr {
    if (const auto* v = as<VarRef>(node); v != nullptr && v->name() == "i")
      return ival(5);
    return nullptr;
  });
  EXPECT_EQ(r->to_string(), "(5 + (5 * 2))");
}

TEST(Visit, RewriteExprBottomUpSeesRebuiltChildren) {
  // Replace i→1 first, then the outer fn sees (1 + 1) and can fold it.
  auto e = add(var("i"), var("i"));
  auto r = rewrite_expr(*e, [](const Expr& node) -> ExprPtr {
    if (const auto* v = as<VarRef>(node); v != nullptr) return ival(1);
    if (const auto* b = as<Binary>(node); b != nullptr) {
      const auto* l = as<IntConst>(b->lhs());
      const auto* rr = as<IntConst>(b->rhs());
      if (l != nullptr && rr != nullptr && b->op() == BinOp::kAdd)
        return ival(l->value() + rr->value());
    }
    return nullptr;
  });
  EXPECT_EQ(r->to_string(), "2");
}

TEST(Visit, SubstituteVarInStmts) {
  StmtList l = substitute_var(sample_nest(), "l", *add(var("l"), ival(4)));
  bool found = false;
  for_each_expr(l, [&](const Expr& e) {
    if (const auto* a = as<ArrayRef>(e))
      found |= a->index().to_string() == "(l + 4)";
  });
  EXPECT_TRUE(found);
}

TEST(Visit, SubstituteDoesNotTouchArrayBases) {
  // Substituting variable "A" must not rename the array base A[...].
  StmtList l;
  l.push_back(assign(var("t"), arr("A", var("i"))));
  StmtList r = substitute_var(l, "A", *var("B"));
  const auto& a = *as<Assign>(*r[0]);
  EXPECT_EQ(as<ArrayRef>(a.rhs())->base(), "A");
}

TEST(Visit, RewritePreservesTemplateTags) {
  StmtList l;
  l.push_back(assign(var("t"), arr("A", var("i"))));
  l[0]->set_template_tag("mmCOMP", 9);
  StmtList r = substitute_var(l, "i", *ival(0));
  EXPECT_EQ(r[0]->template_tag(), "mmCOMP");
  EXPECT_EQ(r[0]->region_id(), 9);
}

TEST(Visit, RewriteHandlesPrefetchAndBounds) {
  StmtList l;
  l.push_back(prefetch("A", var("i")));
  l.push_back(forloop("j", var("i"), add(var("i"), ival(8)), 1, {}));
  StmtList r = substitute_var(l, "i", *ival(16));
  EXPECT_EQ(as<Prefetch>(*r[0])->index().to_string(), "16");
  EXPECT_EQ(as<ForStmt>(*r[1])->lower().to_string(), "16");
  EXPECT_EQ(as<ForStmt>(*r[1])->upper().to_string(), "(16 + 8)");
}

}  // namespace
}  // namespace augem::ir
