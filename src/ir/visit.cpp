#include "ir/visit.hpp"

#include "support/error.hpp"

namespace augem::ir {

void for_each_stmt(const StmtList& stmts,
                   const std::function<void(const Stmt&)>& fn) {
  for (const StmtPtr& s : stmts) {
    fn(*s);
    if (const auto* loop = as<ForStmt>(*s)) for_each_stmt(loop->body(), fn);
  }
}

namespace {

void visit_expr_tree(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  switch (e.kind()) {
    case ExprKind::kArrayRef:
      visit_expr_tree(as<ArrayRef>(e)->index(), fn);
      break;
    case ExprKind::kBinary: {
      const auto* b = as<Binary>(e);
      visit_expr_tree(b->lhs(), fn);
      visit_expr_tree(b->rhs(), fn);
      break;
    }
    default:
      break;
  }
}

}  // namespace

void for_each_expr(const StmtList& stmts,
                   const std::function<void(const Expr&)>& fn) {
  for_each_stmt(stmts, [&](const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kAssign: {
        const auto& a = *as<Assign>(s);
        visit_expr_tree(a.lhs(), fn);
        visit_expr_tree(a.rhs(), fn);
        break;
      }
      case StmtKind::kFor: {
        const auto& f = *as<ForStmt>(s);
        visit_expr_tree(f.lower(), fn);
        visit_expr_tree(f.upper(), fn);
        break;
      }
      case StmtKind::kPrefetch:
        visit_expr_tree(as<Prefetch>(s)->index(), fn);
        break;
    }
  });
}

ExprPtr rewrite_expr(const Expr& e,
                     const std::function<ExprPtr(const Expr&)>& fn) {
  ExprPtr rebuilt;
  switch (e.kind()) {
    case ExprKind::kIntConst:
    case ExprKind::kFloatConst:
    case ExprKind::kVarRef:
      rebuilt = e.clone();
      break;
    case ExprKind::kArrayRef: {
      const auto* a = as<ArrayRef>(e);
      rebuilt = arr(a->base(), rewrite_expr(a->index(), fn));
      break;
    }
    case ExprKind::kBinary: {
      const auto* b = as<Binary>(e);
      rebuilt = bin(b->op(), rewrite_expr(b->lhs(), fn),
                    rewrite_expr(b->rhs(), fn));
      break;
    }
  }
  ExprPtr replaced = fn(*rebuilt);
  return replaced ? std::move(replaced) : std::move(rebuilt);
}

StmtList rewrite_stmts(const StmtList& stmts,
                       const std::function<ExprPtr(const Expr&)>& fn) {
  StmtList out;
  out.reserve(stmts.size());
  for (const StmtPtr& s : stmts) {
    StmtPtr rebuilt;
    switch (s->kind()) {
      case StmtKind::kAssign: {
        const auto& a = *as<Assign>(*s);
        rebuilt = assign(rewrite_expr(a.lhs(), fn), rewrite_expr(a.rhs(), fn));
        break;
      }
      case StmtKind::kFor: {
        const auto& f = *as<ForStmt>(*s);
        rebuilt = forloop(f.var(), rewrite_expr(f.lower(), fn),
                          rewrite_expr(f.upper(), fn), f.step(),
                          rewrite_stmts(f.body(), fn));
        break;
      }
      case StmtKind::kPrefetch: {
        const auto& p = *as<Prefetch>(*s);
        rebuilt = prefetch(p.base(), rewrite_expr(p.index(), fn), p.locality());
        break;
      }
    }
    AUGEM_CHECK(rebuilt != nullptr, "unhandled statement kind");
    rebuilt->set_template_tag(s->template_tag(), s->region_id());
    out.push_back(std::move(rebuilt));
  }
  return out;
}

ExprPtr substitute_var(const Expr& e, const std::string& name,
                       const Expr& replacement) {
  return rewrite_expr(e, [&](const Expr& node) -> ExprPtr {
    if (const auto* v = as<VarRef>(node); v != nullptr && v->name() == name)
      return replacement.clone();
    return nullptr;
  });
}

StmtList substitute_var(const StmtList& stmts, const std::string& name,
                        const Expr& replacement) {
  return rewrite_stmts(stmts, [&](const Expr& node) -> ExprPtr {
    if (const auto* v = as<VarRef>(node); v != nullptr && v->name() == name)
      return replacement.clone();
    return nullptr;
  });
}

}  // namespace augem::ir
