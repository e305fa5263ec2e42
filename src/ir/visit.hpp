#pragma once
// Traversal and rewriting utilities over the IR.
//
// Transforms are written as clone-and-rebuild passes; these helpers cover
// the shared plumbing: pre-order statement walks, bottom-up expression
// rewriting, and variable substitution.

#include <functional>

#include "ir/expr.hpp"
#include "ir/stmt.hpp"

namespace augem::ir {

/// Pre-order walk over every statement (including loop bodies).
void for_each_stmt(const StmtList& stmts,
                   const std::function<void(const Stmt&)>& fn);

/// Walk over every expression appearing in a statement list (assignment
/// sides, loop bounds, prefetch indices), including sub-expressions.
void for_each_expr(const StmtList& stmts,
                   const std::function<void(const Expr&)>& fn);

/// Bottom-up expression rewrite: `fn` is offered each node after its
/// children were rebuilt; returning nullptr keeps the (rebuilt) node.
ExprPtr rewrite_expr(const Expr& e,
                     const std::function<ExprPtr(const Expr&)>& fn);

/// Rewrites every expression in a statement list (loop bounds, assignment
/// sides, prefetch indices) with `fn` as in `rewrite_expr`.
StmtList rewrite_stmts(const StmtList& stmts,
                       const std::function<ExprPtr(const Expr&)>& fn);

/// Substitutes every `VarRef(name)` with a clone of `replacement`.
ExprPtr substitute_var(const Expr& e, const std::string& name,
                       const Expr& replacement);

/// Substitutes a variable throughout a statement list.
StmtList substitute_var(const StmtList& stmts, const std::string& name,
                        const Expr& replacement);

}  // namespace augem::ir
