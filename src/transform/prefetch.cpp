#include "transform/prefetch.hpp"

#include <set>

#include "ir/visit.hpp"

namespace augem::transform {

using namespace augem::ir;

namespace {

/// __builtin_prefetch locality hint of every inserted prefetch: 3 keeps the
/// line in all cache levels.
constexpr int kLocality = 3;

bool is_innermost(const ForStmt& loop) {
  for (const StmtPtr& s : loop.body())
    if (s->kind() == StmtKind::kFor) return false;
  return true;
}

/// Bases loaded (read through ArrayRef on a RHS) in a statement list.
std::set<std::string> loaded_bases(const StmtList& body) {
  std::set<std::string> bases;
  for_each_stmt(body, [&](const Stmt& s) {
    if (const auto* a = as<Assign>(s)) {
      // Walk only the RHS: store targets are not streams.
      std::function<void(const Expr&)> walk = [&](const Expr& e) {
        if (const auto* ref = as<ArrayRef>(e)) {
          bases.insert(ref->base());
          walk(ref->index());
        } else if (const auto* b = as<Binary>(e)) {
          walk(b->lhs());
          walk(b->rhs());
        }
      };
      walk(a->rhs());
    }
  });
  return bases;
}

/// Bases stored to in a statement list (not descending into nested loops —
/// those handle their own prefetching).
std::set<std::string> stored_bases_shallow(const StmtList& body) {
  std::set<std::string> bases;
  for (const StmtPtr& s : body) {
    if (const auto* a = as<Assign>(*s))
      if (const auto* ref = as<ArrayRef>(a->lhs())) bases.insert(ref->base());
  }
  return bases;
}

void process(StmtList& stmts, const PrefetchConfig& cfg) {
  // First: prefetch store targets of this body before each innermost loop.
  const std::set<std::string> stores = stored_bases_shallow(stmts);
  if (!stores.empty()) {
    StmtList out;
    for (StmtPtr& s : stmts) {
      const auto* loop = as<ForStmt>(*s);
      if (loop != nullptr && is_innermost(*loop)) {
        for (const std::string& base : stores)
          out.push_back(prefetch(base, ival(0), kLocality));
      }
      out.push_back(std::move(s));
    }
    stmts = std::move(out);
  }

  for (StmtPtr& s : stmts) {
    auto* loop = as_mutable<ForStmt>(*s);
    if (loop == nullptr) continue;
    if (!is_innermost(*loop)) {
      process(loop->mutable_body(), cfg);
      continue;
    }
    // Innermost loop: prefetch the streamed arrays `distance` ahead.
    StmtList& body = loop->mutable_body();
    StmtList out;
    for (const std::string& base : loaded_bases(body))
      out.push_back(prefetch(base, ival(cfg.distance), kLocality));
    for (StmtPtr& b : body) out.push_back(std::move(b));
    body = std::move(out);
  }
}

}  // namespace

void insert_prefetch(ir::Kernel& kernel, const PrefetchConfig& config) {
  if (!config.enabled) return;
  process(kernel.mutable_body(), config);
}

}  // namespace augem::transform
