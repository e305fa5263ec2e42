#pragma once
// Statement nodes of the low-level C IR.
//
// The statement language mirrors what the paper's Optimized C Kernel
// Generator emits (Fig. 13): counted `for` loops, assignments (which after
// scalar replacement are loads, stores, or single-operator scalar
// arithmetic), and software prefetches. Statements matched by the Template
// Identifier are annotated in place via `Stmt::set_template_tag`.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace augem::ir {

enum class StmtKind : std::uint8_t {
  kAssign,
  kFor,
  kPrefetch,
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Deep-copies a statement list.
StmtList clone_stmts(const StmtList& stmts);

/// Structural equality of two statement lists (ignores template tags).
bool stmts_equal(const StmtList& a, const StmtList& b);

/// Base statement node.
class Stmt {
 public:
  virtual ~Stmt() = default;
  StmtKind kind() const { return kind_; }

  virtual StmtPtr clone() const = 0;
  virtual bool equals(const Stmt& other) const = 0;
  /// Renders C-like source, indented by `indent` double-spaces.
  virtual std::string to_string(int indent = 0) const = 0;

  /// Template annotation written by the Template Identifier ("" = untagged).
  /// Tags group *runs* of statements: all statements belonging to one
  /// identified region carry the same (tag, region_id) pair.
  const std::string& template_tag() const { return template_tag_; }
  int region_id() const { return region_id_; }
  void set_template_tag(std::string tag, int region_id) {
    template_tag_ = std::move(tag);
    region_id_ = region_id;
  }
  void clear_template_tag() {
    template_tag_.clear();
    region_id_ = -1;
  }

 protected:
  explicit Stmt(StmtKind kind) : kind_(kind) {}
  static std::string indent_str(int indent) { return std::string(2 * indent, ' '); }

 private:
  StmtKind kind_;
  std::string template_tag_;
  int region_id_ = -1;
};

/// `lhs = rhs` where lhs is a VarRef (scalar def) or ArrayRef (store).
class Assign final : public Stmt {
 public:
  static constexpr StmtKind kKind = StmtKind::kAssign;
  Assign(ExprPtr lhs, ExprPtr rhs);
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  StmtPtr clone() const override;
  bool equals(const Stmt& other) const override;
  std::string to_string(int indent) const override;

 private:
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// `for (var = lower; var < upper; var += step) body`
/// `step` is a compile-time constant: unrolling and strength reduction both
/// need to reason about it exactly.
class ForStmt final : public Stmt {
 public:
  static constexpr StmtKind kKind = StmtKind::kFor;
  ForStmt(std::string var, ExprPtr lower, ExprPtr upper, std::int64_t step,
          StmtList body);
  const std::string& var() const { return var_; }
  const Expr& lower() const { return *lower_; }
  const Expr& upper() const { return *upper_; }
  std::int64_t step() const { return step_; }
  const StmtList& body() const { return body_; }
  StmtList& mutable_body() { return body_; }

  StmtPtr clone() const override;
  bool equals(const Stmt& other) const override;
  std::string to_string(int indent) const override;

 private:
  std::string var_;
  ExprPtr lower_;
  ExprPtr upper_;
  std::int64_t step_;
  StmtList body_;
};

/// `__builtin_prefetch(&base[index], 0, locality)` — inserted by the data
/// prefetching transform (paper §2.1, Fig. 13 lines 7-8, 12).
class Prefetch final : public Stmt {
 public:
  static constexpr StmtKind kKind = StmtKind::kPrefetch;
  Prefetch(std::string base, ExprPtr index, int locality = 3);
  const std::string& base() const { return base_; }
  const Expr& index() const { return *index_; }
  int locality() const { return locality_; }

  StmtPtr clone() const override;
  bool equals(const Stmt& other) const override;
  std::string to_string(int indent) const override;

 private:
  std::string base_;
  ExprPtr index_;
  int locality_;
};

// ---- convenience constructors -------------------------------------------

inline StmtPtr assign(ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<Assign>(std::move(lhs), std::move(rhs));
}
inline StmtPtr forloop(std::string v, ExprPtr lo, ExprPtr hi, std::int64_t step,
                       StmtList body) {
  return std::make_unique<ForStmt>(std::move(v), std::move(lo), std::move(hi),
                                   step, std::move(body));
}
inline StmtPtr prefetch(std::string base, ExprPtr index, int locality = 3) {
  return std::make_unique<Prefetch>(std::move(base), std::move(index), locality);
}

/// Downcast helper: returns nullptr if `s` is not a `T`. Dispatches on the
/// kind tag (no RTTI), LLVM isa/cast style.
template <typename T>
const T* as(const Stmt& s) {
  return s.kind() == T::kKind ? static_cast<const T*>(&s) : nullptr;
}
template <typename T>
T* as_mutable(Stmt& s) {
  return s.kind() == T::kKind ? static_cast<T*>(&s) : nullptr;
}

}  // namespace augem::ir
