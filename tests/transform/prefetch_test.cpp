#include "transform/prefetch.hpp"

#include <gtest/gtest.h>

#include "frontend/kernels.hpp"
#include "ir/visit.hpp"
#include "transform/scalarrep.hpp"
#include "transform/strength.hpp"
#include "transform/unroll.hpp"
#include "../common/oracle.hpp"

namespace augem::transform {
namespace {

using namespace augem::ir;
using frontend::BLayout;

Kernel tiled_gemm() {
  Kernel k = frontend::make_gemm_kernel();
  unroll_and_jam(k, "j", 2, true);
  unroll_and_jam(k, "i", 2, true);
  strength_reduce(k);
  scalar_replace(k);
  return k;
}

int count_prefetches(const StmtList& body) {
  int n = 0;
  for_each_stmt(body, [&](const Stmt& s) {
    if (s.kind() == StmtKind::kPrefetch) ++n;
  });
  return n;
}

TEST(Prefetch, DisabledIsNoop) {
  Kernel k = tiled_gemm();
  Kernel orig = k.clone();
  PrefetchConfig cfg;
  cfg.enabled = false;
  insert_prefetch(k, cfg);
  EXPECT_TRUE(stmts_equal(k.body(), orig.body()));
}

TEST(Prefetch, GemmGetsStreamAndStorePrefetches) {
  Kernel k = tiled_gemm();
  insert_prefetch(k, {});
  // Streams: ptr_A + ptr_B in the l-loop. Stores: ptr_C0, ptr_C1 before it.
  // That is >= 4 prefetches, echoing the "three prefetching instructions"
  // of the paper's 2-cursor Fig. 13 (we track C with two cursors).
  EXPECT_GE(count_prefetches(k.body()), 4);
}

TEST(Prefetch, StorePrefetchSitsBeforeInnerLoop) {
  Kernel k = tiled_gemm();
  insert_prefetch(k, {});
  // In the i-loop body, prefetches of the C cursors must precede the l loop.
  const ForStmt* i_loop = nullptr;
  for_each_stmt(k.body(), [&](const Stmt& s) {
    if (const auto* f = as<ForStmt>(s)) {
      if (f->var() == "i") i_loop = f;
    }
  });
  ASSERT_NE(i_loop, nullptr);
  bool seen_l = false;
  int c_prefetch_before_l = 0;
  for (const StmtPtr& s : i_loop->body()) {
    if (s->kind() == StmtKind::kFor) seen_l = true;
    if (const auto* p = as<Prefetch>(*s)) {
      if (!seen_l && p->base().rfind("ptr_C", 0) == 0) ++c_prefetch_before_l;
    }
  }
  EXPECT_EQ(c_prefetch_before_l, 2);
}

TEST(Prefetch, StreamPrefetchUsesDistance) {
  Kernel k = tiled_gemm();
  PrefetchConfig cfg;
  cfg.distance = 24;
  insert_prefetch(k, cfg);
  bool found = false;
  for_each_stmt(k.body(), [&](const Stmt& s) {
    if (const auto* p = as<Prefetch>(s)) {
      if (const auto* c = as<IntConst>(p->index())) found |= (c->value() == 24);
    }
  });
  EXPECT_TRUE(found);
}

TEST(Prefetch, SemanticsUnchanged) {
  Kernel k = tiled_gemm();
  insert_prefetch(k, {});
  augem::testing::check_gemm_kernel_semantics(k, BLayout::kRowPanel, 4, 4, 6, 7);

  Kernel ka = frontend::make_axpy_kernel();
  unroll(ka, "i", 4);
  strength_reduce(ka);
  scalar_replace(ka);
  insert_prefetch(ka, {});
  augem::testing::check_axpy_kernel_semantics(ka, 21);
}

}  // namespace
}  // namespace augem::transform
