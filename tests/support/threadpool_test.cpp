#include "support/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "support/error.hpp"

namespace augem {
namespace {

TEST(ThreadPool, RunsEveryParticipantExactlyOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossSubmits) {
  // The same workers must serve many batches: no one-shot state, no leaked
  // epochs. 100 submits each add tid-sums into a shared counter.
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int batch = 0; batch < 100; ++batch)
    pool.run([&](int tid) { total += tid + 1; });
  EXPECT_EQ(total.load(), 100 * (1 + 2 + 3));
}

TEST(ThreadPool, SingleThreadDegenerateRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int calls = 0;
  pool.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([](int tid) {
                 if (tid == 2) throw Error("boom");
               }),
               Error);
  // The pool stays usable after a failed batch.
  std::atomic<int> count{0};
  pool.run([&](int) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool pool(0), Error);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  // Note: ThreadPool::global() latches its size at first use; this checks
  // the resolver, not the global pool.
  setenv("AUGEM_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_num_threads(), 3);
  setenv("AUGEM_NUM_THREADS", "bogus", 1);
  EXPECT_GE(ThreadPool::default_num_threads(), 1);
  unsetenv("AUGEM_NUM_THREADS");
  EXPECT_GE(ThreadPool::default_num_threads(), 1);
}

}  // namespace
}  // namespace augem
