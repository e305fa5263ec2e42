#include "runtime/codecache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace augem::runtime {
namespace {

/// Keys whose cpu field distinguishes them.
KernelKey key_named(const std::string& name) {
  KernelKey key;
  key.cpu = name;
  return key;
}

/// A builder that fabricates a CachedKernel without touching the JIT: the
/// cache only moves shared_ptrs around, it never calls into the module.
CodeCache::Builder fake_builder(const std::string& name,
                                std::atomic<int>* build_count = nullptr) {
  return [name, build_count] {
    if (build_count != nullptr) build_count->fetch_add(1);
    auto kernel = std::make_shared<CachedKernel>();
    kernel->key = key_named(name);
    kernel->symbol = name;
    return kernel;
  };
}

TEST(CodeCache, MissBuildsThenHitsServeResident) {
  CodeCache cache(/*capacity=*/4);
  std::atomic<int> builds{0};
  const auto first = cache.get_or_build(key_named("a"), fake_builder("a", &builds));
  const auto second = cache.get_or_build(key_named("a"), fake_builder("a", &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // same resident module
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CodeCache, LruEvictsLeastRecentlyUsed) {
  CodeCache cache(/*capacity=*/3);
  (void)cache.get_or_build(key_named("a"), fake_builder("a"));
  (void)cache.get_or_build(key_named("b"), fake_builder("b"));
  (void)cache.get_or_build(key_named("c"), fake_builder("c"));
  // Touch "a" so "b" becomes the coldest entry…
  (void)cache.get_or_build(key_named("a"), fake_builder("a"));
  // …then overflow: "b" must be the victim.
  (void)cache.get_or_build(key_named("d"), fake_builder("d"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
  const auto keys = cache.resident_keys();
  // Most recently used first: d, a, c — and no b anywhere.
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], key_named("d").to_string());
  EXPECT_EQ(keys[1], key_named("a").to_string());
  EXPECT_EQ(keys[2], key_named("c").to_string());
  // "b" rebuilds on next request (miss, not hit).
  std::atomic<int> rebuilds{0};
  (void)cache.get_or_build(key_named("b"), fake_builder("b", &rebuilds));
  EXPECT_EQ(rebuilds.load(), 1);
}

TEST(CodeCache, EvictedEntrySurvivesWhileHeld) {
  CodeCache cache(/*capacity=*/1);
  const auto held = cache.get_or_build(key_named("a"), fake_builder("a"));
  (void)cache.get_or_build(key_named("b"), fake_builder("b"));  // evicts "a"
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The caller's shared_ptr keeps the artifact alive past eviction.
  EXPECT_EQ(held->symbol, "a");
}

TEST(CodeCache, LookupPeeksWithoutBuilding) {
  CodeCache cache(/*capacity=*/4);
  EXPECT_EQ(cache.lookup(key_named("a")), nullptr);
  (void)cache.get_or_build(key_named("a"), fake_builder("a"));
  const auto found = cache.lookup(key_named("a"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->symbol, "a");
}

TEST(CodeCache, ConcurrentSameKeyBuildsExactlyOnce) {
  // The dedup contract the dispatcher relies on: N threads racing on one
  // cold key perform one build and all receive the same module.
  CodeCache cache(/*capacity=*/8);
  std::atomic<int> builds{0};
  const CodeCache::Builder slow = [&builds] {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto kernel = std::make_shared<CachedKernel>();
    kernel->key = key_named("hot");
    kernel->symbol = "hot";
    return kernel;
  };
  constexpr int kThreads = 8;
  std::vector<CodeCache::KernelPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { results[t] = cache.get_or_build(key_named("hot"), slow); });
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(results[t].get(), results[0].get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CodeCache, ConcurrentDistinctKeysAllResolve) {
  CodeCache cache(/*capacity=*/64);
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::string name = "k" + std::to_string(t);
      const auto kernel =
          cache.get_or_build(key_named(name), fake_builder(name, &builds));
      EXPECT_EQ(kernel->symbol, name);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), kThreads);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads));
}

TEST(CodeCache, FailedBuildPropagatesAndRetries) {
  CodeCache cache(/*capacity=*/4);
  int attempts = 0;
  const CodeCache::Builder flaky = [&attempts]() -> CodeCache::KernelPtr {
    if (++attempts == 1) throw std::runtime_error("assembler unavailable");
    auto kernel = std::make_shared<CachedKernel>();
    kernel->key = key_named("a");
    kernel->symbol = "a";
    return kernel;
  };
  EXPECT_THROW((void)cache.get_or_build(key_named("a"), flaky),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // the failed entry must not linger
  const auto kernel = cache.get_or_build(key_named("a"), flaky);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(kernel->symbol, "a");
  EXPECT_EQ(cache.size(), 1u);
}

// Run under ThreadSanitizer (cmake -DAUGEM_SANITIZE=thread) this is the
// regression test for the eviction/resolve race: a capacity-1 cache where
// every insert evicts, one thread churning builds while others resolve and
// *use* their kernels through the returned shared_ptr. An eviction that
// unmapped a held module would be a use-after-free here; the contract is
// that eviction only drops the cache's reference.
TEST(CodeCache, EvictionRacingResolveNeverInvalidatesHeldKernels) {
  CodeCache cache(/*capacity=*/1);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string name = "churn" + std::to_string(i++ % 8);
      const auto k = cache.get_or_build(key_named(name), fake_builder(name));
      if (k->symbol != name) bad.fetch_add(1);  // and "hot" is evicted
    }
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int iter = 0; iter < 2000; ++iter) {
        const auto held =
            cache.get_or_build(key_named("hot"), fake_builder("hot"));
        // Touch the kernel *after* the churn thread has had every chance
        // to evict it from the cache.
        if (held->symbol != "hot" || held->key.cpu != "hot") bad.fetch_add(1);
      }
    });
  for (auto& th : readers) th.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(bad.load(), 0);
  // Sanity: the capacity-1 cache really was thrashing.
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(CodeCache, ClearEmptiesEveryShard)  {
  CodeCache cache(/*capacity=*/16);
  for (int i = 0; i < 6; ++i) {
    const std::string name = "k" + std::to_string(i);
    (void)cache.get_or_build(key_named(name), fake_builder(name));
  }
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.resident_keys().empty());
}

}  // namespace
}  // namespace augem::runtime
