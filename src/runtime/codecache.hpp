#pragma once
// In-memory JIT code cache (docs/runtime.md).
//
// Resolving a kernel costs a full generate → verify → assemble → dlopen
// cycle (tens of milliseconds); a BLAS entry point must pay it at most
// once per key per process. This cache is a sharded map from KernelKey to
// the compiled artifact:
//
//  * one mutex per shard, so concurrent GemmContext threads resolving
//    *different* kernels never contend;
//  * per-key build deduplication — the first thread to miss installs a
//    shared_future and builds outside the shard lock, every concurrent
//    requester of the same key waits on that future, so exactly one
//    assembly happens per key no matter the thread count;
//  * bounded with LRU eviction. Evicted entries stay alive for as long as
//    callers hold the shared_ptr (the CompiledModule's dlopen handle is
//    reference-counted through it), so eviction can never unmap running
//    code;
//  * hit/miss/eviction counters for the dispatch benchmarks and tests.

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/jit.hpp"
#include "runtime/key.hpp"
#include "runtime/tunedb.hpp"

namespace augem::runtime {

/// A resolved, callable kernel: the loaded module plus its entry symbol
/// and the metadata the drivers need (the GEMM register tile). Immutable
/// after construction; shared freely across threads.
struct CachedKernel {
  KernelKey key;
  TunedVariant variant;
  int mr = 0;  ///< GEMM register tile rows (0 for Level-1/2 kernels)
  int nr = 0;  ///< GEMM register tile columns
  std::string symbol;
  std::shared_ptr<jit::CompiledModule> module;
  void* entry = nullptr;

  /// Typed entry-point access, e.g. `k.fn<KernelSet::GemmFn>()`.
  template <typename Fn>
  Fn* fn() const {
    return reinterpret_cast<Fn*>(entry);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class CodeCache {
 public:
  using KernelPtr = std::shared_ptr<const CachedKernel>;
  using Builder = std::function<KernelPtr()>;

  /// `capacity` bounds the number of resident modules across all shards;
  /// `shards` fixes the lock granularity (tests use 1 shard to make the
  /// global LRU order deterministic).
  explicit CodeCache(std::size_t capacity = 32, std::size_t shards = 8);

  /// Returns the cached kernel for `key`, building it with `builder` on a
  /// miss. Concurrent callers with the same key share one build; a builder
  /// that throws propagates to every waiter and leaves the key absent so a
  /// later call can retry.
  KernelPtr get_or_build(const KernelKey& key, const Builder& builder);

  /// Peeks without building or counting a miss. Touches LRU on hit.
  KernelPtr lookup(const KernelKey& key);

  CacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

  /// Keys currently resident, most recently used first within each shard
  /// (exposed for tests and the CLI).
  std::vector<std::string> resident_keys() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// LRU list, most recent at front; the map stores iterators into it.
    std::list<std::string> lru;
    struct Entry {
      std::shared_future<KernelPtr> future;
      std::list<std::string>::iterator lru_pos;
      std::uint64_t id = 0;  ///< failure cleanup erases only its own entry
    };
    std::unordered_map<std::string, Entry> map;
    CacheStats stats;
  };

  Shard& shard_for(const std::string& key);
  const Shard& shard_for(const std::string& key) const;
  std::size_t shard_capacity() const;

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace augem::runtime
