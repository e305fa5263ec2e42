#include "runtime/codecache.hpp"

#include <atomic>

#include "support/error.hpp"

namespace augem::runtime {

namespace {

/// Distinguishes an entry from its same-key successor after eviction, so
/// failure cleanup never erases an entry a later builder installed.
std::uint64_t next_entry_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CodeCache::CodeCache(std::size_t capacity, std::size_t shards)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  const std::size_t n = std::max<std::size_t>(shards, 1);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

CodeCache::Shard& CodeCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const CodeCache::Shard& CodeCache::shard_for(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::size_t CodeCache::shard_capacity() const {
  // Per-shard bound so a shard never holds the global capacity alone; at
  // least one entry per shard so every key stays cachable.
  return std::max<std::size_t>(1, capacity_ / shards_.size());
}

CodeCache::KernelPtr CodeCache::get_or_build(const KernelKey& key,
                                             const Builder& builder) {
  const std::string k = key.to_string();
  Shard& shard = shard_for(k);

  std::shared_future<KernelPtr> future;
  std::promise<KernelPtr> promise;
  std::uint64_t my_id = 0;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(k);
    if (it != shard.map.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      future = it->second.future;
    } else {
      ++shard.stats.misses;
      build_here = true;
      future = promise.get_future().share();
      shard.lru.push_front(k);
      Shard::Entry entry;
      entry.future = future;
      entry.lru_pos = shard.lru.begin();
      entry.id = my_id = next_entry_id();
      shard.map.emplace(k, std::move(entry));
      while (shard.map.size() > shard_capacity()) {
        const std::string victim = shard.lru.back();
        if (victim == k) break;  // never evict the entry being installed
        shard.lru.pop_back();
        shard.map.erase(victim);
        ++shard.stats.evictions;
      }
    }
  }

  if (build_here) {
    // The build runs outside the shard lock: other keys in this shard stay
    // resolvable, and concurrent requesters of *this* key block on the
    // future instead of redundantly assembling.
    try {
      KernelPtr built = builder();
      AUGEM_CHECK(built != nullptr, "code-cache builder returned null");
      promise.set_value(std::move(built));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.map.find(k);
      if (it != shard.map.end() && it->second.id == my_id) {
        shard.lru.erase(it->second.lru_pos);
        shard.map.erase(it);
      }
      // Fall through: future.get() below rethrows for this caller too.
    }
  }
  return future.get();
}

CodeCache::KernelPtr CodeCache::lookup(const KernelKey& key) {
  const std::string k = key.to_string();
  Shard& shard = shard_for(k);
  std::shared_future<KernelPtr> future;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(k);
    if (it == shard.map.end()) return nullptr;
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    future = it->second.future;
  }
  return future.get();
}

CacheStats CodeCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

std::size_t CodeCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->map.size();
  }
  return n;
}

void CodeCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
    shard->lru.clear();
  }
}

std::vector<std::string> CodeCache::resident_keys() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    keys.insert(keys.end(), shard->lru.begin(), shard->lru.end());
  }
  return keys;
}

}  // namespace augem::runtime
