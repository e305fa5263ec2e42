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

CodeCache::CodeCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

CodeCache::KernelPtr CodeCache::get_or_build(const KernelKey& key,
                                             const Builder& builder) {
  const std::string k = key.to_string();

  std::shared_future<KernelPtr> future;
  std::promise<KernelPtr> promise;
  std::uint64_t my_id = 0;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(k);
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      future = it->second.future;
    } else {
      ++stats_.misses;
      build_here = true;
      future = promise.get_future().share();
      lru_.push_front(k);
      Entry entry;
      entry.future = future;
      entry.lru_pos = lru_.begin();
      entry.id = my_id = next_entry_id();
      map_.emplace(k, std::move(entry));
      while (map_.size() > capacity_) {
        const std::string victim = lru_.back();
        if (victim == k) break;  // never evict the entry being installed
        lru_.pop_back();
        map_.erase(victim);
        ++stats_.evictions;
      }
    }
  }

  if (build_here) {
    // The build runs outside the lock: other keys stay resolvable, and
    // concurrent requesters of *this* key block on the future instead of
    // redundantly assembling.
    try {
      KernelPtr built = builder();
      AUGEM_CHECK(built != nullptr, "code-cache builder returned null");
      promise.set_value(std::move(built));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = map_.find(k);
      if (it != map_.end() && it->second.id == my_id) {
        lru_.erase(it->second.lru_pos);
        map_.erase(it);
      }
      // Fall through: future.get() below rethrows for this caller too.
    }
  }
  return future.get();
}

CodeCache::KernelPtr CodeCache::lookup(const KernelKey& key) {
  const std::string k = key.to_string();
  std::shared_future<KernelPtr> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    future = it->second.future;
  }
  return future.get();
}

CacheStats CodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CodeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void CodeCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

std::vector<std::string> CodeCache::resident_keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace augem::runtime
