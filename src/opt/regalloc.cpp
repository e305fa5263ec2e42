#include "opt/regalloc.hpp"

#include <algorithm>

namespace augem::opt {

VrAllocator::VrAllocator(std::vector<std::string> affinities,
                         RegAllocPolicy policy, std::vector<Vr> reserved)
    : policy_(policy) {
  if (policy_ == RegAllocPolicy::kSinglePool) affinities.clear();
  affinity_names_ = std::move(affinities);
  affinity_names_.emplace_back("");  // the pure-temporary pool, always last

  const int queues = static_cast<int>(affinity_names_.size());
  queues_.resize(queues);
  home_queue_.assign(kNumVrs, queues - 1);
  busy_.assign(kNumVrs, false);

  for (Vr r : reserved) busy_[index_of(r)] = true;

  // Distribute free registers round-robin across the queues so each array
  // gets ~R/m dedicated registers (paper §3.1), temps taking the rest.
  int q = 0;
  for (int i = 0; i < kNumVrs; ++i) {
    if (busy_[i]) continue;
    home_queue_[i] = q;
    queues_[q].push_back(vr_at(i));
    q = (q + 1) % queues;
  }
  // Queues are consumed from the front in ascending register order.
  for (auto& fifo : queues_) std::sort(fifo.begin(), fifo.end());
}

int VrAllocator::queue_of(const std::string& affinity) const {
  for (std::size_t i = 0; i < affinity_names_.size(); ++i)
    if (affinity_names_[i] == affinity) return static_cast<int>(i);
  return static_cast<int>(affinity_names_.size()) - 1;  // temp pool
}

Vr VrAllocator::alloc(const std::string& affinity) {
  int q = queue_of(affinity);
  if (queues_[q].empty()) {
    // Steal from the fullest queue to keep arrays separated for as long
    // as possible.
    int best = -1;
    std::size_t best_size = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (queues_[i].size() > best_size) {
        best_size = queues_[i].size();
        best = static_cast<int>(i);
      }
    }
    AUGEM_REFUSE_UNLESS(best >= 0, Refusal::Stage::kVectorRegisters,
                        "out of vector registers (affinity '" << affinity
                                                              << "')");
    q = best;
  }
  const Vr r = queues_[q].front();
  queues_[q].erase(queues_[q].begin());
  busy_[index_of(r)] = true;
  return r;
}

void VrAllocator::release(Vr v) {
  const int i = index_of(v);
  AUGEM_CHECK(busy_[i], "double release of " << vr_name(v, 2));
  busy_[i] = false;
  auto& fifo = queues_[home_queue_[i]];
  fifo.insert(std::lower_bound(fifo.begin(), fifo.end(), v), v);
}

int VrAllocator::free_count() const {
  int n = 0;
  for (const auto& fifo : queues_) n += static_cast<int>(fifo.size());
  return n;
}

bool VrAllocator::in_use(Vr v) const { return busy_[index_of(v)]; }

Vr RegTable::lookup(const std::string& name) const {
  const auto it = table_.find(name);
  AUGEM_CHECK(it != table_.end(), "no register bound to '" << name << "'");
  return it->second;
}

void RegTable::bind(const std::string& name, Vr v) {
  AUGEM_CHECK(table_.count(name) == 0,
              "'" << name << "' is already bound to a register");
  table_[name] = v;
}

Vr RegTable::unbind(const std::string& name) {
  const auto it = table_.find(name);
  AUGEM_CHECK(it != table_.end(), "unbinding unbound '" << name << "'");
  const Vr v = it->second;
  table_.erase(it);
  return v;
}

}  // namespace augem::opt
