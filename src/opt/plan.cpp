#include "opt/plan.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace augem::opt {

using match::MatchResult;
using match::Region;
using match::TemplateKind;
using match::UnrolledShape;

const char* vec_strategy_name(VecStrategy s) {
  switch (s) {
    case VecStrategy::kVdup: return "vdup";
    case VecStrategy::kShuf: return "shuf";
    case VecStrategy::kScalar: return "scalar";
  }
  return "?";
}

std::optional<VecStrategy> parse_vec_strategy(std::string_view name) {
  for (VecStrategy s :
       {VecStrategy::kVdup, VecStrategy::kShuf, VecStrategy::kScalar})
    if (name == vec_strategy_name(s)) return s;
  return std::nullopt;
}

namespace {

/// Largest SIMD width in {isa width, 2} dividing `n`; 1 when none.
int pick_width(Isa isa, std::int64_t n) {
  const int full = isa_vector_doubles(isa);
  if (n % full == 0) return full;
  if (full > 2 && n % 2 == 0) return 2;
  return 1;
}

class Planner {
 public:
  Planner(const MatchResult& match, const OptConfig& config)
      : match_(match), config_(config) {}

  VecPlan run() {
    for (const Region& region : match_.regions) plan_region(region);
    plan_stores();
    check_budget();
    return std::move(plan_);
  }

 private:
  void plan_region(const Region& region) {
    switch (region.kind) {
      case TemplateKind::kMmComp: plan_mm(region); break;
      case TemplateKind::kMvComp: plan_mv(region); break;
      case TemplateKind::kMmStore: break;  // planned after all COMP regions
      case TemplateKind::kAccInit: break;  // follows the accumulator plans
      case TemplateKind::kSvScal: plan_sv(region); break;
      case TemplateKind::kMmEpiStore: break;  // planned with the stores
    }
  }

  void plan_mm(const Region& region) {
    RegionPlan rp;
    if (config_.strategy == VecStrategy::kScalar ||
        region.shape == UnrolledShape::kIrregular) {
      plan_.regions[region.id] = rp;
      return;
    }
    if (region.shape == UnrolledShape::kPaired) {
      plan_mm_paired(region, rp);
      return;
    }
    plan_mm_outer(region, rp);
  }

  void plan_mm_paired(const Region& region, RegionPlan rp) {
    const auto count = static_cast<std::int64_t>(region.mm.size());
    const int w = pick_width(config_.isa, count);
    if (w == 1) {
      plan_.regions[region.id] = rp;
      return;
    }
    rp.width = w;
    plan_.regions[region.id] = rp;

    const std::string& res = region.mm[0].res;
    const int partials = static_cast<int>(count) / w;
    auto it = plan_.partials_of.find(res);
    if (it == plan_.partials_of.end()) {
      std::vector<int> ids;
      for (int p = 0; p < partials; ++p) {
        AccGroup g;
        g.width = w;
        g.owner = res;
        ids.push_back(static_cast<int>(plan_.groups.size()));
        plan_.groups.push_back(std::move(g));
      }
      plan_.partials_of[res] = std::move(ids);
      plan_.reduce_scalars.insert(res);
    } else {
      // A second region over the same shared accumulator (e.g. another
      // unrolled copy) reuses the partials; it may use fewer, never more.
      AUGEM_CHECK(static_cast<int>(it->second.size()) >= partials,
                  "inconsistent partial-sum expansion for '" << res << "'");
      AUGEM_CHECK(plan_.groups[it->second[0]].width == w,
                  "inconsistent width for shared accumulator '" << res << "'");
    }
  }

  void plan_mm_outer(const Region& region, RegionPlan rp) {
    const int w = pick_width(config_.isa, region.n1);
    if (w == 1) {
      plan_.regions[region.id] = rp;
      return;
    }
    rp.width = w;
    const bool shuf_legal = region.b_contiguous && region.n1 == w &&
                            region.n2 == w;
    rp.use_shuf = config_.strategy == VecStrategy::kShuf;
    if (rp.use_shuf)
      AUGEM_REFUSE_UNLESS(shuf_legal, Refusal::Stage::kPlanner,
                          "Shuf strategy requires an n×n tile (n = SIMD "
                          "width) with contiguous B elements; region #"
                              << region.id << " has n1=" << region.n1
                              << " n2=" << region.n2
                              << " b_contiguous=" << region.b_contiguous);
    plan_.regions[region.id] = rp;

    // Index accumulators by (ia, jj): ia = A offset rank, jj = B element
    // rank (deterministic: sorted by (array, offset)).
    const auto [res_at, n1, n2] = index_accumulators(region);
    if (rp.use_shuf) {
      // acc_r lane i holds res(i, (i + r) mod w).
      for (int r = 0; r < w; ++r) {
        std::vector<std::string> lanes(w);
        for (int i = 0; i < w; ++i) lanes[i] = res_at.at({i, (i + r) % w});
        register_group(w, std::move(lanes));
      }
    } else {
      // Vdup: group (jj, row-block rb) holds res(rb*w + lane, jj).
      for (int jj = 0; jj < n2; ++jj) {
        for (int rb = 0; rb < n1 / w; ++rb) {
          std::vector<std::string> lanes(w);
          for (int lane = 0; lane < w; ++lane)
            lanes[lane] = res_at.at({rb * w + lane, jj});
          register_group(w, std::move(lanes));
        }
      }
    }
  }

  /// Maps (A-offset rank, B-element rank) → accumulator name.
  std::tuple<std::map<std::pair<int, int>, std::string>, int, int>
  index_accumulators(const Region& region) {
    std::vector<std::int64_t> a_offs;
    std::vector<std::pair<std::string, std::int64_t>> b_elems;
    for (const match::MmComp& m : region.mm) {
      a_offs.push_back(m.off_a);
      b_elems.push_back({m.arr_b, m.off_b});
    }
    std::sort(a_offs.begin(), a_offs.end());
    a_offs.erase(std::unique(a_offs.begin(), a_offs.end()), a_offs.end());
    std::sort(b_elems.begin(), b_elems.end());
    b_elems.erase(std::unique(b_elems.begin(), b_elems.end()), b_elems.end());

    std::map<std::pair<int, int>, std::string> res_at;
    for (const match::MmComp& m : region.mm) {
      const int ia = static_cast<int>(
          std::lower_bound(a_offs.begin(), a_offs.end(), m.off_a) -
          a_offs.begin());
      const int jj = static_cast<int>(
          std::lower_bound(b_elems.begin(), b_elems.end(),
                           std::make_pair(m.arr_b, m.off_b)) -
          b_elems.begin());
      res_at[{ia, jj}] = m.res;
    }
    return {std::move(res_at), static_cast<int>(a_offs.size()),
            static_cast<int>(b_elems.size())};
  }

  /// Registers a lane group, reusing an identical existing group (regions
  /// sharing accumulators — ku-unrolled copies — must agree).
  void register_group(int width, std::vector<std::string> lanes) {
    // Existing identical group?
    for (std::size_t g = 0; g < plan_.groups.size(); ++g) {
      if (plan_.groups[g].lanes == lanes) {
        AUGEM_CHECK(plan_.groups[g].width == width,
                    "conflicting widths for one accumulator group");
        return;
      }
    }
    for (const std::string& name : lanes)
      AUGEM_CHECK(plan_.lane_of.count(name) == 0,
                  "accumulator '" << name
                                  << "' assigned to two different lane groups");
    const int id = static_cast<int>(plan_.groups.size());
    AccGroup g;
    g.width = width;
    g.lanes = lanes;
    plan_.groups.push_back(std::move(g));
    for (int lane = 0; lane < width; ++lane)
      plan_.lane_of[lanes[lane]] = {id, lane};
  }

  void plan_mv(const Region& region) {
    RegionPlan rp;
    if (config_.strategy == VecStrategy::kScalar ||
        region.shape != UnrolledShape::kPaired) {
      plan_.regions[region.id] = rp;
      if (!region.mv.empty() && config_.strategy != VecStrategy::kScalar &&
          region.shape == UnrolledShape::kIrregular && region.mv.size() == 1) {
        // Singleton remainder instances run scalar; no broadcast needed.
      }
      return;
    }
    const int w =
        pick_width(config_.isa, static_cast<std::int64_t>(region.mv.size()));
    rp.width = w;
    plan_.regions[region.id] = rp;
    if (w > 1) plan_.broadcast_scals.insert(region.mv[0].scal);
  }

  void plan_sv(const Region& region) {
    RegionPlan rp;
    if (config_.strategy == VecStrategy::kScalar ||
        region.shape != UnrolledShape::kPaired) {
      plan_.regions[region.id] = rp;
      return;
    }
    const int w =
        pick_width(config_.isa, static_cast<std::int64_t>(region.sv.size()));
    rp.width = w;
    plan_.regions[region.id] = rp;
    if (w > 1) plan_.broadcast_scals.insert(region.sv[0].scal);
  }

  /// Store regions inherit the width of their accumulators' groups.
  void plan_stores() {
    for (const Region& region : match_.regions) {
      if (region.kind != TemplateKind::kMmStore) continue;
      RegionPlan rp;
      // Vectorizable when every res is lane-mapped and the run length is a
      // multiple of the group width with lane-aligned offsets.
      bool ok = !region.stores.empty();
      int w = 1;
      for (const match::MmStore& st : region.stores)
        ok &= plan_.lane_of.count(st.res) > 0;
      if (ok) {
        w = plan_.groups[plan_.lane_of[region.stores[0].res].first].width;
        ok = static_cast<int>(region.stores.size()) % w == 0;
      }
      if (ok && w > 1) rp.width = w;
      plan_.regions[region.id] = rp;
    }
    plan_epi_stores();
  }

  /// Epilogue stores vectorize exactly like plain stores; a vectorized
  /// scale form additionally keeps broadcast alpha/beta registers resident.
  void plan_epi_stores() {
    for (const Region& region : match_.regions) {
      if (region.kind != TemplateKind::kMmEpiStore) continue;
      RegionPlan rp;
      bool ok = !region.epis.empty();
      int w = 1;
      for (const match::EpiStore& st : region.epis)
        ok &= plan_.lane_of.count(st.res) > 0;
      if (ok) {
        w = plan_.groups[plan_.lane_of[region.epis[0].res].first].width;
        ok = static_cast<int>(region.epis.size()) % w == 0;
      }
      if (ok && w > 1) {
        rp.width = w;
        if (region.epis[0].scale) {
          plan_.broadcast_scals.insert(region.epis[0].alpha);
          plan_.broadcast_scals.insert(region.epis[0].beta);
        }
      }
      plan_.regions[region.id] = rp;
    }
  }

  /// Rough register budget: accumulator groups + broadcasts must leave
  /// room for the streaming temporaries.
  void check_budget() {
    const int held = static_cast<int>(plan_.groups.size()) +
                     static_cast<int>(plan_.broadcast_scals.size());
    AUGEM_REFUSE_UNLESS(held <= kNumVrs - 4, Refusal::Stage::kPlanner,
                        "vector register budget exceeded: "
                            << held << " persistent registers");
  }

  const MatchResult& match_;
  const OptConfig& config_;
  VecPlan plan_;
};

}  // namespace

VecPlan plan_vectorization(const match::MatchResult& match,
                           const OptConfig& config) {
  return Planner(match, config).run();
}

}  // namespace augem::opt
