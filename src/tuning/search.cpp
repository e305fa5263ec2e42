#include "tuning/search.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace augem::tuning {

using transform::CGenParams;

const char* infeasible_reason_name(InfeasibleReason r) {
  switch (r) {
    case InfeasibleReason::kNone:
      return "none";
    case InfeasibleReason::kPlannerRejected:
      return "planner";
    case InfeasibleReason::kRegallocExhausted:
      return "regalloc";
    case InfeasibleReason::kOther:
      return "other";
  }
  return "other";
}

bool parse_infeasible_reason(const std::string& name, InfeasibleReason& out) {
  for (InfeasibleReason r :
       {InfeasibleReason::kNone, InfeasibleReason::kPlannerRejected,
        InfeasibleReason::kRegallocExhausted, InfeasibleReason::kOther})
    if (name == infeasible_reason_name(r)) {
      out = r;
      return true;
    }
  return false;
}

InfeasibleReason infeasible_reason(Refusal::Stage stage) {
  switch (stage) {
    case Refusal::Stage::kPlanner:
      return InfeasibleReason::kPlannerRejected;
    case Refusal::Stage::kVectorRegisters:
    case Refusal::Stage::kIntegerScratch:
      return InfeasibleReason::kRegallocExhausted;
  }
  return InfeasibleReason::kOther;
}

SearchOptions SearchOptions::from_env() {
  SearchOptions o;
  if (const char* s = std::getenv("AUGEM_TUNE_SYNTHETIC");
      s != nullptr && s[0] != '\0' && std::string(s) != "0")
    o.synthetic = true;
  return o;
}

SearchSpace SearchSpace::gemm(Isa isa, bool downsized) {
  const int w = isa_vector_doubles(isa);
  const std::vector<std::pair<int, int>> tiles =
      downsized ? std::vector<std::pair<int, int>>{{w, 2}, {w, w}, {2 * w, w}}
                : std::vector<std::pair<int, int>>{{w, 2},     {w, w},
                                                   {2 * w, 2}, {2 * w, w},
                                                   {2 * w, 2 * w}, {4 * w, w}};
  // With w = 2 (SSE2), (w,2) is (w,w) and (2w,2) is (2w,w): list each once.
  SearchSpace s;
  Axis tile{"tile", {}};
  for (const auto& t : tiles)
    if (std::find(s.tiles_.begin(), s.tiles_.end(), t) == s.tiles_.end()) {
      tile.values.push_back(static_cast<int>(s.tiles_.size()));
      s.tiles_.push_back(t);
    }
  if (downsized)
    s.axes_ = {tile, {"ku", {1, 4}}, {"prefetch", {0, 16}}};
  else
    s.axes_ = {tile, {"ku", {1, 2, 4, 8}}, {"prefetch", {0, 8, 16, 32, 64}}};
  return s;
}

SearchSpace SearchSpace::level1(bool downsized) {
  SearchSpace s;
  if (downsized) {
    s.axes_ = {{"unroll", {4, 8, 16}}, {"prefetch", {0, 16}}};
  } else {
    s.axes_ = {{"unroll", {1, 2, 4, 8, 16, 32, 64}},
               {"prefetch", {0, 8, 16, 32, 64}}};
  }
  return s;
}

int SearchSpace::grid_size() const {
  int n = 1;
  for (const Axis& a : axes_) n *= static_cast<int>(a.values.size());
  return n;
}

Point SearchSpace::cell(const CGenParams& params) const {
  for (const Point& p : all_points())
    if (materialize(p).to_string() == params.to_string()) return p;
  AUGEM_FAIL("the search space has no cell " << params.to_string());
}

std::vector<Point> SearchSpace::neighbors(const Point& p) const {
  AUGEM_CHECK(p.ix.size() == axes_.size(), "point/axis arity mismatch");
  std::vector<Point> out;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const int n = static_cast<int>(axes_[a].values.size());
    for (int step : {-1, +1}) {
      const int v = p.ix[a] + step;
      if (v < 0 || v >= n) continue;
      Point q = p;
      q.ix[a] = v;
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<Point> SearchSpace::all_points() const {
  std::vector<Point> out;
  Point p;
  p.ix.assign(axes_.size(), 0);
  while (true) {
    out.push_back(p);
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++p.ix[a] < static_cast<int>(axes_[a].values.size())) break;
      p.ix[a] = 0;
      if (a == 0) return out;
    }
  }
}

CGenParams SearchSpace::materialize(const Point& p) const {
  AUGEM_CHECK(p.ix.size() == axes_.size(), "point/axis arity mismatch");
  CGenParams c;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const Axis& ax = axes_[a];
    const int v = ax.values[static_cast<std::size_t>(p.ix[a])];
    if (ax.name == "tile") {
      c.mr = tiles_[static_cast<std::size_t>(v)].first;
      c.nr = tiles_[static_cast<std::size_t>(v)].second;
    } else if (ax.name == "ku") {
      c.ku = v;
    } else if (ax.name == "unroll") {
      c.unroll = v;
    } else if (ax.name == "prefetch") {
      c.prefetch.enabled = v != 0;
      if (v != 0) c.prefetch.distance = v;
    } else {
      AUGEM_FAIL("unknown search axis " << ax.name);
    }
  }
  return c;
}

std::string SearchSpace::key(const Point& p) const {
  std::ostringstream os;
  for (std::size_t a = 0; a < p.ix.size(); ++a)
    os << (a != 0 ? "/" : "") << p.ix[a];
  return os.str();
}

double SearchSpace::synthetic_score(const Point& p) const {
  // Strictly monotone increasing in every axis index with decoupled
  // weights: from any cell, stepping any axis up improves the score, so a
  // steepest-ascent climb provably reaches the last cell of the grid. The
  // weights are spread so no two cells tie.
  double score = 100.0;
  double weight = 1.0;
  for (std::size_t a = p.ix.size(); a-- > 0;) {
    score += weight * static_cast<double>(p.ix[a]);
    weight *= 10.0;
  }
  return score;
}

}  // namespace augem::tuning
