#include "tuning/search.hpp"

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

InfeasibleReason classify_infeasible(const std::string& error_message) {
  // The stages are identified by their diagnostic text (src/opt/plan.cpp
  // and src/opt/regalloc.cpp); tests/tuning pins these so a reworded
  // message fails loudly instead of silently reclassifying.
  if (error_message.find("out of vector registers") != std::string::npos)
    return InfeasibleReason::kRegallocExhausted;
  if (error_message.find("vector register budget exceeded") !=
          std::string::npos ||
      error_message.find("Shuf strategy requires") != std::string::npos)
    return InfeasibleReason::kPlannerRejected;
  return InfeasibleReason::kOther;
}

SearchOptions SearchOptions::from_env() {
  SearchOptions o;
  if (const char* s = std::getenv("AUGEM_TUNE_SEED");
      s != nullptr && s[0] != '\0') {
    o.seed = std::strtoull(s, nullptr, 10);
    o.seed_from_env = true;
  }
  if (const char* s = std::getenv("AUGEM_TUNE_TRIALS");
      s != nullptr && s[0] != '\0')
    o.max_trials = std::atoi(s);
  if (const char* s = std::getenv("AUGEM_TUNE_SECONDS");
      s != nullptr && s[0] != '\0')
    o.max_seconds = std::atof(s);
  if (const char* s = std::getenv("AUGEM_TUNE_EXHAUSTIVE");
      s != nullptr && s[0] != '\0' && std::string(s) != "0")
    o.exhaustive = true;
  if (const char* s = std::getenv("AUGEM_TUNE_SYNTHETIC");
      s != nullptr && s[0] != '\0' && std::string(s) != "0")
    o.synthetic = true;
  if (const char* s = std::getenv("AUGEM_BENCH_REPS");
      s != nullptr && s[0] != '\0')
    o.fixed_reps = std::atoi(s);
  return o;
}

SearchSpace SearchSpace::gemm(Isa isa, bool downsized) {
  const int w = isa_vector_doubles(isa);
  SearchSpace s;
  s.kind_ = Kind::kGemm;
  if (downsized) {
    s.tiles_ = {{w, 2}, {w, w}, {2 * w, w}};
    s.axes_ = {{"tile", {0, 1, 2}}, {"ku", {1, 2}}, {"prefetch", {0, 16}}};
  } else {
    s.tiles_ = {{w, 2},     {w, w},      {2 * w, 2},
                {2 * w, w}, {2 * w, 2 * w}, {4 * w, w}};
    s.axes_ = {{"tile", {0, 1, 2, 3, 4, 5}},
               {"ku", {1, 2, 4, 8}},
               {"prefetch", {0, 8, 16, 32, 64}}};
  }
  return s;
}

SearchSpace SearchSpace::level1(bool downsized) {
  SearchSpace s;
  s.kind_ = Kind::kLevel1;
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

Point SearchSpace::start() const {
  // The generator-default cell: tile (w,2) / ku 1 / prefetch 16 for GEMM,
  // unroll 8 / prefetch 16 for Level-1 — the configuration the drivers
  // would use untuned, so the climb starts from known-good ground.
  Point p;
  p.ix.assign(axes_.size(), 0);
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const Axis& ax = axes_[a];
    int want = 0;
    if (ax.name == "prefetch") want = 16;
    if (ax.name == "unroll") want = 8;
    if (ax.name == "ku") want = 1;
    for (std::size_t i = 0; i < ax.values.size(); ++i)
      if (ax.values[i] == want) p.ix[static_cast<int>(a)] = static_cast<int>(i);
  }
  return p;
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

Point SearchSpace::random_point(Rng& rng) const {
  Point p;
  p.ix.reserve(axes_.size());
  // Raw engine draws + modulo: the bias is irrelevant at these axis sizes
  // and, unlike std::uniform_int_distribution, the sequence is pinned by
  // the mt19937_64 standard — identical across processes and builds.
  for (const Axis& a : axes_)
    p.ix.push_back(static_cast<int>(rng.engine()() % a.values.size()));
  return p;
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
