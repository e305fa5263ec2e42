// augem_tunedb — inspect and manage the persistent tuning database
// (docs/runtime.md).
//
//   augem_tunedb [--dir DIR] [--json] list
//   augem_tunedb [--dir DIR] [--json] show <kind> <shape>
//   augem_tunedb [--dir DIR] [--json] prewarm [--quick]
//   augem_tunedb [--dir DIR] [--json] retune [<kind> <shape>] [--quick]
//   augem_tunedb [--dir DIR] purge
//
// `list` prints every stored entry plus the replay-recovery breakdown
// (lines skipped as unparseable / foreign-schema / invalid); `show` prints
// the entry the host's dispatcher would serve for (kind, shape); `prewarm`
// tunes every kernel kind × shape class for the host CPU so later
// processes start warm (--quick uses a reduced timing workload, e.g. for
// CI); `retune` reruns the seeded search for one host entry, or for every
// host entry but the batched small-GEMM ones, and promotes a winner only
// when the noise-gated diff calls it improved (--quick: reduced workload
// and measurement budget); `purge` empties the directory's database and
// kernels/. --dir overrides the directory (default: the AUGEM_CACHE_DIR /
// ~/.cache/augem resolution the runtime itself uses).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/dispatch.hpp"
#include "runtime/key.hpp"
#include "runtime/retune.hpp"
#include "runtime/tunedb.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

using augem::Isa;
using augem::runtime::DbEntry;
using augem::Json;
using augem::runtime::KernelKey;
using augem::runtime::KernelRuntime;
using augem::runtime::RuntimeConfig;
using augem::runtime::ShapeClass;
using augem::runtime::TuningDatabase;
namespace frontend = augem::frontend;

int usage() {
  std::fprintf(stderr,
               "usage: augem_tunedb [--dir DIR] [--json] "
               "{list | show <kind> <shape> | prewarm [--quick] | "
               "retune [<kind> <shape>] [--quick] | purge}\n"
               "  kinds:  gemm gemv axpy dot scal\n"
               "  shapes: small skinny large\n");
  return 2;
}

Json entry_json(const DbEntry& e) {
  Json rec = Json::object();
  rec["key"] = Json(e.key.to_string());
  rec["kind"] = Json(frontend::kernel_kind_name(e.key.kind));
  rec["isa"] = Json(augem::isa_name(e.key.isa));
  rec["dtype"] = Json(e.key.dtype);
  rec["shape"] = Json(augem::runtime::shape_class_name(e.key.shape));
  if (e.key.small) {
    // Batched small-GEMM variant: the baked-in extents and fused-epilogue
    // tag are part of the key (distinct entries per variant).
    rec["small"] = Json(e.key.small->to_string());
  }
  rec["cpu"] = Json(e.key.cpu);
  rec["mr"] = Json(e.variant.params.mr);
  rec["nr"] = Json(e.variant.params.nr);
  rec["ku"] = Json(e.variant.params.ku);
  rec["unroll"] = Json(e.variant.params.unroll);
  rec["prefetch"] = Json(e.variant.params.prefetch.enabled);
  rec["strategy"] = Json(augem::opt::vec_strategy_name(e.variant.strategy));
  rec["mflops"] = Json(e.variant.mflops);
  // The codec already knows the search/trial-log and artifact shapes; lift
  // its sections instead of duplicating the field lists here.
  const Json full = augem::runtime::encode_tuned_variant(e.variant);
  for (const char* section : {"search", "artifact"})
    if (const Json* j = full.get(section)) rec[section] = *j;
  return rec;
}

void print_search_details(const augem::runtime::TunedVariant& v) {
  if (!v.search) return;
  const augem::tuning::SearchMeta& m = *v.search;
  std::printf("  search: %s seed=%llu trials=%d/%d grid=%d restarts=%d "
              "elapsed=%.2fs%s%s\n",
              m.algorithm.c_str(), static_cast<unsigned long long>(m.seed),
              m.trials_run, m.budget_trials, m.grid_size, m.restarts_used,
              m.elapsed_seconds, m.wall_capped ? " (wall-capped)" : "",
              m.synthetic ? " (synthetic)" : "");
  for (const augem::tuning::Trial& t : v.trial_log)
    std::printf("    %s\n", t.describe().c_str());
}

void print_entry_row(const DbEntry& e) {
  // Batched small-GEMM entries show the baked-in extents + epilogue tag
  // instead of the bare shape class (e.g. "small:16x16x16+bias+relu").
  const std::string shape =
      e.key.small
          ? std::string(augem::runtime::shape_class_name(e.key.shape)) + ":" +
                e.key.small->to_string()
          : std::string(augem::runtime::shape_class_name(e.key.shape));
  std::printf("%-5s %-5s %-26s  mr=%-3d nr=%-3d ku=%-2d unroll=%-3d %-8s "
              "prefetch=%d  %10.1f MFLOPS\n",
              frontend::kernel_kind_name(e.key.kind),
              augem::isa_name(e.key.isa), shape.c_str(),
              e.variant.params.mr, e.variant.params.nr, e.variant.params.ku,
              e.variant.params.unroll,
              augem::opt::vec_strategy_name(e.variant.strategy),
              e.variant.params.prefetch.enabled ? 1 : 0, e.variant.mflops);
}

int cmd_list(TuningDatabase& db, bool json) {
  const std::vector<DbEntry> entries = db.entries();
  const augem::runtime::ReplayStats replay = db.replay_stats();
  if (json) {
    Json out = Json::object();
    out["file"] = Json(db.file_path());
    out["skipped_records"] = Json(static_cast<double>(replay.skipped()));
    out["replay"] = replay.to_json();
    Json arr = Json::array();
    for (const DbEntry& e : entries) arr.push_back(entry_json(e));
    out["entries"] = arr;
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  std::printf("database: %s (%zu entries", db.file_path().c_str(),
              entries.size());
  if (replay.skipped() > 0)
    std::printf(
        ", %llu corrupt records skipped: %llu unparseable, %llu foreign "
        "schema, %llu invalid",
        static_cast<unsigned long long>(replay.skipped()),
        static_cast<unsigned long long>(replay.parse_errors),
        static_cast<unsigned long long>(replay.schema_mismatches),
        static_cast<unsigned long long>(replay.invalid_records));
  std::printf(")\n");
  for (const DbEntry& e : entries) print_entry_row(e);
  return 0;
}

int cmd_show(TuningDatabase& db, bool json, const std::string& kind_name,
             const std::string& shape_name) {
  const auto kind = augem::runtime::parse_kernel_kind(kind_name);
  const auto shape = augem::runtime::parse_shape_class(shape_name);
  if (!kind || !shape) return usage();
  const KernelKey key = augem::runtime::host_kernel_key(*kind, *shape);
  augem::runtime::TunedVariant v;
  if (!db.lookup(key, v)) {
    if (json) {
      Json out = Json::object();
      out["key"] = Json(key.to_string());
      out["found"] = Json(false);
      std::printf("%s\n", out.dump().c_str());
    } else {
      std::printf("no entry for %s\n", key.to_string().c_str());
    }
    return 1;
  }
  DbEntry e;
  e.key = key;
  e.variant = v;
  if (json) {
    Json out = entry_json(e);
    out["found"] = Json(true);
    std::printf("%s\n", out.dump().c_str());
  } else {
    print_entry_row(e);
    print_search_details(v);
  }
  return 0;
}

/// The reduced timing workload of --quick.
augem::tuning::TuneWorkload quick_workload() {
  augem::tuning::TuneWorkload w;
  w.mc = 32;
  w.nc = 32;
  w.kc = 64;
  w.vec_len = 2048;
  w.reps = 1;
  return w;
}

int cmd_prewarm(const std::string& dir, bool json, bool quick) {
  RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = true;
  if (quick) cfg.workload_override = quick_workload();
  KernelRuntime rt(cfg);

  // GEMM distinguishes all three shape regimes; the Level-1/2 kernels are
  // classified by traversal length only (small / large).
  struct Job {
    frontend::KernelKind kind;
    ShapeClass shape;
  };
  std::vector<Job> jobs;
  for (ShapeClass s :
       {ShapeClass::kSmall, ShapeClass::kSkinny, ShapeClass::kLarge})
    jobs.push_back({frontend::KernelKind::kGemm, s});
  for (frontend::KernelKind k :
       {frontend::KernelKind::kGemv, frontend::KernelKind::kAxpy,
        frontend::KernelKind::kDot, frontend::KernelKind::kScal})
    for (ShapeClass s : {ShapeClass::kSmall, ShapeClass::kLarge})
      jobs.push_back({k, s});

  Json results = Json::array();
  for (const Job& job : jobs) {
    const auto kernel = rt.resolve(job.kind, job.shape);
    if (json) {
      DbEntry e;
      e.key = kernel->key;
      e.variant = kernel->variant;
      results.push_back(entry_json(e));
    } else {
      std::printf("prewarmed ");
      DbEntry e;
      e.key = kernel->key;
      e.variant = kernel->variant;
      print_entry_row(e);
    }
  }
  const auto counters = rt.counters();
  if (json) {
    Json out = Json::object();
    out["entries"] = results;
    out["tuner_runs"] = Json(static_cast<double>(counters.tuner_runs));
    out["db_hits"] = Json(static_cast<double>(counters.db_hits));
    std::printf("%s\n", out.dump().c_str());
  } else {
    std::printf("%llu tuner runs, %llu already present\n",
                static_cast<unsigned long long>(counters.tuner_runs),
                static_cast<unsigned long long>(counters.db_hits));
  }
  return 0;
}

int cmd_retune(TuningDatabase& db, bool json, bool quick,
               const std::vector<std::string>& args) {
  std::vector<KernelKey> keys;
  if (args.size() == 3) {
    const auto kind = augem::runtime::parse_kernel_kind(args[1]);
    const auto shape = augem::runtime::parse_shape_class(args[2]);
    if (!kind || !shape) return usage();
    keys.push_back(augem::runtime::host_kernel_key(*kind, *shape));
  } else if (args.size() == 1) {
    // Every entry this host serves, except the batched small-GEMM variants:
    // their tile follows from the baked-in extents, so there is no search.
    for (const DbEntry& e : db.entries())
      if (!e.key.small &&
          e.key == augem::runtime::host_kernel_key(e.key.kind, e.key.shape))
        keys.push_back(e.key);
  } else {
    return usage();
  }

  augem::perf::RunnerOptions runner;
  if (quick) {
    runner.min_reps = 1;
    runner.max_reps = 3;
    runner.max_seconds = 0.25;
    runner.warmup_max_reps = 1;
    runner.check_frequency = false;
  }
  bool failed = false;
  Json results = Json::array();
  for (const KernelKey& key : keys) {
    const auto outcome = augem::runtime::retune(
        db, key,
        quick ? quick_workload()
              : augem::runtime::tune_workload_for(key.kind, key.shape),
        runner);
    failed |= outcome == augem::runtime::RetuneOutcome::kError;
    const char* name = augem::runtime::retune_outcome_name(outcome);
    if (json) {
      Json r = Json::object();
      r["key"] = Json(key.to_string());
      r["outcome"] = Json(name);
      results.push_back(r);
    } else {
      std::printf("%-9s %s\n", name, key.to_string().c_str());
    }
  }
  if (json) {
    Json out = Json::object();
    out["results"] = results;
    std::printf("%s\n", out.dump().c_str());
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool json = false;
  bool quick = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir") {
      if (++i >= argc) return usage();
      dir = argv[i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return usage();

  try {
    const std::string& cmd = args[0];
    if (cmd == "prewarm") return cmd_prewarm(dir, json, quick);
    TuningDatabase db(dir);
    if (cmd == "list") return cmd_list(db, json);
    if (cmd == "show")
      return args.size() == 3 ? cmd_show(db, json, args[1], args[2]) : usage();
    if (cmd == "retune") return cmd_retune(db, json, quick, args);
    if (cmd == "purge") {
      db.purge();
      std::printf("purged %s and %s\n", db.file_path().c_str(),
                  db.kernels_dir().c_str());
      return 0;
    }
    return usage();
  } catch (const augem::Error& e) {
    std::fprintf(stderr, "augem_tunedb: %s\n", e.what());
    return 1;
  }
}
