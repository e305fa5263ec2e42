// shared_cache_smoke — processes sharing one cache directory, with no
// coordinating process (docs/runtime.md, "Sharing one cache directory").
//
//   shared_cache_smoke --tunedb <path-to-augem_tunedb>
//
// One binary, three roles, re-exec'd via /proc/self/exe: the parent
// orchestrates; with --client it resolves kernels in a child process and
// reports its counters and a checksum of their outputs; with --hold-lock it
// takes a key's lock, leaves a half-written temp artifact as a publisher
// killed mid-copy would, and waits to be killed. The parent checks:
//
//   1. 8 cold clients, released together by a start barrier, resolve the
//      same two keys: summed over all 8, the tuner ran twice and two
//      kernels were built, and every checksum equals the parent's serial
//      reference (regenerated in-process from the stored records) bit for
//      bit;
//   2. 4 warm clients run no tuner, build nothing and map both artifacts;
//   3. a client blocked behind a lock holder that is then SIGKILLed
//      completes with one tune and one build of the key; afterwards every
//      kernels/*.so hashes to its record and no temp file is left;
//   4. with AUGEM_TUNE_SYNTHETIC and AUGEM_BENCH_REPS set, the trial log a
//      client stores equals an in-process tune_gemm's (the climb is
//      deterministic: same start, same neighbor order);
//   5. under the same settings `augem_tunedb retune` reports `unchanged`
//      and leaves the database file byte-identical.
//
// Any violated expectation prints and exits nonzero (a ctest failure).

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/artifact.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/key.hpp"
#include "runtime/tunedb.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tuning/tuner.hpp"

namespace {

namespace fs = std::filesystem;
using augem::DoubleBuffer;
using augem::Json;
using augem::Rng;
using augem::frontend::KernelKind;
using augem::runtime::CachedKernel;
using augem::runtime::KernelKey;
using augem::runtime::KernelRuntime;
using augem::runtime::RuntimeConfig;
using augem::runtime::ShapeClass;
using augem::runtime::TunedVariant;
using augem::runtime::TuningDatabase;

#define SMOKE_CHECK(cond, ...)                                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "shared_cache_smoke FAILED at %s:%d: %s\n  ", \
                   __FILE__, __LINE__, #cond);                          \
      std::fprintf(stderr, __VA_ARGS__);                                \
      std::fprintf(stderr, "\n");                                       \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

// Tuning and the checksums both run on the quick workload's operands.
constexpr long kMc = augem::tuning::kQuickTuneWorkload.mc;
constexpr long kNc = augem::tuning::kQuickTuneWorkload.nc;
constexpr long kKc = augem::tuning::kQuickTuneWorkload.kc;
constexpr long kVec = augem::tuning::kQuickTuneWorkload.vec_len;

RuntimeConfig quick_config(const std::string& dir) {
  RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = true;
  cfg.workload_override = augem::tuning::kQuickTuneWorkload;
  return cfg;
}

KernelKey large_key(const std::string& kind) {
  return augem::runtime::host_kernel_key(
      *augem::frontend::parse_kernel_kind(kind), ShapeClass::kLarge);
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');) out.push_back(item);
  return out;
}

/// Runs every kernel on deterministically seeded buffers and returns the
/// FNV-1a of the output bytes, as hex: any divergence in the served code
/// or its results shows up as a checksum mismatch.
std::string checksum(const std::vector<std::shared_ptr<const CachedKernel>>& ks) {
  std::string bytes;
  const auto append = [&](const DoubleBuffer& buf) {
    bytes.append(reinterpret_cast<const char*>(buf.data()),
                 buf.size() * sizeof(double));
  };
  for (const auto& k : ks) {
    Rng rng(77);
    switch (k->key.kind) {
      case KernelKind::kGemm: {
        DoubleBuffer a(kMc * kKc), b(kNc * kKc), c(kMc * kNc);
        rng.fill(a.span());
        rng.fill(b.span());
        rng.fill(c.span());
        k->fn<void(long, long, long, const double*, const double*, double*,
                   long)>()(kMc / k->mr * k->mr, kNc / k->nr * k->nr, kKc,
                            a.data(), b.data(), c.data(), kMc);
        append(c);
        break;
      }
      case KernelKind::kAxpy: {
        DoubleBuffer x(kVec), y(kVec);
        rng.fill(x.span());
        rng.fill(y.span());
        k->fn<void(long, double, const double*, double*)>()(kVec, 1.25,
                                                            x.data(), y.data());
        append(y);
        break;
      }
      case KernelKind::kDot: {
        DoubleBuffer x(kVec), y(kVec), r(1);
        rng.fill(x.span());
        rng.fill(y.span());
        r[0] = k->fn<double(long, const double*, const double*)>()(
            kVec, x.data(), y.data());
        append(r);
        break;
      }
      default:
        SMOKE_CHECK(false, "no checksum workload for this kind");
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(augem::runtime::fnv1a64(bytes)));
  return hex;
}

long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---- child roles -----------------------------------------------------------

int run_client(const std::string& dir, const std::string& kinds,
               long long start_at_ms, const std::string& out_path) {
  Json out = Json::object();
  try {
    KernelRuntime rt(quick_config(dir));
    // Start barrier: every cold client begins resolving at the same
    // instant, so the key locks see genuinely concurrent first misses.
    while (now_ms() < start_at_ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<std::shared_ptr<const CachedKernel>> ks;
    for (const std::string& kind : split(kinds))
      ks.push_back(rt.resolve(*augem::frontend::parse_kernel_kind(kind),
                              ShapeClass::kLarge));
    const auto c = rt.counters();
    out["ok"] = Json(true);
    out["checksum"] = Json(checksum(ks));
    out["builds"] = Json(static_cast<double>(c.builds));
    out["tuner_runs"] = Json(static_cast<double>(c.tuner_runs));
    out["artifact_loads"] = Json(static_cast<double>(c.artifact_loads));
  } catch (const augem::Error& e) {
    out["ok"] = Json(false);
    out["error"] = Json(std::string(e.what()));
  }
  std::ofstream(out_path, std::ios::trunc) << out.dump() << "\n";
  return out.boolean("ok").value_or(false) ? 0 : 1;
}

/// Holds `kind`'s key lock with a torn temp artifact beside it, signals
/// readiness through `ready_path`, and waits for SIGKILL.
int run_lock_holder(const std::string& dir, const std::string& kind,
                    const std::string& ready_path) {
  const TuningDatabase db(dir);
  const augem::runtime::KeyLock lock(db, large_key(kind));
  std::string tmp = augem::runtime::key_file(db, large_key(kind), ".tmpXXXXXX");
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0 || ::write(fd, "\x7f" "ELF", 4) != 4) return 1;
  ::close(fd);
  std::ofstream(ready_path) << "ready\n";
  for (;;) ::pause();
}

// ---- parent role -----------------------------------------------------------

pid_t spawn(const std::vector<std::string>& args,
            const std::string& stdout_path = "") {
  std::vector<char*> argv;
  for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!stdout_path.empty()) {
      const int fd = ::open(stdout_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || ::dup2(fd, 1) < 0) ::_exit(126);
    }
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

void wait_ok(pid_t pid, const char* what) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  SMOKE_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "%s (pid %d) exited with status %d", what, pid, status);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::uint64_t counter(const Json& j, const char* field) {
  return static_cast<std::uint64_t>(j.number(field).value_or(-1.0));
}

/// Launches `count` clients resolving `kinds` in `dir`; with `barrier`
/// they start resolving together two seconds from now.
std::vector<Json> run_clients(const std::string& self, const std::string& dir,
                              const std::string& kinds, int count,
                              bool barrier, const std::string& tag) {
  const long long start_at = barrier ? now_ms() + 2000 : 0;
  std::vector<pid_t> pids;
  std::vector<std::string> outs;
  for (int i = 0; i < count; ++i) {
    outs.push_back((fs::path(dir).parent_path() /
                    (tag + std::to_string(i) + ".json"))
                       .string());
    pids.push_back(spawn({self, "--client", "--dir", dir, "--kinds", kinds,
                          "--start-at", std::to_string(start_at), "--out",
                          outs.back()}));
  }
  for (const pid_t pid : pids) wait_ok(pid, "client");
  std::vector<Json> results;
  for (const auto& path : outs) {
    const auto doc = augem::parse_json(read_file(path));
    SMOKE_CHECK(doc.has_value(), "client output %s is not JSON", path.c_str());
    results.push_back(*doc);
  }
  return results;
}

/// The serial reference: each key regenerated in-process from its stored
/// record, bypassing the artifacts.
std::string reference_checksum(const std::string& dir,
                               const std::vector<std::string>& kinds) {
  const TuningDatabase db(dir);
  std::vector<std::shared_ptr<const CachedKernel>> ks;
  for (const std::string& kind : kinds) {
    TunedVariant v;
    SMOKE_CHECK(db.lookup(large_key(kind), v), "no record for %s",
                kind.c_str());
    ks.push_back(augem::runtime::build_variant(large_key(kind), v));
  }
  return checksum(ks);
}

int run_parent(const std::string& self, const std::string& tunedb) {
  char tmpl[] = "/tmp/augem_shared_cache_smoke_XXXXXX";
  SMOKE_CHECK(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
  const std::string root = tmpl;
  const std::string dir = root + "/cache";
  for (const char* var :
       {"AUGEM_CACHE_DIR", "AUGEM_DISABLE_TUNE_CACHE", "AUGEM_TUNE_SYNTHETIC",
        "AUGEM_BENCH_REPS"})
    ::unsetenv(var);

  // 1. Cold clients behind a start barrier: one tune and one build per key.
  const auto cold = run_clients(self, dir, "gemm,axpy", 8, true, "cold");
  const std::string ref = reference_checksum(dir, {"gemm", "axpy"});
  std::uint64_t tunes = 0, builds = 0, loads = 0;
  for (const Json& r : cold) {
    SMOKE_CHECK(*r.string("checksum") == ref,
                "cold client checksum %s != serial reference %s",
                r.string("checksum")->c_str(), ref.c_str());
    tunes += counter(r, "tuner_runs");
    builds += counter(r, "builds");
    loads += counter(r, "artifact_loads");
  }
  SMOKE_CHECK(tunes == 2 && builds == 2,
              "8 cold clients ran %llu tunes and %llu builds, want 2 and 2",
              (unsigned long long)tunes, (unsigned long long)builds);
  SMOKE_CHECK(loads == 14, "cold clients mapped %llu artifacts, want 14",
              (unsigned long long)loads);
  std::fprintf(stderr, "[smoke] 8 cold clients: 2 tunes, 2 builds, %s\n",
               ref.c_str());

  // 2. Warm clients map both artifacts and build nothing.
  for (const Json& r : run_clients(self, dir, "gemm,axpy", 4, false, "warm")) {
    SMOKE_CHECK(*r.string("checksum") == ref, "warm checksum mismatch");
    SMOKE_CHECK(counter(r, "builds") == 0 && counter(r, "tuner_runs") == 0,
                "warm client built or tuned");
    SMOKE_CHECK(counter(r, "artifact_loads") == 2,
                "warm client mapped %llu artifacts, want 2",
                (unsigned long long)counter(r, "artifact_loads"));
  }
  std::fprintf(stderr, "[smoke] 4 warm clients: no builds, 2 artifacts\n");

  // 3. A lock holder killed with a torn temp file beside the artifact: the
  // client queued behind it tunes and builds the key once.
  const std::string ready = root + "/holder.ready";
  const pid_t holder = spawn({self, "--hold-lock", "--dir", dir, "--kinds",
                              "dot", "--out", ready});
  for (int i = 0; i < 3000 && !fs::exists(ready); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  SMOKE_CHECK(fs::exists(ready), "lock holder never became ready");
  const std::string blocked_out = root + "/blocked.json";
  const pid_t blocked = spawn({self, "--client", "--dir", dir, "--kinds",
                               "dot", "--start-at", "0", "--out", blocked_out});
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  SMOKE_CHECK(::waitpid(blocked, nullptr, WNOHANG) == 0,
              "client finished while the key lock was held");
  ::kill(holder, SIGKILL);
  ::waitpid(holder, nullptr, 0);
  wait_ok(blocked, "client behind the killed holder");
  const auto after_kill = augem::parse_json(read_file(blocked_out));
  SMOKE_CHECK(after_kill.has_value(), "blocked client output is not JSON");
  SMOKE_CHECK(counter(*after_kill, "tuner_runs") == 1 &&
                  counter(*after_kill, "builds") == 1,
              "client behind the killed holder ran %llu tunes, %llu builds",
              (unsigned long long)counter(*after_kill, "tuner_runs"),
              (unsigned long long)counter(*after_kill, "builds"));
  SMOKE_CHECK(*after_kill->string("checksum") ==
                  reference_checksum(dir, {"dot"}),
              "dot checksum differs from its serial reference");

  const TuningDatabase db(dir);
  std::map<std::string, std::uint64_t> recorded;  // artifact path -> hash
  for (const auto& e : db.entries())
    if (e.variant.artifact)
      recorded[augem::runtime::key_file(db, e.key, ".so")] =
          e.variant.artifact->fnv;
  int artifacts = 0;
  for (const auto& f : fs::directory_iterator(db.kernels_dir())) {
    const std::string path = f.path().string();
    SMOKE_CHECK(path.find(".tmp") == std::string::npos, "temp file left: %s",
                path.c_str());
    if (f.path().extension() != ".so") continue;
    ++artifacts;
    SMOKE_CHECK(recorded.count(path) == 1 &&
                    augem::runtime::fnv1a64(read_file(path)) == recorded[path],
                "%s does not hash to its record", path.c_str());
  }
  SMOKE_CHECK(artifacts == 3, "%d artifacts, want 3", artifacts);
  std::fprintf(stderr, "[smoke] killed lock holder: 1 tune, 1 build, "
                       "artifacts match their records, no temp file\n");

  // 4. Synthetic scores: the stored trial log is the in-process search's.
  const std::string synthetic = root + "/synthetic";
  ::setenv("AUGEM_TUNE_SYNTHETIC", "1", 1);
  ::setenv("AUGEM_BENCH_REPS", "1", 1);
  run_clients(self, synthetic, "gemm", 1, false, "synthetic");
  const KernelKey gemm = large_key("gemm");
  TunedVariant stored;
  SMOKE_CHECK(TuningDatabase(synthetic).lookup(gemm, stored),
              "synthetic record missing");
  const augem::tuning::TuneResult ref_tune = augem::tuning::tune_gemm(
      gemm.isa, augem::tuning::kQuickTuneWorkload,
      augem::tuning::SearchOptions::from_env());
  SMOKE_CHECK(ref_tune.trials.size() == stored.trial_log.size(),
              "trial counts diverge: in-process %zu vs stored %zu",
              ref_tune.trials.size(), stored.trial_log.size());
  for (std::size_t i = 0; i < ref_tune.trials.size(); ++i) {
    const auto& a = ref_tune.trials[i];
    const auto& b = stored.trial_log[i];
    SMOKE_CHECK(a.params.mr == b.params.mr && a.params.nr == b.params.nr &&
                    a.params.ku == b.params.ku &&
                    a.params.unroll == b.params.unroll &&
                    a.params.prefetch.enabled == b.params.prefetch.enabled &&
                    a.params.prefetch.distance == b.params.prefetch.distance &&
                    a.reason == b.reason && a.mflops == b.mflops,
                "trial %zu diverges: %s vs %s", i, a.describe().c_str(),
                b.describe().c_str());
  }
  std::fprintf(stderr, "[smoke] synthetic search: %zu identical trials\n",
               ref_tune.trials.size());

  // 5. Retune under the same settings reproduces the incumbent.
  const std::string db_file = TuningDatabase(synthetic).file_path();
  const std::string before = read_file(db_file);
  const std::string retune_out = root + "/retune.txt";
  wait_ok(spawn({tunedb, "--dir", synthetic, "retune", "gemm", "large",
                 "--quick"},
                retune_out),
          "augem_tunedb retune");
  const std::string verdict = read_file(retune_out);
  SMOKE_CHECK(verdict.rfind("unchanged", 0) == 0, "retune printed '%s'",
              verdict.c_str());
  SMOKE_CHECK(read_file(db_file) == before, "retune changed the database");
  std::fprintf(stderr, "[smoke] synthetic retune: unchanged, db untouched\n");

  std::error_code ec;
  fs::remove_all(root, ec);
  std::printf("shared_cache_smoke PASSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string role, dir, kinds, out, tunedb;
  long long start_at = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--client" || arg == "--hold-lock") role = arg;
    else if (arg == "--dir" && i + 1 < argc) dir = argv[++i];
    else if (arg == "--kinds" && i + 1 < argc) kinds = argv[++i];
    else if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else if (arg == "--start-at" && i + 1 < argc) start_at = std::atoll(argv[++i]);
    else if (arg == "--tunedb" && i + 1 < argc) tunedb = argv[++i];
    else {
      std::fprintf(stderr, "unknown arg %s\n", arg.c_str());
      return 2;
    }
  }
  if (role == "--client") return run_client(dir, kinds, start_at, out);
  if (role == "--hold-lock") return run_lock_holder(dir, kinds, out);
  if (tunedb.empty()) {
    std::fprintf(stderr, "usage: shared_cache_smoke --tunedb <augem_tunedb>\n");
    return 2;
  }
  return run_parent("/proc/self/exe", tunedb);
}
