#include "runtime/tunedb.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace augem::runtime {
namespace {

using frontend::KernelKind;

/// Private database directory per test, removed on teardown.
class TuneDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/augem_tunedb_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    TuningDatabase(dir_).purge();
    ::rmdir(dir_.c_str());
  }

  static KernelKey test_key(KernelKind kind = KernelKind::kGemm,
                            ShapeClass shape = ShapeClass::kLarge) {
    KernelKey key;
    key.cpu = "testcpu_vfma3_l32.256.8192";
    key.kind = kind;
    key.isa = Isa::kFma3;
    key.shape = shape;
    return key;
  }

  static TunedVariant test_variant(double mflops = 1000.0) {
    TunedVariant v;
    v.params.mr = 4;
    v.params.nr = 4;
    v.params.ku = 2;
    v.params.unroll = 16;
    v.params.prefetch.enabled = true;
    v.params.prefetch.distance = 64;
    v.strategy = opt::VecStrategy::kShuf;
    v.mflops = mflops;
    return v;
  }

  void append_raw(const std::string& line) {
    std::ofstream out(TuningDatabase(dir_).file_path(), std::ios::app);
    out << line << "\n";
  }

  std::string dir_;
};

TEST_F(TuneDbTest, RoundTripAcrossStoreInstances) {
  // The warm-start contract: a second instance (standing in for a second
  // process) replays what the first one stored.
  {
    TuningDatabase db(dir_);
    TunedVariant miss;
    EXPECT_FALSE(db.lookup(test_key(), miss));
    db.store(test_key(), test_variant());
  }
  TuningDatabase db2(dir_);
  TunedVariant got;
  ASSERT_TRUE(db2.lookup(test_key(), got));
  EXPECT_EQ(got.params.mr, 4);
  EXPECT_EQ(got.params.nr, 4);
  EXPECT_EQ(got.params.ku, 2);
  EXPECT_EQ(got.params.unroll, 16);
  EXPECT_TRUE(got.params.prefetch.enabled);
  EXPECT_EQ(got.params.prefetch.distance, 64);
  EXPECT_EQ(got.strategy, opt::VecStrategy::kShuf);
  EXPECT_EQ(got.mflops, 1000.0);
  EXPECT_EQ(db2.skipped_records(), 0u);
}

TEST_F(TuneDbTest, SearchMetaAndTrialLogRoundTripWithBothInfeasibleReasons) {
  // ISSUE PR10 satellite: the split infeasible-reason enum must survive the
  // record codec — a planner-rejected and a regalloc-exhausted trial both
  // appear in the decoded log with their reasons intact, alongside the
  // search metadata (64-bit seed included).
  TunedVariant v = test_variant(2500.0);
  v.search = tuning::SearchMeta{};
  v.search->algorithm = "hillclimb";
  v.search->seed = 0xdeadbeefcafe1234ull;  // exercises the 64-bit path
  v.search->budget_trials = 30;
  v.search->budget_seconds = 12.5;
  v.search->grid_size = 240;
  v.search->trials_run = 3;
  v.search->restarts_used = 1;
  v.search->elapsed_seconds = 0.75;
  v.search->wall_capped = true;
  v.search->synthetic = true;

  tuning::Trial ok;
  ok.params = v.params;
  ok.strategy = v.strategy;
  ok.mflops = 2500.0;
  ok.ci_half = 12.0;
  ok.feasible = true;

  tuning::Trial planner;
  planner.params.mr = 16;
  planner.params.nr = 8;
  planner.feasible = false;
  planner.reason = tuning::InfeasibleReason::kPlannerRejected;

  tuning::Trial regalloc;
  regalloc.params.mr = 8;
  regalloc.params.nr = 8;
  regalloc.feasible = false;
  regalloc.reason = tuning::InfeasibleReason::kRegallocExhausted;

  v.trial_log = {ok, planner, regalloc};

  const Json rec = encode_db_record(test_key(), v);
  const std::optional<DbEntry> got = decode_db_record(rec);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->variant.search.has_value());
  const tuning::SearchMeta& m = *got->variant.search;
  EXPECT_EQ(m.algorithm, "hillclimb");
  EXPECT_EQ(m.seed, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(m.budget_trials, 30);
  EXPECT_EQ(m.budget_seconds, 12.5);
  EXPECT_EQ(m.grid_size, 240);
  EXPECT_EQ(m.trials_run, 3);
  EXPECT_EQ(m.restarts_used, 1);
  EXPECT_EQ(m.elapsed_seconds, 0.75);
  EXPECT_TRUE(m.wall_capped);
  EXPECT_TRUE(m.synthetic);

  const std::vector<tuning::Trial>& log = got->variant.trial_log;
  ASSERT_EQ(log.size(), 3u);
  EXPECT_TRUE(log[0].feasible);
  EXPECT_EQ(log[0].mflops, 2500.0);
  EXPECT_EQ(log[0].ci_half, 12.0);
  EXPECT_EQ(log[0].reason, tuning::InfeasibleReason::kNone);
  EXPECT_FALSE(log[1].feasible);
  EXPECT_EQ(log[1].reason, tuning::InfeasibleReason::kPlannerRejected);
  EXPECT_EQ(log[1].params.mr, 16);
  EXPECT_FALSE(log[2].feasible);
  EXPECT_EQ(log[2].reason, tuning::InfeasibleReason::kRegallocExhausted);
  // Both split reasons render distinctly in the human-readable trace.
  EXPECT_NE(log[1].describe().find("planner rejected"), std::string::npos);
  EXPECT_NE(log[2].describe().find("regalloc exhausted"), std::string::npos);
}

TEST_F(TuneDbTest, MalformedSearchSectionIsDroppedNotFatal) {
  // Tolerant decode: a record with a garbled "search" section keeps the
  // variant (last-good params) and just loses the provenance.
  Json rec = encode_db_record(test_key(), test_variant());
  Json bad = Json::object();
  bad["algorithm"] = Json(7);  // wrong type
  rec["search"] = bad;
  const std::optional<DbEntry> got = decode_db_record(rec);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->variant.search.has_value());
  EXPECT_EQ(got->variant.params.mr, 4);
}

TEST_F(TuneDbTest, ArtifactSectionRoundTripsAndIsOptional) {
  TunedVariant v = test_variant();
  v.artifact = KernelArtifact{0xfedcba9876543210ull, "augem_dgemm_kernel"};
  {
    TuningDatabase db(dir_);
    db.store(test_key(), v);
  }
  TunedVariant got;
  ASSERT_TRUE(TuningDatabase(dir_).lookup(test_key(), got));
  ASSERT_TRUE(got.artifact.has_value());
  EXPECT_EQ(got.artifact->fnv, 0xfedcba9876543210ull);  // all 64 bits
  EXPECT_EQ(got.artifact->symbol, "augem_dgemm_kernel");

  // A garbled section drops the artifact, never the variant: the runtime
  // then rebuilds and republishes.
  Json rec = encode_db_record(test_key(), v);
  Json bad = Json::object();
  bad["fnv"] = Json("not-a-hash");
  bad["symbol"] = Json("augem_dgemm_kernel");
  rec["artifact"] = bad;
  const std::optional<DbEntry> dropped = decode_db_record(rec);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_FALSE(dropped->variant.artifact.has_value());
  EXPECT_EQ(dropped->variant.params.mr, 4);
}

TEST_F(TuneDbTest, LastEntryWinsOnReplay) {
  {
    TuningDatabase db(dir_);
    db.store(test_key(), test_variant(100.0));
    db.store(test_key(), test_variant(2500.0));
  }
  TuningDatabase db2(dir_);
  TunedVariant got;
  ASSERT_TRUE(db2.lookup(test_key(), got));
  EXPECT_EQ(got.mflops, 2500.0);
  EXPECT_EQ(db2.entries().size(), 1u);  // one live entry, two file lines
}

TEST_F(TuneDbTest, KeysAreIndependent) {
  TuningDatabase db(dir_);
  db.store(test_key(KernelKind::kGemm, ShapeClass::kLarge), test_variant(1.0));
  db.store(test_key(KernelKind::kGemm, ShapeClass::kSmall), test_variant(2.0));
  db.store(test_key(KernelKind::kAxpy, ShapeClass::kLarge), test_variant(3.0));
  EXPECT_EQ(db.entries().size(), 3u);
  TunedVariant got;
  ASSERT_TRUE(db.lookup(test_key(KernelKind::kGemm, ShapeClass::kSmall), got));
  EXPECT_EQ(got.mflops, 2.0);
  EXPECT_FALSE(db.lookup(test_key(KernelKind::kDot, ShapeClass::kLarge), got));
}

TEST_F(TuneDbTest, CorruptAndTruncatedLinesAreSkippedNotFatal) {
  {
    TuningDatabase db(dir_);
    db.store(test_key(), test_variant(42.0));
  }
  // Simulate every corruption mode the contract covers: binary garbage, a
  // syntactically truncated record (torn write), a record from a foreign
  // schema, a structurally valid record with implausible parameters, and a
  // blank line (which is tolerated silently, not counted).
  append_raw("\x01\x02 not json at all");
  append_raw("{\"schema\":1,\"cpu\":\"trunc");
  append_raw("{\"schema\":999,\"cpu\":\"x\"}");
  append_raw(
      "{\"schema\":" + std::to_string(kTuneDbSchema) +
      ",\"cpu\":\"c\",\"kind\":\"gemm\",\"isa\":\"FMA3\","
      "\"dtype\":\"f64\",\"shape\":\"large\",\"mr\":0,\"nr\":4,\"ku\":1,"
      "\"unroll\":8,\"prefetch\":false,\"strategy\":\"vdup\",\"mflops\":1}");
  append_raw("");

  TuningDatabase db2(dir_);
  EXPECT_EQ(db2.skipped_records(), 4u);
  TunedVariant got;
  ASSERT_TRUE(db2.lookup(test_key(), got));  // the good record survives
  EXPECT_EQ(got.mflops, 42.0);

  // Storing after recovery re-appends cleanly and a third replay is whole.
  db2.store(test_key(KernelKind::kDot, ShapeClass::kSmall), test_variant());
  TuningDatabase db3(dir_);
  EXPECT_EQ(db3.entries().size(), 2u);
}

TEST_F(TuneDbTest, ReplayStatsBreakRecoveriesDownByCategory) {
  // The fleet-health contract behind `augem_tunedb list --json`: skipped
  // lines are attributed to a category, not folded into one opaque number.
  {
    TuningDatabase db(dir_);
    db.store(test_key(), test_variant(42.0));
  }
  append_raw("\x01\x02 not json at all");         // parse error
  append_raw("{\"schema\":1,\"cpu\":\"trunc");    // parse error (torn write)
  append_raw("{\"schema\":999,\"cpu\":\"x\"}");   // foreign schema
  append_raw("{\"cpu\":\"x\"}");                  // missing schema
  append_raw(
      "{\"schema\":" + std::to_string(kTuneDbSchema) +
      ",\"cpu\":\"c\",\"kind\":\"gemm\",\"isa\":\"FMA3\","
      "\"dtype\":\"f64\",\"shape\":\"large\",\"mr\":0,\"nr\":4,\"ku\":1,"
      "\"unroll\":8,\"prefetch\":false,\"strategy\":\"vdup\",\"mflops\":1}");
  append_raw("");  // blank: tolerated silently, not a line

  TuningDatabase db2(dir_);
  const ReplayStats s = db2.replay_stats();
  EXPECT_EQ(s.total_lines, 6u);  // 1 good + 5 corrupt, blank not counted
  EXPECT_EQ(s.parse_errors, 2u);
  EXPECT_EQ(s.schema_mismatches, 2u);
  EXPECT_EQ(s.invalid_records, 1u);
  EXPECT_EQ(s.live_entries, 1u);
  EXPECT_EQ(s.skipped(), 5u);
  EXPECT_EQ(db2.skipped_records(), s.skipped());

  // The JSON rendering carries every field (what the CLI exposes).
  const Json j = s.to_json();
  EXPECT_EQ(j.number("total_lines").value_or(-1), 6.0);
  EXPECT_EQ(j.number("parse_errors").value_or(-1), 2.0);
  EXPECT_EQ(j.number("schema_mismatches").value_or(-1), 2.0);
  EXPECT_EQ(j.number("invalid_records").value_or(-1), 1.0);
  EXPECT_EQ(j.number("live_entries").value_or(-1), 1.0);
}

TEST_F(TuneDbTest, ConcurrentProcessesNeverTearLines) {
  // The flock-around-append contract: writer *processes* (not threads)
  // hammering the same file must produce a replayable database with zero
  // skipped lines — no interleaved partial records.
  constexpr int kWriters = 4;
  constexpr int kEach = 32;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      TuningDatabase db(dir_);
      for (int i = 0; i < kEach; ++i) {
        KernelKey key = test_key();
        key.cpu = "writer" + std::to_string(w) + "_key" + std::to_string(i);
        db.store(key, test_variant(static_cast<double>(i)));
      }
      _exit(0);  // no gtest teardown in the child
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  TuningDatabase db(dir_);
  const ReplayStats s = db.replay_stats();
  EXPECT_EQ(s.skipped(), 0u);
  EXPECT_EQ(s.total_lines, static_cast<std::uint64_t>(kWriters * kEach));
  EXPECT_EQ(db.entries().size(), static_cast<std::size_t>(kWriters * kEach));
}

TEST_F(TuneDbTest, WholeFileGarbageDegradesToColdCache) {
  append_raw("complete nonsense");
  append_raw("[1,2,3]");  // valid JSON, wrong shape
  TuningDatabase db(dir_);
  EXPECT_EQ(db.entries().size(), 0u);
  EXPECT_EQ(db.skipped_records(), 2u);
  // Still writable.
  db.store(test_key(), test_variant());
  TunedVariant got;
  EXPECT_TRUE(db.lookup(test_key(), got));
}

TEST_F(TuneDbTest, PurgeDeletesFileAndMemory) {
  TuningDatabase db(dir_);
  db.store(test_key(), test_variant());
  db.purge();
  EXPECT_EQ(db.entries().size(), 0u);
  std::ifstream in(db.file_path());
  EXPECT_FALSE(in.good());
  TunedVariant got;
  EXPECT_FALSE(db.lookup(test_key(), got));
}

TEST_F(TuneDbTest, PurgeEmptiesTheKernelsDirectoryToo) {
  // `augem_tunedb purge` empties the directory the store manages:
  // artifacts, key lock files and a killed publisher's temp files go with
  // the database file, leaving nothing behind.
  TuningDatabase db(dir_);
  db.store(test_key(), test_variant());
  ASSERT_EQ(::mkdir(db.kernels_dir().c_str(), 0755), 0);
  for (const char* name : {"/k0123456789abcdef.so", "/k0123456789abcdef.lock",
                           "/k0123456789abcdef.tmpAbC123"})
    std::ofstream(db.kernels_dir() + name) << "x";
  db.purge();
  EXPECT_NE(::access(db.kernels_dir().c_str(), F_OK), 0);
  EXPECT_NE(::access(db.file_path().c_str(), F_OK), 0);
  EXPECT_EQ(::rmdir(dir_.c_str()), 0);  // nothing else was left behind
  ASSERT_EQ(::mkdir(dir_.c_str(), 0700), 0);  // for TearDown
}

TEST_F(TuneDbTest, ReloadPicksUpForeignAppends) {
  TuningDatabase writer(dir_);
  TuningDatabase reader(dir_);
  writer.store(test_key(), test_variant(7.0));
  TunedVariant got;
  EXPECT_FALSE(reader.lookup(test_key(), got));  // replayed before the write
  reader.reload();
  ASSERT_TRUE(reader.lookup(test_key(), got));
  EXPECT_EQ(got.mflops, 7.0);
}

TEST_F(TuneDbTest, VersionedFileName) {
  TuningDatabase db(dir_);
  EXPECT_NE(db.file_path().find("tunedb-v2.jsonl"), std::string::npos);
}

TEST(TuneDbEnv, CacheDirAndDisableFlagsHonored) {
  // Scoped env manipulation; restore whatever was set before.
  const char* old_dir = std::getenv("AUGEM_CACHE_DIR");
  const std::string saved_dir = old_dir ? old_dir : "";
  const char* old_dis = std::getenv("AUGEM_DISABLE_TUNE_CACHE");
  const std::string saved_dis = old_dis ? old_dis : "";

  ::setenv("AUGEM_CACHE_DIR", "/tmp/augem_env_test", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/augem_env_test");

  ::unsetenv("AUGEM_DISABLE_TUNE_CACHE");
  EXPECT_FALSE(tune_cache_disabled());
  ::setenv("AUGEM_DISABLE_TUNE_CACHE", "0", 1);
  EXPECT_FALSE(tune_cache_disabled());  // explicit "0" means enabled
  ::setenv("AUGEM_DISABLE_TUNE_CACHE", "1", 1);
  EXPECT_TRUE(tune_cache_disabled());

  if (old_dir) ::setenv("AUGEM_CACHE_DIR", saved_dir.c_str(), 1);
  else ::unsetenv("AUGEM_CACHE_DIR");
  if (old_dis) ::setenv("AUGEM_DISABLE_TUNE_CACHE", saved_dis.c_str(), 1);
  else ::unsetenv("AUGEM_DISABLE_TUNE_CACHE");
}

}  // namespace
}  // namespace augem::runtime
