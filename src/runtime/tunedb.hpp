#pragma once
// Persistent tuning database (docs/runtime.md).
//
// The empirical tuner (paper §2.1) is expensive — dozens of generate +
// assemble + time cycles per kernel — and its verdict only depends on the
// machine, so re-running it per process throws the cost away. This store
// persists tuned variants across processes as a line-oriented JSON file
// under a per-user cache directory (default ~/.cache/augem, overridden by
// AUGEM_CACHE_DIR; AUGEM_DISABLE_TUNE_CACHE=1 disables persistence
// entirely).
//
// Durability contract: records are appended atomically-per-line (O_APPEND
// plus an advisory flock around each append, so two processes sharing
// AUGEM_CACHE_DIR cannot interleave partial lines) with last-entry-wins
// replay, every record carries a schema version, and any line that fails
// to parse or validate is *skipped* — a corrupt or truncated database
// degrades to a cold cache, it never takes the process down. Replays
// count what they skipped per category (ReplayStats) so fleet health is
// inspectable.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/key.hpp"
#include "support/json.hpp"
#include "tuning/tuner.hpp"

namespace augem::runtime {

/// The kernel a persistent runtime built from an entry and published as
/// <dir>/kernels/k<fnv1a64(key)>.so (docs/runtime.md, "Sharing one cache
/// directory"): the FNV-1a-64 of the file's bytes and its entry symbol. A
/// loader maps the file only when its bytes hash to `fnv`.
struct KernelArtifact {
  std::uint64_t fnv = 0;
  std::string symbol;
};

/// The persisted payload of one database entry: everything needed to
/// regenerate the winning kernel deterministically, plus the score for
/// reporting and — when the entry came from a tuner run — the search
/// metadata and trial log, so `augem_tunedb show` can answer "how was this
/// found" and determinism gates can compare search traces across
/// processes; and the published artifact built from it, if any. All three
/// are optional: records without them (and hand-written ones) decode with
/// `search` and `artifact` unset and an empty log.
struct TunedVariant {
  transform::CGenParams params;
  opt::VecStrategy strategy = opt::VecStrategy::kVdup;
  double mflops = 0.0;
  std::optional<tuning::SearchMeta> search;
  std::vector<tuning::Trial> trial_log;
  std::optional<KernelArtifact> artifact;

  /// Conversion from/to the tuner's result type.
  static TunedVariant from_tune_result(const tuning::TuneResult& r);
  tuning::TuneResult to_tune_result(const KernelKey& key) const;
};

/// One (key, variant) pair as stored on disk.
struct DbEntry {
  KernelKey key;
  TunedVariant variant;
};

/// Schema version written into every record; loaders skip records from a
/// different schema (they will be re-tuned and re-appended). Version 2:
/// GEMM kernels read column-major packed B. A version-1 GEMM record names
/// a row-panel kernel that still passes its artifact hash check but would
/// compute wrong results under the current driver, so it must never be
/// replayed.
inline constexpr int kTuneDbSchema = 2;

// ---- record codecs ---------------------------------------------------------
//
// A record is the union of its key fields and variant fields plus the
// schema tag; the codecs are exported for the CLI and the tests. The
// decoder returns nullopt on anything missing, mistyped, or implausible —
// the caller treats that as a corrupt record, never as a crash.

/// Variant fields only (tile params, strategy, mflops, and the optional
/// search and artifact sections).
Json encode_tuned_variant(const TunedVariant& v);

/// One full on-disk record (schema + key + variant). decode additionally
/// enforces cross-field validity (a small-GEMM record whose register tile
/// cannot divide its baked-in extents is corrupt).
Json encode_db_record(const KernelKey& key, const TunedVariant& v);
std::optional<DbEntry> decode_db_record(const Json& rec);

/// Per-category accounting of the last replay, exposed so fleet health is
/// inspectable (`augem_tunedb list --json`) instead of silently folded
/// into one number.
struct ReplayStats {
  std::uint64_t total_lines = 0;       ///< non-empty lines seen
  std::uint64_t parse_errors = 0;      ///< not valid JSON (truncated/garbled)
  std::uint64_t schema_mismatches = 0; ///< valid JSON, foreign/missing schema
  std::uint64_t invalid_records = 0;   ///< right schema, bad/implausible fields
  std::uint64_t live_entries = 0;      ///< entries after last-entry-wins

  std::uint64_t skipped() const {
    return parse_errors + schema_mismatches + invalid_records;
  }
  Json to_json() const;
};

/// Resolves the cache directory: $AUGEM_CACHE_DIR, else $HOME/.cache/augem,
/// else /tmp/augem-cache. The directory is not created here.
std::string default_cache_dir();

/// True when AUGEM_DISABLE_TUNE_CACHE is set to a non-empty value other
/// than "0": the runtime then keeps everything in memory only.
bool tune_cache_disabled();

/// The on-disk store. Thread-safe; every instance replays the file on
/// construction, so a second instance (or a second process) pointed at the
/// same directory warm-starts from entries the first one wrote.
class TuningDatabase {
 public:
  /// Opens (and replays) the database in `dir`; empty selects
  /// default_cache_dir(). The directory is created on first store.
  explicit TuningDatabase(std::string dir = "");

  /// Looks up the variant for `key`. Returns false on miss.
  bool lookup(const KernelKey& key, TunedVariant& out) const;

  /// Inserts/overwrites the entry and appends it to the on-disk file.
  void store(const KernelKey& key, const TunedVariant& variant);

  /// Re-reads the file, picking up entries other processes appended.
  void reload();

  /// Empties the directory this store manages — the database file and
  /// kernels/ (artifacts, lock files, leftover temp files) — and clears
  /// memory.
  void purge();

  /// All live entries (after last-entry-wins replay), sorted by key.
  std::vector<DbEntry> entries() const;

  const std::string& dir() const { return dir_; }
  std::string file_path() const;
  /// <dir>/kernels: the published artifacts and their per-key lock files.
  std::string kernels_dir() const { return dir_ + "/kernels"; }

  /// Lines skipped by the last replay because they were corrupt, from a
  /// different schema, or truncated. Exposed for tests and the CLI.
  std::uint64_t skipped_records() const;

  /// The full per-category breakdown of the last replay.
  ReplayStats replay_stats() const;

 private:
  void replay_locked();
  void append_locked(const KernelKey& key, const TunedVariant& variant);

  std::string dir_;
  mutable std::mutex mutex_;
  std::map<std::string, DbEntry> entries_;  ///< keyed by KernelKey::to_string
  ReplayStats replay_;
};

}  // namespace augem::runtime
