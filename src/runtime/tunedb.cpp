#include "runtime/tunedb.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace augem::runtime {

TunedVariant TunedVariant::from_tune_result(const tuning::TuneResult& r) {
  TunedVariant v;
  v.params = r.params;
  v.mflops = r.mflops;
  v.search = r.search;
  v.trial_log = r.trials;
  return v;
}

std::string default_cache_dir() {
  if (const char* dir = std::getenv("AUGEM_CACHE_DIR");
      dir != nullptr && dir[0] != '\0')
    return dir;
  if (const char* home = std::getenv("HOME");
      home != nullptr && home[0] != '\0')
    return std::string(home) + "/.cache/augem";
  return "/tmp/augem-cache";
}

bool tune_cache_disabled() {
  const char* v = std::getenv("AUGEM_DISABLE_TUNE_CACHE");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

namespace {

/// Key fields only (cpu, kind, isa, dtype, shape, optional small spec).
Json encode_kernel_key(const KernelKey& key) {
  Json rec = Json::object();
  rec["cpu"] = Json(key.cpu);
  rec["kind"] = Json(frontend::kernel_kind_name(key.kind));
  rec["isa"] = Json(isa_name(key.isa));
  rec["dtype"] = Json(key.dtype);
  rec["shape"] = Json(shape_class_name(key.shape));
  if (key.small) {
    rec["small_m"] = Json(key.small->m);
    rec["small_n"] = Json(key.small->n);
    rec["small_k"] = Json(key.small->k);
    rec["epi_scale"] = Json(key.small->epilogue.scale);
    rec["epi_bias"] = Json(key.small->epilogue.bias);
    rec["epi_relu"] = Json(key.small->epilogue.relu);
  }
  return rec;
}

std::optional<KernelKey> decode_kernel_key(const Json& rec) {
  if (!rec.is_object()) return std::nullopt;
  const auto cpu = rec.string("cpu");
  const auto kind_name = rec.string("kind");
  const auto isa = rec.string("isa");
  const auto dtype = rec.string("dtype");
  const auto shape_name = rec.string("shape");
  if (!cpu || !kind_name || !isa || !dtype || !shape_name) return std::nullopt;

  KernelKey key;
  key.cpu = *cpu;
  key.dtype = *dtype;
  const auto kind = frontend::parse_kernel_kind(*kind_name);
  const auto parsed_isa = parse_isa(*isa);
  const auto shape = parse_shape_class(*shape_name);
  if (!kind || !parsed_isa || !shape) return std::nullopt;
  key.kind = *kind;
  key.isa = *parsed_isa;
  key.shape = *shape;

  // Optional small-GEMM spec: the three baked-in extents plus the fused
  // epilogue's feature flags. All-or-nothing — a record with only some of
  // the extent fields is corrupt.
  const auto sm = rec.number("small_m");
  const auto sn = rec.number("small_n");
  const auto sk = rec.number("small_k");
  if (sm || sn || sk) {
    if (!sm || !sn || !sk) return std::nullopt;
    frontend::SmallGemmSpec spec;
    spec.m = static_cast<int>(*sm);
    spec.n = static_cast<int>(*sn);
    spec.k = static_cast<int>(*sk);
    if (spec.m < 1 || spec.n < 1 || spec.k < 1 || spec.m > 1024 ||
        spec.n > 1024 || spec.k > 1024)
      return std::nullopt;
    if (const auto b = rec.boolean("epi_scale")) spec.epilogue.scale = *b;
    if (const auto b = rec.boolean("epi_bias")) spec.epilogue.bias = *b;
    if (const auto b = rec.boolean("epi_relu")) spec.epilogue.relu = *b;
    key.small = spec;
  }
  return key;
}

}  // namespace

Json encode_tuned_variant(const TunedVariant& v) {
  Json rec = Json::object();
  rec["mr"] = Json(v.params.mr);
  rec["nr"] = Json(v.params.nr);
  rec["ku"] = Json(v.params.ku);
  rec["unroll"] = Json(v.params.unroll);
  rec["prefetch"] = Json(v.params.prefetch.enabled);
  rec["prefetch_distance"] = Json(v.params.prefetch.distance);
  rec["strategy"] = Json(opt::vec_strategy_name(v.strategy));
  rec["mflops"] = Json(v.mflops);
  if (v.search) {
    // The search section is optional and self-contained: pre-search
    // readers ignore the extra field, pre-search records simply lack it.
    Json s = Json::object();
    s["algorithm"] = Json(v.search->algorithm);
    s["budget_trials"] = Json(v.search->budget_trials);
    s["grid"] = Json(v.search->grid_size);
    s["trials_run"] = Json(v.search->trials_run);
    s["elapsed_s"] = Json(v.search->elapsed_seconds);
    s["synthetic"] = Json(v.search->synthetic);
    Json log = Json::array();
    for (const tuning::Trial& t : v.trial_log) {
      Json tj = Json::object();
      tj["mr"] = Json(t.params.mr);
      tj["nr"] = Json(t.params.nr);
      tj["ku"] = Json(t.params.ku);
      tj["unroll"] = Json(t.params.unroll);
      tj["pf"] = Json(t.params.prefetch.enabled);
      tj["pfd"] = Json(t.params.prefetch.distance);
      tj["mflops"] = Json(t.mflops);
      tj["ci"] = Json(t.ci_half);
      tj["reason"] = Json(tuning::infeasible_reason_name(t.reason));
      log.push_back(std::move(tj));
    }
    s["trials"] = std::move(log);
    rec["search"] = std::move(s);
  }
  if (v.artifact) {
    // Optional like the search section. The hash is a full 64-bit value,
    // so it is stored as 16 hex digits rather than as a number.
    char fnv[17];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(v.artifact->fnv));
    Json a = Json::object();
    a["fnv"] = Json(std::string(fnv));
    a["symbol"] = Json(v.artifact->symbol);
    rec["artifact"] = std::move(a);
  }
  return rec;
}

namespace {

/// Decodes the optional search section. A malformed section is dropped
/// (the variant itself stays usable) — same tolerance as the rest of the
/// replay path. Fields this reader does not know (the seed, restart count,
/// wall-clock budget and cap flag of records written by the earlier seeded
/// search, and the per-trial strategy of records written while the tuner
/// had a strategy axis) are ignored.
void decode_search_section(const Json& rec, TunedVariant& v) {
  const Json* s = rec.get("search");
  if (s == nullptr || !s->is_object()) return;
  const auto algorithm = s->string("algorithm");
  if (!algorithm) return;
  tuning::SearchMeta meta;
  meta.algorithm = *algorithm;
  meta.budget_trials = static_cast<int>(s->number("budget_trials").value_or(0));
  meta.grid_size = static_cast<int>(s->number("grid").value_or(0));
  meta.trials_run = static_cast<int>(s->number("trials_run").value_or(0));
  meta.elapsed_seconds = s->number("elapsed_s").value_or(0.0);
  meta.synthetic = s->boolean("synthetic").value_or(false);

  std::vector<tuning::Trial> log;
  if (const Json* trials = s->get("trials"); trials != nullptr) {
    if (!trials->is_array()) return;
    for (const Json& tj : trials->items()) {
      if (!tj.is_object()) return;
      tuning::Trial t;
      const auto mr = tj.number("mr");
      const auto nr = tj.number("nr");
      const auto ku = tj.number("ku");
      const auto unroll = tj.number("unroll");
      const auto reason_name = tj.string("reason");
      if (!mr || !nr || !ku || !unroll || !reason_name) return;
      t.params.mr = static_cast<int>(*mr);
      t.params.nr = static_cast<int>(*nr);
      t.params.ku = static_cast<int>(*ku);
      t.params.unroll = static_cast<int>(*unroll);
      t.params.prefetch.enabled = tj.boolean("pf").value_or(true);
      t.params.prefetch.distance =
          static_cast<int>(tj.number("pfd").value_or(16));
      if (!tuning::parse_infeasible_reason(*reason_name, t.reason)) return;
      t.feasible = t.reason == tuning::InfeasibleReason::kNone;
      t.mflops = tj.number("mflops").value_or(0.0);
      t.ci_half = tj.number("ci").value_or(0.0);
      log.push_back(std::move(t));
    }
  }
  v.search = meta;
  v.trial_log = std::move(log);
}

/// Decodes the optional artifact section. A malformed one is dropped: the
/// entry then has no artifact, and the runtime rebuilds and republishes it.
void decode_artifact_section(const Json& rec, TunedVariant& v) {
  const Json* a = rec.get("artifact");
  if (a == nullptr || !a->is_object()) return;
  const auto fnv = a->string("fnv");
  const auto symbol = a->string("symbol");
  if (!fnv || !symbol || symbol->empty() || fnv->size() != 16) return;
  for (const char c : *fnv)
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return;
  v.artifact = KernelArtifact{std::strtoull(fnv->c_str(), nullptr, 16),
                              *symbol};
}

/// Variant fields only. Rejects parameter values no generator
/// configuration can produce.
std::optional<TunedVariant> decode_tuned_variant(const Json& rec) {
  if (!rec.is_object()) return std::nullopt;
  const auto mr = rec.number("mr");
  const auto nr = rec.number("nr");
  const auto ku = rec.number("ku");
  const auto unroll = rec.number("unroll");
  const auto prefetch = rec.boolean("prefetch");
  const auto strategy_name = rec.string("strategy");
  const auto mflops = rec.number("mflops");
  if (!mr || !nr || !ku || !unroll || !prefetch || !strategy_name || !mflops)
    return std::nullopt;

  TunedVariant v;
  v.params.mr = static_cast<int>(*mr);
  v.params.nr = static_cast<int>(*nr);
  v.params.ku = static_cast<int>(*ku);
  v.params.unroll = static_cast<int>(*unroll);
  v.params.prefetch.enabled = *prefetch;
  if (const auto dist = rec.number("prefetch_distance"))
    v.params.prefetch.distance = static_cast<int>(*dist);
  v.mflops = *mflops;

  // Records written while an "auto" strategy existed name the served Vdup
  // kernel that way: it emitted exactly Vdup's instructions.
  const auto strategy = *strategy_name == "auto"
                            ? opt::VecStrategy::kVdup
                            : opt::parse_vec_strategy(*strategy_name);
  if (!strategy) return std::nullopt;
  v.strategy = *strategy;

  // Reject parameter values no generator configuration can produce — a
  // bit-flipped record must not reach the kernel generator.
  const auto plausible = [](int x) { return x >= 1 && x <= 1024; };
  if (!plausible(v.params.mr) || !plausible(v.params.nr) ||
      !plausible(v.params.ku) || !plausible(v.params.unroll))
    return std::nullopt;
  decode_search_section(rec, v);
  decode_artifact_section(rec, v);
  return v;
}

}  // namespace

Json encode_db_record(const KernelKey& key, const TunedVariant& v) {
  Json rec = encode_kernel_key(key);
  const Json variant = encode_tuned_variant(v);
  for (const auto& [field, value] : variant.fields()) rec[field] = value;
  rec["schema"] = Json(kTuneDbSchema);
  return rec;
}

std::optional<DbEntry> decode_db_record(const Json& rec) {
  if (!rec.is_object()) return std::nullopt;
  const auto schema = rec.number("schema");
  if (!schema || static_cast<int>(*schema) != kTuneDbSchema)
    return std::nullopt;
  const auto key = decode_kernel_key(rec);
  const auto variant = decode_tuned_variant(rec);
  if (!key || !variant) return std::nullopt;

  DbEntry e;
  e.key = *key;
  e.variant = *variant;
  // A small-GEMM record whose register tile cannot divide its baked-in
  // extents would make the generator throw; treat it as corrupt instead.
  if (e.key.small && (e.key.small->m % e.variant.params.mr != 0 ||
                      e.key.small->n % e.variant.params.nr != 0))
    return std::nullopt;
  return e;
}

Json ReplayStats::to_json() const {
  Json j = Json::object();
  j["total_lines"] = Json(static_cast<double>(total_lines));
  j["parse_errors"] = Json(static_cast<double>(parse_errors));
  j["schema_mismatches"] = Json(static_cast<double>(schema_mismatches));
  j["invalid_records"] = Json(static_cast<double>(invalid_records));
  j["skipped"] = Json(static_cast<double>(skipped()));
  j["live_entries"] = Json(static_cast<double>(live_entries));
  return j;
}

TuningDatabase::TuningDatabase(std::string dir)
    : dir_(dir.empty() ? default_cache_dir() : std::move(dir)) {
  std::lock_guard<std::mutex> lock(mutex_);
  replay_locked();
}

std::string TuningDatabase::file_path() const {
  // The schema version is part of the file name as well as of each record:
  // a future incompatible format starts from a fresh file instead of
  // fighting this one for the same bytes.
  return dir_ + "/tunedb-v" + std::to_string(kTuneDbSchema) + ".jsonl";
}

void TuningDatabase::replay_locked() {
  entries_.clear();
  replay_ = ReplayStats{};
  std::ifstream in(file_path());
  if (!in.good()) return;  // no database yet: every lookup misses
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++replay_.total_lines;
    // Corrupt, truncated, or foreign-schema lines are skipped (counted per
    // category): the entry such a line would have named simply misses and
    // gets re-tuned + re-appended.
    const auto doc = parse_json(line);
    if (!doc) {
      ++replay_.parse_errors;
      continue;
    }
    const auto schema = doc->number("schema");
    if (!schema || static_cast<int>(*schema) != kTuneDbSchema) {
      ++replay_.schema_mismatches;
      continue;
    }
    const auto entry = decode_db_record(*doc);
    if (!entry) {
      ++replay_.invalid_records;
      continue;
    }
    entries_[entry->key.to_string()] = *entry;  // last entry wins
  }
  replay_.live_entries = entries_.size();
}

bool TuningDatabase::lookup(const KernelKey& key, TunedVariant& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key.to_string());
  if (it == entries_.end()) return false;
  out = it->second.variant;
  return true;
}

void TuningDatabase::append_locked(const KernelKey& key,
                                   const TunedVariant& variant) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // open() reports failure
  const std::string line = encode_db_record(key, variant).dump() + "\n";
  // O_APPEND makes each successful write land at the end of the file, but
  // libc/ofstream may split one line across several writes; an advisory
  // flock around the whole line keeps two processes sharing AUGEM_CACHE_DIR
  // from interleaving partial lines (the corrupt lines the reader would
  // then have to skip). flock failure degrades to O_APPEND-only — a
  // filesystem without lock support must not make stores fatal.
  const int fd = ::open(file_path().c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  AUGEM_CHECK(fd >= 0, "cannot write tuning database " << file_path());
  (void)::flock(fd, LOCK_EX);
  const char* p = line.data();
  std::size_t left = line.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  (void)::flock(fd, LOCK_UN);
  ::close(fd);
  AUGEM_CHECK(ok, "cannot write tuning database " << file_path());
}

void TuningDatabase::store(const KernelKey& key, const TunedVariant& variant) {
  std::lock_guard<std::mutex> lock(mutex_);
  DbEntry e;
  e.key = key;
  e.variant = variant;
  entries_[key.to_string()] = e;
  append_locked(key, variant);
}

void TuningDatabase::reload() {
  std::lock_guard<std::mutex> lock(mutex_);
  replay_locked();
}

void TuningDatabase::purge() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  replay_ = ReplayStats{};
  std::remove(file_path().c_str());
  std::error_code ec;
  std::filesystem::remove_all(kernels_dir(), ec);
}

std::vector<DbEntry> TuningDatabase::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DbEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

std::uint64_t TuningDatabase::skipped_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replay_.skipped();
}

ReplayStats TuningDatabase::replay_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replay_;
}

}  // namespace augem::runtime
