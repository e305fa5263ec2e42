#pragma once
// Kernel artifacts in a shared cache directory (docs/runtime.md, "Sharing
// one cache directory").
//
// A persistent runtime publishes every kernel it builds as
// <dir>/kernels/k<fnv1a64(key)>.so and records the file's FNV-1a-64 and
// entry symbol in the key's tunedb record. A later process maps that file
// instead of regenerating the kernel, but only once its bytes hash to the
// record. Cold resolves of one key serialize on the key's lock file,
// <dir>/kernels/k<fnv1a64(key)>.lock, so each key is tuned and built once
// per machine. Artifacts are named by key, so kernels/ holds at most one
// .so per key.

#include <memory>
#include <string>

#include "runtime/codecache.hpp"
#include "runtime/key.hpp"
#include "runtime/tunedb.hpp"

namespace augem::runtime {

/// <db.kernels_dir()>/k<16 hex digits of fnv1a64(key.to_string())><suffix>.
std::string key_file(const TuningDatabase& db, const KernelKey& key,
                     const char* suffix);

/// Holds flock(LOCK_EX) on the key's lock file for its lifetime; the
/// kernel drops the lock when the holder exits, killed or not. When the
/// lock cannot be taken (unwritable directory, no flock support) it holds
/// nothing and the caller goes on unlocked, as tunedb appends do.
class KeyLock {
 public:
  KeyLock(const TuningDatabase& db, const KernelKey& key);
  ~KeyLock();
  KeyLock(const KeyLock&) = delete;
  KeyLock& operator=(const KeyLock&) = delete;

 private:
  int fd_ = -1;
};

/// Publishes `kernel` for `key` and appends `variant` to the database with
/// the artifact's hash; the caller holds the key's KeyLock. First removes
/// the temp files a killed publisher of the key left, then copies the
/// module's .so to a new temp file and renames it over the artifact, so a
/// reader sees the old file or the new one, whole. No fsync: after a crash
/// the hash check turns a torn file into a rebuild. If publishing fails the
/// record is appended without an artifact. Returns the appended variant.
TunedVariant publish_and_store(TuningDatabase& db, const KernelKey& key,
                               TunedVariant variant,
                               const CachedKernel& kernel);

/// Reads the key's artifact and loads a private copy of its bytes if they
/// hash to `artifact.fnv` and define `artifact.symbol` (jit::load_bytes).
/// nullptr on a missing file, a hash mismatch, or a failed dlopen/dlsym.
std::shared_ptr<jit::CompiledModule> load_artifact(
    const TuningDatabase& db, const KernelKey& key,
    const KernelArtifact& artifact);

}  // namespace augem::runtime
