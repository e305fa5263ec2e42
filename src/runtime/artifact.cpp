#include "runtime/artifact.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "support/error.hpp"

namespace augem::runtime {

namespace fs = std::filesystem;

namespace {

/// Reads the whole file through one fd; false on any error.
bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out.clear();
  char buf[1 << 14];
  bool ok = true;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ok;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t w = ::write(fd, bytes.data(), bytes.size());
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

/// Writes `bytes` to a fresh temp file of the key and renames it over the
/// key's artifact.
bool publish_bytes(const TuningDatabase& db, const KernelKey& key,
                   const std::string& bytes) {
  std::string tmp = key_file(db, key, ".tmpXXXXXX");
  const int fd = ::mkostemp(tmp.data(), O_CLOEXEC);
  if (fd < 0) return false;
  // mkostemp creates mode 0600; an artifact is as readable as the database.
  const bool ok = ::fchmod(fd, 0644) == 0 && write_all(fd, bytes);
  ::close(fd);
  if (ok && ::rename(tmp.c_str(), key_file(db, key, ".so").c_str()) == 0)
    return true;
  std::remove(tmp.c_str());
  return false;
}

/// Removes the temp files a killed publisher of `key` left. Only the lock
/// holder calls this, so no live publisher of the key owns one.
void remove_stray_temps(const TuningDatabase& db, const KernelKey& key) {
  const std::string prefix =
      fs::path(key_file(db, key, ".tmp")).filename().string();
  std::error_code ec;
  for (fs::directory_iterator it(db.kernels_dir(), ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code ignored;
    if (it->path().filename().string().rfind(prefix, 0) == 0)
      fs::remove(it->path(), ignored);
  }
}

}  // namespace

std::string key_file(const TuningDatabase& db, const KernelKey& key,
                     const char* suffix) {
  char name[20];
  std::snprintf(name, sizeof(name), "/k%016llx",
                static_cast<unsigned long long>(fnv1a64(key.to_string())));
  return db.kernels_dir() + name + suffix;
}

KeyLock::KeyLock(const TuningDatabase& db, const KernelKey& key) {
  std::error_code ec;
  fs::create_directories(db.kernels_dir(), ec);
  fd_ = ::open(key_file(db, key, ".lock").c_str(),
               O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  int rc = 0;
  while ((rc = ::flock(fd_, LOCK_EX)) != 0 && errno == EINTR) {
  }
  if (rc != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

KeyLock::~KeyLock() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

TunedVariant publish_and_store(TuningDatabase& db, const KernelKey& key,
                               TunedVariant variant,
                               const CachedKernel& kernel) {
  remove_stray_temps(db, key);
  variant.artifact.reset();
  std::string bytes;
  if (read_file(kernel.module->so_path(), bytes) &&
      publish_bytes(db, key, bytes))
    variant.artifact = KernelArtifact{fnv1a64(bytes), kernel.symbol};
  db.store(key, variant);
  return variant;
}

std::shared_ptr<jit::CompiledModule> load_artifact(
    const TuningDatabase& db, const KernelKey& key,
    const KernelArtifact& artifact) {
  std::string bytes;
  if (!read_file(key_file(db, key, ".so"), bytes) ||
      fnv1a64(bytes) != artifact.fnv)
    return nullptr;
  try {
    auto module = std::make_shared<jit::CompiledModule>(jit::load_bytes(bytes));
    (void)module->raw_symbol(artifact.symbol);
    return module;
  } catch (const Error&) {
    return nullptr;
  }
}

}  // namespace augem::runtime
