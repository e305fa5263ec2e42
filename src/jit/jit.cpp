#include "jit/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "support/error.hpp"

namespace augem::jit {

struct CompiledModule::Impl {
  void* handle = nullptr;
  std::string s_path;
  std::string so_path;

  ~Impl() {
    if (handle != nullptr) dlclose(handle);
    if (!s_path.empty()) std::remove(s_path.c_str());
    if (!so_path.empty()) std::remove(so_path.c_str());
  }
};

CompiledModule::CompiledModule(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CompiledModule::CompiledModule(CompiledModule&&) noexcept = default;
CompiledModule& CompiledModule::operator=(CompiledModule&&) noexcept = default;
CompiledModule::~CompiledModule() = default;

void* CompiledModule::raw_symbol(const std::string& name) const {
  AUGEM_CHECK(impl_ != nullptr && impl_->handle != nullptr, "module not loaded");
  dlerror();
  void* sym = dlsym(impl_->handle, name.c_str());
  AUGEM_CHECK(sym != nullptr, "symbol '" << name << "' not found: "
                                         << (dlerror() ? dlerror() : "?"));
  return sym;
}

const std::string& CompiledModule::so_path() const { return impl_->so_path; }

namespace {

/// Creates (and keeps) a fresh empty file `<tmpdir>/augem_jit_XXXXXX<suffix>`
/// and returns its path. mkstemps makes the creation atomic and exclusive
/// (O_CREAT|O_EXCL on a kernel-randomized name), so concurrent processes —
/// or a PID-reusing successor of a crashed one — sharing the temp directory
/// can never collide on a path the way a pid+counter scheme could.
std::string make_temp_file(const char* suffix) {
  const char* dir = std::getenv("TMPDIR");
  std::string tmpl = std::string(dir != nullptr && dir[0] != '\0' ? dir : "/tmp") +
                     "/augem_jit_XXXXXX" + suffix;
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const int fd = mkstemps(buf.data(), static_cast<int>(std::strlen(suffix)));
  AUGEM_CHECK(fd >= 0, "cannot create temp file " << tmpl);
  close(fd);
  return std::string(buf.data());
}

/// Runs a shell command, capturing combined output; returns exit status.
int run_command(const std::string& cmd, std::string& output) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  AUGEM_CHECK(pipe != nullptr, "failed to spawn assembler");
  char buf[512];
  output.clear();
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  return pclose(pipe);
}

}  // namespace

CompiledModule assemble(const std::string& asm_text) {
  auto impl = std::make_unique<CompiledModule::Impl>();
  impl->s_path = make_temp_file(".s");
  impl->so_path = make_temp_file(".so");

  {
    std::ofstream out(impl->s_path);
    AUGEM_CHECK(out.good(), "cannot write " << impl->s_path);
    out << asm_text;
  }

  // gcc is used strictly as an assembler + linker driver: the input is
  // already assembly, -nostdlib keeps the object self-contained.
  const std::string cmd = "gcc -x assembler " + impl->s_path +
                          " -shared -nostdlib -o " + impl->so_path;
  std::string output;
  const int status = run_command(cmd, output);
  AUGEM_CHECK(status == 0, "assembler failed:\n" << output);

  impl->handle = dlopen(impl->so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  AUGEM_CHECK(impl->handle != nullptr,
              "dlopen failed: " << (dlerror() ? dlerror() : "?"));
  return CompiledModule(std::move(impl));
}

CompiledModule compile_c(const std::string& c_text, const std::string& flags) {
  auto impl = std::make_unique<CompiledModule::Impl>();
  impl->s_path = make_temp_file(".c");
  impl->so_path = make_temp_file(".so");
  {
    std::ofstream out(impl->s_path);
    AUGEM_CHECK(out.good(), "cannot write " << impl->s_path);
    out << c_text;
  }
  const std::string cmd = "gcc -x c " + flags + " -fPIC -shared " +
                          impl->s_path + " -o " + impl->so_path;
  std::string output;
  const int status = run_command(cmd, output);
  AUGEM_CHECK(status == 0, "C compiler failed:\n" << output);
  impl->handle = dlopen(impl->so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  AUGEM_CHECK(impl->handle != nullptr,
              "dlopen failed: " << (dlerror() ? dlerror() : "?"));
  return CompiledModule(std::move(impl));
}

CompiledModule load_bytes(std::string_view so_bytes) {
  auto impl = std::make_unique<CompiledModule::Impl>();
  impl->so_path = make_temp_file(".so");
  {
    std::ofstream out(impl->so_path, std::ios::binary);
    out.write(so_bytes.data(), static_cast<std::streamsize>(so_bytes.size()));
    AUGEM_CHECK(out.good(), "cannot write " << impl->so_path);
  }
  impl->handle = dlopen(impl->so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  AUGEM_CHECK(impl->handle != nullptr,
              "dlopen failed: " << (dlerror() ? dlerror() : "?"));
  return CompiledModule(std::move(impl));
}

bool toolchain_available() {
  static const bool available = [] {
    std::string output;
    return run_command("gcc --version", output) == 0;
  }();
  return available;
}

}  // namespace augem::jit
