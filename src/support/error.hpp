#pragma once
// Error handling for the AUGEM framework.
//
// The framework is a code generator: almost every failure is a programming
// or usage error (malformed IR, impossible unroll factor). We signal these
// with augem::Error carrying a human-readable message, and provide CHECK
// macros that capture the failing expression and source location. One
// subclass, augem::Refusal, marks the generator declining a configuration
// it cannot lay out in the target's registers: an expected, out-of-domain
// outcome the tuner prunes and mirlint and the fuzzer count as rejected.
// Any other augem::Error from generation is a defect.

#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>

namespace augem {

/// Exception thrown on any AUGEM usage or internal-consistency error.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// The generator refuses a configuration; `stage()` names the check.
class Refusal : public Error {
 public:
  enum class Stage {
    kPlanner,          ///< opt/plan.cpp: Shuf shape or register budget
    kVectorRegisters,  ///< opt/regalloc.cpp: out of vector registers
    kIntegerScratch,   ///< asmgen/codegen.cpp: out of integer scratch
  };

  Refusal(Stage stage, const std::string& what) : Error(what), stage_(stage) {}
  Stage stage() const { return stage_; }

 private:
  Stage stage_;
};

namespace detail {

/// Throws augem::Refusal when `refused` names a stage, else augem::Error.
[[noreturn]] inline void throw_check_failure(
    const char* expr, const char* file, int line, const std::string& msg,
    std::optional<Refusal::Stage> refused) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  if (refused) throw Refusal(*refused, os.str());
  throw Error(os.str());
}

}  // namespace detail
}  // namespace augem

#define AUGEM_DETAIL_CHECK(expr, refused, ...)                            \
  do {                                                                    \
    if (!(expr)) {                                                        \
      std::ostringstream augem_check_os_;                                 \
      (void)(augem_check_os_ __VA_OPT__(<< __VA_ARGS__));                 \
      ::augem::detail::throw_check_failure(                               \
          #expr, __FILE__, __LINE__, augem_check_os_.str(), refused);     \
    }                                                                     \
  } while (0)

/// Throws augem::Error if `expr` is false. Usage:
///   AUGEM_CHECK(n > 0, "vector length must be positive, got " << n);
#define AUGEM_CHECK(expr, ...) \
  AUGEM_DETAIL_CHECK(expr, std::nullopt, __VA_ARGS__)

/// Throws augem::Refusal naming `stage` if `expr` is false: the generator
/// refuses the configuration. Usage:
///   AUGEM_REFUSE_UNLESS(held <= budget, Refusal::Stage::kPlanner, "...");
#define AUGEM_REFUSE_UNLESS(expr, stage, ...) \
  AUGEM_DETAIL_CHECK(expr, stage, __VA_ARGS__)

/// Unconditional failure with a message.
#define AUGEM_FAIL(...) AUGEM_CHECK(false, __VA_ARGS__)
