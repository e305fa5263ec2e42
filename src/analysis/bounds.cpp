#include "analysis/bounds.hpp"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/symexec.hpp"

namespace augem::analysis {

using ir::Poly;
using opt::Gpr;
using opt::Mem;
using opt::MInst;
using opt::MInstList;
using opt::MOp;

namespace {

using symexec::AccessRef;
using symexec::IntState;
using symexec::kNoneIdx;
using symexec::kRsp0;
using symexec::LoopShape;
using symexec::SymVal;

/// Bytes a prefetch may range beyond (or before) its buffer.
constexpr std::int64_t kPrefetchSlackBytes = 1024;

/// The bounds prover: the shared symbolic engine plus the access-checking
/// policy (what must be proven about each load/store/prefetch and what an
/// uninterpretable shape means — a single bounds-unsupported error).
class BoundsEngine : private symexec::SymExec {
 public:
  BoundsEngine(const MInstList& insts, const KernelContract& contract,
               AnalysisReport& report)
      : SymExec(insts, contract), report_(report) {}

  void run() {
    IntState st = initial_state();
    analyze_span(0, insts_.size(), st, /*check=*/true);
  }

 private:
  AnalysisReport& report_;
  bool bailed_ = false;

  // ---- findings ------------------------------------------------------------

  void bail(std::size_t i, const std::string& why) {
    if (bailed_) return;
    bailed_ = true;
    report_.add(i, Severity::kError, "bounds-unsupported",
                "symbolic bounds analysis cannot interpret this code (" +
                    why + "); remaining accesses are unproven");
  }

  // ---- memory access checks ------------------------------------------------

  void check_stack_access(std::size_t i, const IntState& st, std::int64_t off,
                          int bytes, bool is_write) {
    // Own frame (spill slots + saved registers) below the entry rsp...
    if (off >= st.rsp_rel && off + bytes <= 0) return;
    // ...or the caller's stack-argument area above the return address,
    // which the kernel must not write.
    if (!is_write && off >= 8 && off + bytes <= 8 + 8 * num_stack_args())
      return;
    report_.add(i, Severity::kError, "oob-frame",
                std::string(is_write ? "store to" : "load from") +
                    " stack offset " + std::to_string(off) +
                    " (entry-rsp-relative) outside the frame [" +
                    std::to_string(st.rsp_rel) + ", 0) and argument area [8, " +
                    std::to_string(8 + 8 * num_stack_args()) + ")");
  }

  void check_data_access(std::size_t i, const Poly& addr, int bytes,
                         bool is_write, bool is_prefetch) {
    // The address must be base + offset for exactly one contract buffer.
    const BufferSpec* buf = nullptr;
    for (const std::string& p : pointer_syms()) {
      const std::optional<Poly> c = addr.coefficient_of(p);
      if (!c || c->without_constant().terms().empty() == false ||
          c->constant_part() == 0)
        continue;
      if (c->constant_part() != 1 || buf != nullptr) {
        report_.add(i, Severity::kError, "unknown-address",
                    "address " + addr.to_string() +
                        " is not a unit offset into a single kernel buffer");
        return;
      }
      buf = contract_.buffer_for(p);
    }
    if (buf == nullptr) {
      if (is_prefetch) return;  // prefetching a non-buffer address is a
                                // hint; it cannot fault
      report_.add(i, Severity::kError, "unknown-address",
                  "address " + addr.to_string() +
                      " is not a provable offset into any kernel buffer");
      return;
    }
    if (is_write && !buf->writable) {
      report_.add(i, Severity::kError, "readonly-store",
                  "store into read-only buffer '" + buf->param + "'");
      return;
    }
    const Poly off = addr - Poly::variable(buf->param);
    const std::int64_t slack = is_prefetch ? kPrefetchSlackBytes : 0;
    const Severity sev = is_prefetch ? Severity::kWarning : Severity::kError;
    const char* kind =
        is_prefetch ? "oob-prefetch" : (is_write ? "oob-store" : "oob-load");
    // 0 <= off (- slack)  &&  off + bytes <= 8*extent (+ slack).
    if (!prove_nonneg(off + Poly::constant(slack)))
      report_.add(i, sev, kind,
                  std::string(is_prefetch ? "prefetch of" : is_write
                                                                ? "store to"
                                                                : "load from") +
                      " '" + buf->param + "' at byte offset " +
                      off.to_string() + ": cannot prove offset >= " +
                      std::to_string(-slack));
    const Poly room = Poly::constant(8) * buf->extent_elems +
                      Poly::constant(slack - bytes) - off;
    if (!prove_nonneg(room))
      report_.add(i, sev, kind,
                  std::string(is_prefetch ? "prefetch of" : is_write
                                                                ? "store to"
                                                                : "load from") +
                      " '" + buf->param + "' at byte offset " +
                      off.to_string() + " + " + std::to_string(bytes) +
                      " bytes: cannot prove it stays within 8*(" +
                      buf->extent_elems.to_string() + ")" +
                      (slack ? " + slack " + std::to_string(slack) : ""));
  }

  /// Routes one memory operand to the stack or data checker.
  void check_access(std::size_t i, const IntState& st, const Mem& m, int bytes,
                    bool is_write, bool is_prefetch) {
    const AccessRef ref = classify_access(st, m);
    switch (ref.kind) {
      case AccessRef::kUnknown:
        if (ref.nonconst_stack) {
          report_.add(i, Severity::kError, "unknown-address",
                      "non-constant stack address " + ref.addr->to_string());
        } else if (!is_prefetch) {
          report_.add(i, Severity::kError, "unknown-address",
                      "memory access through a register with no symbolic "
                      "value");
        }
        break;
      case AccessRef::kStack:
        if (!is_prefetch)
          check_stack_access(i, st, ref.slot, bytes, is_write);
        break;
      case AccessRef::kData:
        check_data_access(i, *ref.addr, bytes, is_write, is_prefetch);
        break;
    }
  }

  // ---- abstract execution --------------------------------------------------

  void exec(std::size_t i, IntState& st, bool check) {
    const MInst& inst = insts_[i];
    if (check) {
      switch (inst.op) {
        case MOp::kILoad:
        case MOp::kIAddMem:
        case MOp::kISubMem:
        case MOp::kIMulMem:
          check_access(i, st, inst.mem, 8, false, false);
          break;
        case MOp::kIStore:
          check_access(i, st, inst.mem, 8, true, false);
          break;
        case MOp::kVLoad:
          check_access(i, st, inst.mem, 8 * inst.width, false, false);
          break;
        case MOp::kVBroadcast:
        case MOp::kFLoad:
          check_access(i, st, inst.mem, 8, false, false);
          break;
        case MOp::kVStore:
          check_access(i, st, inst.mem, 8 * inst.width, true, false);
          break;
        case MOp::kFStore:
          check_access(i, st, inst.mem, 8, true, false);
          break;
        case MOp::kPrefetch:
          // A prefetch cannot fault; it is checked (with slack) so that a
          // runaway prefetch cursor is still surfaced, at warning severity.
          check_access(i, st, inst.mem, 64, false, true);
          break;
        default:
          break;
      }
    }
    std::string why;
    if (!exec_int(i, st, &why)) bail(i, why);
  }

  // ---- loop protocol -------------------------------------------------------

  bool analyze_loop(std::size_t head, std::size_t latch, IntState& st,
                    bool check) {
    std::size_t where = head;
    std::string why;
    const std::optional<LoopShape> shape =
        loop_shape(head, latch, st, &where, &why);
    if (!shape) {
      bail(where, why);
      return false;
    }

    // Pass A: one abstract iteration from the entry state, checks off, to
    // discover every location's per-iteration delta.
    IntState s1 = st;
    if (!analyze_span(head + 1, latch, s1, /*check=*/false)) return false;

    // The bound must be loop-invariant.
    const bool bound_ok = bound_invariant(*shape, s1);

    // Counter step: constant and positive.
    const std::optional<std::int64_t> step = loop_step(*shape, s1, &where, &why);
    if (!step) {
      bail(where, why);
      return false;
    }

    // The counter symbol: value of the counter location at body entry.
    const std::string ct = make_counter_symbol(*shape, *step, bound_ok);

    if (check) {
      IntState body = st;
      apply(body, inducted(*shape, st, s1, *step, Poly::variable(ct)));
      if (!analyze_span(head + 1, latch, body, /*check=*/true)) return false;
    }

    // Exit: everything inductive is re-expressed in a fresh exit symbol so
    // remainder loops keep the cursor/counter correlation.
    const std::string ex = make_exit_symbol(*shape, *step, bound_ok);
    apply(st, inducted(*shape, st, s1, *step, Poly::variable(ex)));
    return true;
  }

  // ---- structured walk -----------------------------------------------------

  bool analyze_span(std::size_t first, std::size_t last, IntState& st,
                    bool check) {
    std::size_t i = first;
    while (i < last && !bailed_) {
      const MInst& inst = insts_[i];
      if (inst.op == MOp::kLabel) {
        const std::size_t latch = find_latch(i, last);
        if (latch != kNoneIdx) {
          if (!analyze_loop(i, latch, st, check)) return false;
          i = latch + 1;
          continue;
        }
        ++i;
        continue;
      }
      if (is_cond_jump(inst.op)) {
        // Forward guards fall through here; the loop protocol accounts for
        // the skip path through the exit-symbol parametrization. A backward
        // jump at this point was not matched as a loop latch.
        auto target_is_forward = [&] {
          for (std::size_t j = i + 1; j < insts_.size(); ++j)
            if (insts_[j].op == MOp::kLabel && insts_[j].label == inst.label)
              return true;
          return false;
        };
        if (!target_is_forward()) {
          bail(i, "backward jump outside the counted-loop idiom");
          return false;
        }
        ++i;
        continue;
      }
      if (inst.op == MOp::kJmp) {
        bail(i, "unconditional jump");
        return false;
      }
      exec(i, st, check);
      ++i;
    }
    return !bailed_;
  }
};

}  // namespace

void run_bounds_check(const MInstList& insts, const KernelContract& contract,
                      AnalysisReport& report) {
  BoundsEngine(insts, contract, report).run();
}

}  // namespace augem::analysis
