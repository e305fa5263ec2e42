#pragma once
// Shared symbolic-execution machinery for the machine-IR analyses.
//
// Models every GPR and frame slot as a polynomial (ir::Poly) over the
// kernel's contract parameters plus bounded loop-counter symbols, and
// interprets the generator's counted-loop idiom
//
//     init; cmp; jge END; HEAD: body…; add step; cmp; jl HEAD; END:
//
// by two-pass induction: a discovery pass finds each location's
// per-iteration delta, then inductive locations are re-expressed as affine
// functions of a fresh bounded counter symbol. Loop exits are parametrized
// by an exit symbol (which also covers the zero-trip path), so remainder
// loops that continue a counter keep the cursor/counter correlation.
//
// Two passes build on this engine: the memory-bounds prover (bounds.cpp)
// and the translation validator (semantics.cpp). The bounds pass owns the
// access-checking policy; the semantics pass layers per-lane floating-point
// expression tracking on top of the same integer state and loop protocol.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/contract.hpp"
#include "ir/affine.hpp"
#include "opt/minst.hpp"

namespace augem::analysis::symexec {

constexpr std::size_t kNoneIdx = static_cast<std::size_t>(-1);

/// Entry-rsp symbol: stack addresses are RSP0-relative constants.
extern const char* const kRsp0;

/// Abstract value: a polynomial over parameter/counter symbols, or unknown.
using SymVal = std::optional<ir::Poly>;

struct SymInfo {
  std::string name;
  std::optional<ir::Poly> lo;  ///< inclusive lower bound (over older symbols)
  std::optional<ir::Poly> hi;  ///< inclusive upper bound (over older symbols)
  bool nonneg = false;
  std::int64_t divisible_by = 1;
};

enum class Sign { kNonNeg, kNonPos, kUnknown };

/// A trackable storage location: a GPR or an entry-rsp-relative frame slot.
struct Loc {
  bool is_slot = false;
  opt::Gpr reg = opt::Gpr::kNoGpr;
  std::int64_t off = 0;

  bool operator<(const Loc& o) const {
    if (is_slot != o.is_slot) return is_slot < o.is_slot;
    if (is_slot) return off < o.off;
    return reg < o.reg;
  }
  bool operator==(const Loc& o) const {
    return is_slot == o.is_slot && (is_slot ? off == o.off : reg == o.reg);
  }
};

struct IntState {
  std::array<SymVal, opt::kNumGprs> gpr;
  std::map<std::int64_t, SymVal> stack;  ///< entry-rsp-relative offset -> val
  std::int64_t rsp_rel = 0;              ///< rsp - entry rsp (<= 0)
};

/// Classification of one memory operand's symbolic address.
struct AccessRef {
  enum Kind {
    kUnknown,  ///< no symbolic address (or non-constant stack address)
    kStack,    ///< constant entry-rsp-relative frame offset
    kData,     ///< a symbolic data address (see `addr`)
  } kind = kUnknown;
  std::int64_t slot = 0;          ///< kStack: entry-rsp-relative offset
  std::optional<ir::Poly> addr;   ///< kData: the full symbolic address
  bool nonconst_stack = false;    ///< kUnknown due to a moving stack address
};

/// Integer facts about one counted loop, gathered before the discovery pass.
struct LoopShape {
  std::size_t head = 0;     ///< index of the loop-head label
  std::size_t latch = 0;    ///< index of the conditional back-jump
  std::size_t cmp_idx = 0;  ///< the compare feeding the latch
  Loc counter;              ///< storage location of the loop counter
  ir::Poly c0;              ///< counter value at loop entry
  SymVal bound0;            ///< loop bound evaluated at entry
  bool guarded = false;     ///< `cmp c0,B; jge END` precedes the head
  std::set<Loc> modified;   ///< locations written anywhere in the body
  std::size_t watermark = 0;  ///< symbol count at loop entry
};

/// The shared engine. Analyses either use it as a member or derive from it;
/// it has no findings policy of its own — callers decide what an
/// uninterpretable shape means.
class SymExec {
 public:
  SymExec(const opt::MInstList& insts, const KernelContract& contract);

  // ---- symbols and proofs ------------------------------------------------

  std::size_t add_symbol(SymInfo info);
  const SymInfo* find_symbol(const std::string& name) const;

  /// Syntactic sign: every term has the given sign with all variables
  /// known nonnegative. Conservative (kUnknown fails proofs).
  Sign sign_of(const ir::Poly& p) const;

  /// Constant lower bound of `p` by monomial-wise symbol elimination:
  /// a symbol with nonnegative coefficient is replaced by its lower bound,
  /// with nonpositive coefficient by its upper bound. Substituted bounds
  /// may reference other symbols, so sweep until only a constant remains.
  std::optional<std::int64_t> lower_bound(ir::Poly p) const;

  bool prove_nonneg(const ir::Poly& p) const;

  /// True when `p` is provably a multiple of `d` (term-wise, using the
  /// declared divisibility of each variable; arithmetic is mod d).
  bool divisible(const ir::Poly& p, std::int64_t d) const;

  static std::optional<ir::Poly> poly_div(const ir::Poly& p, std::int64_t d);

  /// Every variable of `p` was created before symbol index `watermark`.
  bool uses_only_older(const ir::Poly& p, std::size_t watermark) const;

  const std::set<std::string>& pointer_syms() const { return pointer_syms_; }
  int num_stack_args() const { return n_stack_args_; }

  // ---- state -------------------------------------------------------------

  /// SysV entry state: integer-class contract arguments in rdi..r9 then
  /// stack slots at +8…; f64 args are skipped (SSE class, untracked here).
  IntState initial_state();

  SymVal get(const IntState& st, opt::Gpr g) const;
  SymVal get_loc(const IntState& st, const Loc& l) const;
  static void set_loc(IntState& st, const Loc& l, SymVal v);
  SymVal addr_of(const IntState& st, const opt::Mem& m) const;

  /// Splits a memory operand into frame slot / data address / unknown.
  AccessRef classify_access(const IntState& st, const opt::Mem& m) const;

  /// The contract buffer a data address points into, with the byte offset
  /// from its base; nullopt when the address is not a unit offset into
  /// exactly one buffer.
  std::optional<std::pair<const BufferSpec*, ir::Poly>> data_ref(
      const ir::Poly& addr) const;

  /// Abstract integer transfer for one instruction (moves, arithmetic,
  /// lea, loads/stores with frame-slot forwarding, push/pop, rsp
  /// adjustments). Vector arithmetic, compares, labels and prefetches have
  /// no integer effect. Returns false (with *why) on a write to rsp
  /// outside the frame idiom.
  bool exec_int(std::size_t i, IntState& st, std::string* why) const;

  // ---- counted-loop idiom ------------------------------------------------

  /// Index of the latest conditional back-jump in (head, last) targeting
  /// the label at `head`, or kNoneIdx.
  std::size_t find_latch(std::size_t head, std::size_t last) const;

  /// Previous non-comment instruction at or above `floor`, or kNoneIdx.
  std::size_t prev_real(std::size_t i, std::size_t floor) const;

  /// Value of the compare's right operand (the loop bound) in `st`.
  SymVal cmp_rhs_value(std::size_t cmp_idx, const IntState& st) const;

  /// The storage location whose value the compare at `cmp_idx` reads as its
  /// left operand, looking back through at most one reload from a frame
  /// slot. `floor` limits the def search.
  std::optional<Loc> trace_cmp_lhs(std::size_t cmp_idx, std::size_t floor,
                                   const IntState& st) const;

  /// Locations written anywhere in [first, last): GPR defs plus constant
  /// rsp-relative stores. Returns false (with *where/*why) on pushes/pops
  /// inside the range, rsp writes, or non-constant stack stores.
  bool modified_locs(std::size_t first, std::size_t last, const IntState& st,
                     std::set<Loc>& out, std::size_t* where,
                     std::string* why) const;

  /// Full pre-discovery loop analysis: latch/compare shape, counter
  /// location and entry value, bound, pre-guard, modified set. Returns
  /// nullopt (with *where/*why) when the loop is not the counted idiom.
  std::optional<LoopShape> loop_shape(std::size_t head, std::size_t latch,
                                      const IntState& st, std::size_t* where,
                                      std::string* why) const;

  /// Counter step extracted from the discovery-pass exit state `s1`;
  /// nullopt (with *where/*why) unless it is a positive constant.
  std::optional<std::int64_t> loop_step(const LoopShape& shape,
                                        const IntState& s1, std::size_t* where,
                                        std::string* why) const;

  /// True when the bound reads the same value after one iteration.
  bool bound_invariant(const LoopShape& shape, const IntState& s1) const;

  /// Fresh `ct$N` symbol for the body pass: lo = c0; hi = bound - step when
  /// the guarded bound is divisible, bound - 1 otherwise.
  std::string make_counter_symbol(const LoopShape& shape, std::int64_t step,
                                  bool bound_ok);

  /// Fresh `exit$N` symbol: the counter leaves holding c0 + step * trips,
  /// in [c0, bound + step - 1] (covering the zero-trip path).
  std::string make_exit_symbol(const LoopShape& shape, std::int64_t step,
                               bool bound_ok);

  /// Induction map: every modified location that advanced by a
  /// loop-invariant multiple of the step, re-expressed in `sym`; the rest
  /// map to unknown.
  std::map<Loc, SymVal> inducted(const LoopShape& shape, const IntState& base,
                                 const IntState& s1, std::int64_t step,
                                 const ir::Poly& sym) const;

  static void apply(IntState& dst, const std::map<Loc, SymVal>& vals);

 protected:
  const opt::MInstList& insts_;
  const KernelContract& contract_;
  std::vector<SymInfo> symbols_;  // creation order; elimination runs newest
                                  // to oldest so bounds only reference what
                                  // remains
  std::map<std::string, std::size_t> sym_index_;
  std::set<std::string> pointer_syms_;
  int n_stack_args_ = 0;
  int fresh_ = 0;
};

}  // namespace augem::analysis::symexec
