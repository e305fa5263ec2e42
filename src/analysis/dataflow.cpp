#include "analysis/passes.hpp"

#include <cstdint>
#include <string>

namespace augem::analysis {

using opt::Gpr;
using opt::gpr_at;
using opt::gpr_name;
using opt::MInst;
using opt::MInstList;
using opt::MOp;
using opt::Vr;
using opt::vr_at;
using opt::vr_name;

namespace {

// One bit per register: GPRs at [0,16), vector registers at [16,32).
using RegSet = std::uint32_t;

constexpr RegSet kAll = ~RegSet{0};

RegSet gbit(Gpr g) { return RegSet{1} << index_of(g); }
RegSet vbit(Vr v) { return RegSet{1} << (16 + index_of(v)); }

RegSet entry_defined(int num_f64_params) {
  RegSet s = gbit(Gpr::rdi) | gbit(Gpr::rsi) | gbit(Gpr::rdx) |
             gbit(Gpr::rcx) | gbit(Gpr::r8) | gbit(Gpr::r9) | gbit(Gpr::rsp);
  for (int p = 0; p < num_f64_params && p < 8; ++p) s |= vbit(vr_at(p));
  return s;
}

struct DefUse {
  RegSet defs = 0;
  RegSet uses = 0;
};

DefUse def_use(const MInst& inst) {
  static thread_local std::vector<Gpr> dg, ug;
  static thread_local std::vector<Vr> dv, uv;
  DefUse r;
  defs_of(inst, dg, dv);
  for (Gpr g : dg) r.defs |= gbit(g);
  for (Vr v : dv) r.defs |= vbit(v);
  uses_of(inst, ug, uv);
  // Pushes in the prologue save caller-owned values: not "reads" of
  // generator-initialized state.
  if (inst.op != MOp::kPush) {
    for (Gpr g : ug) r.uses |= gbit(g);
    for (Vr v : uv) r.uses |= vbit(v);
  }
  return r;
}

}  // namespace

void run_definite_assignment(const Cfg& cfg, int num_f64_params,
                             AnalysisReport& report) {
  const MInstList& insts = *cfg.insts;
  if (cfg.blocks.empty()) return;

  // Forward must-analysis: OUT[b] = registers definitely written on every
  // path from entry through the end of b. Optimistic initialization, meet
  // is intersection.
  std::vector<RegSet> out(cfg.size(), kAll);
  const RegSet entry = entry_defined(num_f64_params);

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = 0; bi < cfg.size(); ++bi) {
      const BasicBlock& b = cfg.blocks[bi];
      RegSet in = bi == 0 ? entry : kAll;
      for (std::size_t p : b.preds) in &= out[p];
      RegSet cur = in;
      for (std::size_t i = b.first; i < b.last; ++i)
        cur |= def_use(insts[i]).defs;
      if (cur != out[bi]) {
        out[bi] = cur;
        changed = true;
      }
    }
  }

  // Reporting walk with the fixpoint IN states.
  for (std::size_t bi = 0; bi < cfg.size(); ++bi) {
    const BasicBlock& b = cfg.blocks[bi];
    RegSet defined = bi == 0 ? entry : kAll;
    for (std::size_t p : b.preds) defined &= out[p];
    for (std::size_t i = b.first; i < b.last; ++i) {
      const MInst& inst = insts[i];
      const DefUse du = def_use(inst);
      for (int v = 0; v < opt::kNumVrs; ++v)
        if ((du.uses & vbit(vr_at(v))) && !(defined & vbit(vr_at(v))))
          report.add(i, Severity::kError, "read-uninit-vreg",
                     std::string("read of uninitialized vector register ") +
                         vr_name(vr_at(v), inst.width));
      for (int g = 0; g < opt::kNumGprs; ++g)
        if ((du.uses & gbit(gpr_at(g))) && !(defined & gbit(gpr_at(g))))
          report.add(i, Severity::kError, "read-uninit-gpr",
                     std::string("read of uninitialized register ") +
                         gpr_name(gpr_at(g)));
      defined |= du.defs;
    }
  }
}

void run_dead_store_check(const Cfg& cfg, AnalysisReport& report) {
  const MInstList& insts = *cfg.insts;
  if (cfg.blocks.empty()) return;

  // Backward may-analysis over the vector registers only: GPR overwrites
  // without intervening reads are idiomatic (counter resets, epilogue pops),
  // but a vector result that never reaches a use is a wasted issue slot —
  // exactly the waste the register queues exist to avoid.
  const RegSet vmask = ~RegSet{0} << 16;
  // A double return value travels in xmm0; treat it as live at every ret.
  const RegSet ret_live = vbit(Vr::v0);

  std::vector<RegSet> in(cfg.size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = cfg.size(); bi-- > 0;) {
      const BasicBlock& b = cfg.blocks[bi];
      RegSet live = insts[b.last - 1].op == MOp::kRet ? ret_live : 0;
      for (std::size_t s : b.succs) live |= in[s];
      for (std::size_t i = b.last; i-- > b.first;) {
        const DefUse du = def_use(insts[i]);
        live = (live & ~du.defs) | (du.uses & vmask);
      }
      if (live != in[bi]) {
        in[bi] = live;
        changed = true;
      }
    }
  }

  for (std::size_t bi = 0; bi < cfg.size(); ++bi) {
    const BasicBlock& b = cfg.blocks[bi];
    RegSet live = insts[b.last - 1].op == MOp::kRet ? ret_live : 0;
    for (std::size_t s : b.succs) live |= in[s];
    for (std::size_t i = b.last; i-- > b.first;) {
      const MInst& inst = insts[i];
      const DefUse du = def_use(inst);
      if (inst.vdst != Vr::kNoVr && (du.defs & vbit(inst.vdst)) &&
          !(live & vbit(inst.vdst)))
        report.add(i, Severity::kWarning, "dead-store",
                   std::string("value written to ") +
                       vr_name(inst.vdst, inst.width) +
                       " is never read (dead store)");
      live = (live & ~du.defs) | (du.uses & vmask);
    }
  }
}

void run_queue_reuse_check(const Cfg& cfg, AnalysisReport& report) {
  // How many instructions after a non-copy use of a vector register a
  // load-class redefinition of it is considered "in flight".
  constexpr int kWindow = 2;
  const MInstList& insts = *cfg.insts;
  auto is_load_class = [](MOp op) {
    return op == MOp::kVLoad || op == MOp::kVBroadcast || op == MOp::kFLoad;
  };
  auto is_meta = [](MOp op) { return op == MOp::kComment || op == MOp::kLabel; };

  static thread_local std::vector<Gpr> ug;
  static thread_local std::vector<Vr> uv;
  for (const BasicBlock& b : cfg.blocks) {
    for (std::size_t i = b.first; i < b.last; ++i) {
      const MInst& inst = insts[i];
      if (!is_load_class(inst.op) || inst.vdst == Vr::kNoVr) continue;
      // Scan the previous kWindow real instructions of the block for a
      // pending non-copy use of the register being reloaded. Register
      // copies (kVMov) are excluded: the generator emits them precisely to
      // break this dependence before rotating the queue.
      int seen = 0;
      for (std::size_t j = i; j-- > b.first && seen < kWindow;) {
        if (is_meta(insts[j].op)) continue;
        ++seen;
        if (insts[j].op == MOp::kVMov) continue;
        uses_of(insts[j], ug, uv);
        bool used = false;
        for (Vr v : uv) used |= v == inst.vdst;
        if (used) {
          report.add(i, Severity::kWarning, "queue-false-dependence",
                     std::string("queue register ") +
                         vr_name(inst.vdst, inst.width) + " reloaded " +
                         std::to_string(seen) +
                         " instruction(s) after a pending use "
                         "(write-after-read false dependence defeats the "
                         "register-queue rotation)");
          break;
        }
        // A full redefinition ends the hazard window for older uses.
        const DefUse du = def_use(insts[j]);
        if (du.defs & vbit(inst.vdst)) break;
      }
    }
  }
}

}  // namespace augem::analysis
