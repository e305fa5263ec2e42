#include "asmgen/codegen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "analysis/analyzer.hpp"
#include "asmgen/abi.hpp"
#include "asmgen/printer.hpp"
#include "ir/visit.hpp"
#include "opt/schedule.hpp"
#include "support/error.hpp"

namespace augem::asmgen {

using namespace augem::ir;
using namespace augem::opt;

namespace {

/// Where an integer/pointer variable lives during the function body.
struct Home {
  bool in_reg = false;
  Gpr reg = Gpr::kNoGpr;
  int slot = -1;  ///< always valid: every variable owns a frame slot
};

/// Registers handed to integer variables, ordered caller-saved first so
/// small kernels avoid pushes. r10/r11 are reserved as statement scratch.
constexpr Gpr kAllocatableGprs[] = {
    Gpr::rdi, Gpr::rsi, Gpr::rdx, Gpr::rcx, Gpr::r8,  Gpr::r9, Gpr::rax,
    Gpr::rbx, Gpr::rbp, Gpr::r12, Gpr::r13, Gpr::r14, Gpr::r15};
constexpr Gpr kScratch0 = Gpr::r10;
constexpr Gpr kScratch1 = Gpr::r11;

class CodeGenerator {
 public:
  CodeGenerator(ir::Kernel kernel, const OptConfig& config,
                const analysis::KernelContract* contract)
      : kernel_(std::move(kernel)), config_(config), contract_(contract) {
    match_ = match::identify_templates(kernel_);
    plan_ = plan_vectorization(match_, config_);
  }

  GeneratedKernel run() {
    assign_bound_names();
    collect_stride_hoists();
    assign_homes();
    init_vector_world();
    emit_prologue();
    emit_stmts(kernel_.body());
    emit_epilogue();

    if (config_.schedule) schedule_instructions(out_);

    // Every generated kernel is statically analyzed before leaving the
    // generator (operand completeness, encoding constraints, frame and
    // flags discipline, path-sensitive initialization — and, when the
    // caller supplies a contract, symbolic memory-bounds proofs).
    analysis::check_clean(
        analysis::analyze(out_, analyze_options(kernel_, contract_)), out_);

    std::string text = print_function(kernel_.name(), out_);
    return GeneratedKernel{kernel_.name(),  std::move(text),
                           std::move(out_), config_,
                           frame_bytes_,    saved_,
                           std::move(kernel_)};
  }

 private:
  // ---- pre-passes ----------------------------------------------------------

  /// Names a hoisted loop-bound variable for every loop whose upper bound
  /// is neither a constant nor a plain variable.
  void assign_bound_names() {
    int counter = 0;
    for_each_stmt(kernel_.body(), [&](const Stmt& s) {
      const auto* loop = ir::as<ForStmt>(s);
      if (loop == nullptr) return;
      if (loop->upper().kind() == ExprKind::kIntConst) return;
      if (loop->upper().kind() == ExprKind::kVarRef) return;
      bound_name_[loop] = "bound$" + loop->var() + std::to_string(counter++);
    });
  }

  /// Finds cursor self-advances by a loop-invariant variable stride
  /// (`ptr = ptr + nc`). The byte stride (nc*8) is hoisted into a synthetic
  /// variable computed once in the prologue, turning each advance into a
  /// single add — the hot inner loops execute these every iteration.
  void collect_stride_hoists() {
    std::function<void(const StmtList&, int)> walk = [&](const StmtList& body,
                                                         int depth) {
      for (const StmtPtr& s : body) {
        if (const auto* loop = ir::as<ForStmt>(*s)) {
          walk(loop->body(), depth + 1);
          continue;
        }
        const auto* a = ir::as<Assign>(*s);
        if (a == nullptr) continue;
        const auto* dst = ir::as<VarRef>(a->lhs());
        if (dst == nullptr ||
            kernel_.type_of(dst->name()) != ScalarType::kPtrF64)
          continue;
        const auto* b = ir::as<Binary>(a->rhs());
        if (b == nullptr || b->op() != BinOp::kAdd) continue;
        const auto* base = ir::as<VarRef>(b->lhs());
        const auto* addend = ir::as<VarRef>(b->rhs());
        if (base == nullptr || addend == nullptr) continue;
        if (base->name() != dst->name()) continue;
        stride_weight_["stride$" + addend->name()] += std::pow(4.0, depth);
        stride_source_["stride$" + addend->name()] = addend->name();
      }
    };
    walk(kernel_.body(), 0);
  }

  /// Computes loop-depth-weighted use counts and assigns register homes.
  void assign_homes() {
    std::map<std::string, double> weight;

    // Arrays referenced inside template regions must be register-resident
    // (their memory operands are formed without scratch): give them an
    // overwhelming weight.
    for (const match::Region& region : match_.regions) {
      auto touch = [&](const std::string& arr) { weight[arr] += 1e9; };
      for (const auto& m : region.mm) {
        touch(m.arr_a);
        touch(m.arr_b);
      }
      for (const auto& m : region.mv) {
        touch(m.arr_a);
        touch(m.arr_b);
      }
      for (const auto& st : region.stores) touch(st.arr);
      for (const auto& st : region.epis) {
        touch(st.arr);
        if (st.bias) touch(st.bias_arr);
      }
    }

    std::function<void(const StmtList&, int)> walk = [&](const StmtList& body,
                                                         int depth) {
      const double w = std::pow(4.0, depth);
      for (const StmtPtr& s : body) {
        if (const auto* loop = ir::as<ForStmt>(*s)) {
          weight[loop->var()] += 4.0 * w;  // touched every iteration
          const auto bn = bound_name_.find(loop);
          if (bn != bound_name_.end()) {
            weight[bn->second] += 4.0 * w;
          } else if (const auto* v = ir::as<VarRef>(loop->upper())) {
            weight[v->name()] += 4.0 * w;  // compared every iteration
          }
          count_expr(loop->lower(), w, weight);
          walk(loop->body(), depth + 1);
          continue;
        }
        if (const auto* a = ir::as<Assign>(*s)) {
          count_expr(a->lhs(), w, weight);
          count_expr(a->rhs(), w, weight);
        } else if (const auto* p = ir::as<Prefetch>(*s)) {
          weight[p->base()] += w;
        }
      }
    };
    walk(kernel_.body(), 0);

    // Every integer/pointer variable (incl. synthetic bounds) gets a slot;
    // the heaviest get registers.
    std::vector<std::pair<double, std::string>> ranked;
    auto add_candidate = [&](const std::string& name) {
      const auto it = weight.find(name);
      ranked.push_back({it == weight.end() ? 0.0 : it->second, name});
    };
    for (const Param& p : kernel_.params())
      if (p.type != ScalarType::kF64) add_candidate(p.name);
    for (const Local& l : kernel_.locals())
      if (l.type != ScalarType::kF64) add_candidate(l.name);
    for (const auto& [loop, name] : bound_name_) add_candidate(name);
    for (const auto& [name, w] : stride_weight_) {
      weight[name] = w;
      add_candidate(name);
    }

    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });

    std::size_t next_reg = 0;
    for (const auto& [w, name] : ranked) {
      Home h;
      h.slot = next_slot_++;
      if (next_reg < std::size(kAllocatableGprs)) {
        h.in_reg = true;
        h.reg = kAllocatableGprs[next_reg++];
      }
      homes_[name] = h;
    }

    // F64 frame slots: every double parameter (the broadcast source) plus
    // any broadcast scalar loaded from memory is re-broadcast from its
    // original location, so only params need slots.
    for (const Param& p : kernel_.params())
      if (p.type == ScalarType::kF64) f64_slot_[p.name] = next_slot_++;

    frame_bytes_ = 8 * next_slot_;

    for (const auto& [name, h] : homes_)
      if (h.in_reg && is_callee_saved(h.reg)) saved_.push_back(h.reg);
    std::sort(saved_.begin(), saved_.end());
    saved_.erase(std::unique(saved_.begin(), saved_.end()), saved_.end());
  }

  static void count_expr(const Expr& e, double w,
                         std::map<std::string, double>& weight) {
    if (const auto* v = ir::as<VarRef>(e)) {
      weight[v->name()] += w;
    } else if (const auto* a = ir::as<ArrayRef>(e)) {
      weight[a->base()] += w;
      count_expr(a->index(), w, weight);
    } else if (const auto* b = ir::as<Binary>(e)) {
      count_expr(b->lhs(), w, weight);
      count_expr(b->rhs(), w, weight);
    }
  }

  void init_vector_world() {
    // Reserve the SSE argument registers holding F64 parameters.
    std::vector<Vr> reserved;
    for (const ArgLocation& arg : classify_arguments(kernel_))
      if (arg.type == ScalarType::kF64) reserved.push_back(arg.vr);

    std::vector<std::string> affinities;
    for (const match::Region& region : match_.regions) {
      auto touch = [&](const std::string& arr) {
        if (std::find(affinities.begin(), affinities.end(), arr) ==
            affinities.end())
          affinities.push_back(arr);
      };
      for (const auto& m : region.mm) {
        touch(m.arr_a);
        touch(m.arr_b);
      }
      for (const auto& m : region.mv) {
        touch(m.arr_a);
        touch(m.arr_b);
      }
      for (const auto& st : region.stores) touch(st.arr);
      for (const auto& st : region.epis) {
        touch(st.arr);
        if (st.bias) touch(st.bias_arr);
      }
    }
    vralloc_ = std::make_unique<VrAllocator>(affinities, config_.regalloc,
                                             reserved);

    ctx_.config = config_;
    ctx_.plan = plan_;
    ctx_.match = &match_;
    ctx_.vralloc = vralloc_.get();
    ctx_.out = &out_;
    ctx_.mem_of = [this](const std::string& array, std::int64_t off) {
      return mem_of(array, off);
    };
    compute_store_affinities(ctx_);
  }

  // ---- frame / operand helpers ---------------------------------------------

  Mem slot_mem(int slot) const { return mem_bd(Gpr::rsp, 8 * slot); }

  const Home& home(const std::string& name) const {
    const auto it = homes_.find(name);
    AUGEM_CHECK(it != homes_.end(), "no home for variable '" << name << "'");
    return it->second;
  }

  /// Ensures `name`'s value is in a register; returns it. Spilled variables
  /// are loaded into `scratch`.
  Gpr read_var(const std::string& name, Gpr scratch) {
    const Home& h = home(name);
    if (h.in_reg) return h.reg;
    out_.push_back(iload(scratch, slot_mem(h.slot)));
    return scratch;
  }

  Mem mem_of(const std::string& array, std::int64_t elem_off) {
    AUGEM_CHECK(elem_off * 8 <= INT32_MAX && elem_off * 8 >= INT32_MIN,
                "displacement overflow");
    const Home& h = home(array);
    if (h.in_reg) return mem_bd(h.reg, static_cast<std::int32_t>(elem_off * 8));
    // Cold (spilled) base: load it into a scratch register. Scratches
    // alternate so a caller may hold two live memory operands at once
    // (e.g. the mv optimizer's load/compute/store against two arrays).
    const Gpr scratch = mem_scratch_toggle_ ? kScratch1 : kScratch0;
    mem_scratch_toggle_ = !mem_scratch_toggle_;
    out_.push_back(iload(scratch, slot_mem(h.slot)));
    return mem_bd(scratch, static_cast<std::int32_t>(elem_off * 8));
  }

  // ---- prologue / epilogue ---------------------------------------------------

  void emit_prologue() {
    out_.push_back(comment("prologue: " + config_summary()));
    for (Gpr g : saved_) out_.push_back(push(g));
    if (frame_bytes_ > 0) out_.push_back(isub_imm(Gpr::rsp, frame_bytes_));

    const auto args = classify_arguments(kernel_);
    // Phase 1: spill every integer parameter to its slot (arg registers may
    // be reused as homes of other variables).
    for (const ArgLocation& arg : args) {
      if (arg.type == ScalarType::kF64) continue;
      const Home& h = home(arg.name);
      if (arg.in_register) {
        out_.push_back(istore(arg.gpr, slot_mem(h.slot)));
      } else {
        // Stack argument: entry offset shifted by our pushes and frame.
        const std::int32_t disp = frame_bytes_ +
                                  8 * static_cast<std::int32_t>(saved_.size()) +
                                  arg.entry_stack_offset;
        out_.push_back(iload(kScratch0, mem_bd(Gpr::rsp, disp)));
        out_.push_back(istore(kScratch0, slot_mem(h.slot)));
      }
    }
    // Phase 2: load register-resident variables from their slots.
    for (const ArgLocation& arg : args) {
      if (arg.type == ScalarType::kF64) continue;
      const Home& h = home(arg.name);
      if (h.in_reg) out_.push_back(iload(h.reg, slot_mem(h.slot)));
    }
    // Hoisted byte strides: stride$v = v * 8, computed once.
    for (const auto& [name, src] : stride_source_) {
      const Home& h = home(name);
      const Gpr target = h.in_reg ? h.reg : kScratch0;
      const Gpr v = read_var(src, target);
      if (v != target) out_.push_back(imov(target, v));
      out_.push_back(ishl_imm(target, 3));
      if (!h.in_reg) out_.push_back(istore(target, slot_mem(h.slot)));
    }
    // F64 parameters: bind in the reg_table (pinned); store to the frame
    // and broadcast when the plan requires a SIMD copy.
    for (const ArgLocation& arg : args) {
      if (arg.type != ScalarType::kF64) continue;
      ctx_.reg_table.bind(arg.name, arg.vr);
      ctx_.pinned_scalars.insert(arg.name);
      const Mem slot = slot_mem(f64_slot_.at(arg.name));
      out_.push_back(fstore(arg.vr, slot, isa_is_vex(config_.isa)));
      if (plan_.broadcast_scals.count(arg.name) > 0) {
        const Vr bc = vralloc_->alloc("");
        ctx_.broadcast_reg[arg.name] = bc;
        emit_broadcast(out_, config_.isa, isa_vector_doubles(config_.isa), bc,
                       slot);
      }
    }
  }

  void emit_epilogue() {
    // Returning to SSE-encoded caller code with dirty upper YMM state costs
    // AVX-SSE transition penalties on every call; clear it.
    if (isa_vector_bits(config_.isa) == 256) out_.push_back(opt::vzeroupper());
    if (kernel_.return_var()) {
      const std::string& res = *kernel_.return_var();
      AUGEM_CHECK(ctx_.reg_table.contains(res),
                  "return value '" << res << "' has no register");
      const Vr r = ctx_.reg_table.lookup(res);
      if (r != Vr::v0)
        out_.push_back(vmov(Vr::v0, r, 1, isa_is_vex(config_.isa)));
    }
    if (frame_bytes_ > 0) out_.push_back(iadd_imm(Gpr::rsp, frame_bytes_));
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it)
      out_.push_back(pop(*it));
    out_.push_back(ret());
  }

  std::string config_summary() const {
    std::string s = kernel_.name();
    s += " [";
    s += isa_name(config_.isa);
    s += ", ";
    s += vec_strategy_name(config_.strategy);
    s += "]";
    return s;
  }

  // ---- statement lowering ----------------------------------------------------

  void emit_stmts(const StmtList& body) {
    std::size_t p = 0;
    while (p < body.size()) {
      const Stmt& s = *body[p];
      if (!s.template_tag().empty()) {
        const int rid = s.region_id();
        emit_region(ctx_, match_.regions[static_cast<std::size_t>(rid)]);
        while (p < body.size() && body[p]->region_id() == rid) ++p;
        continue;
      }
      switch (s.kind()) {
        case StmtKind::kFor:
          emit_loop(*ir::as<ForStmt>(s));
          break;
        case StmtKind::kAssign:
          emit_assign(*ir::as<Assign>(s));
          break;
        case StmtKind::kPrefetch: {
          const auto& pf = *ir::as<Prefetch>(s);
          const auto* off = ir::as<IntConst>(pf.index());
          AUGEM_CHECK(off != nullptr, "prefetch index must be constant");
          out_.push_back(
              opt::prefetch(mem_of(pf.base(), off->value()),
                            static_cast<int>(pf.locality())));
          break;
        }
      }
      ++p;
    }
  }

  void emit_loop(const ForStmt& loop) {
    const std::string body_label = fresh_label("body_" + loop.var());
    const std::string end_label = fresh_label("end_" + loop.var());

    // Counter init (skipped for remainder loops continuing their counter).
    const auto* self = ir::as<VarRef>(loop.lower());
    if (self == nullptr || self->name() != loop.var())
      assign_int(loop.var(), loop.lower());

    // Bound: constant, plain variable, or hoisted synthetic.
    std::optional<std::int64_t> const_bound;
    std::string bound_var;
    if (const auto* c = ir::as<IntConst>(loop.upper())) {
      const_bound = c->value();
    } else if (const auto* v = ir::as<VarRef>(loop.upper())) {
      bound_var = v->name();
    } else {
      bound_var = bound_name_.at(&loop);
      assign_int(bound_var, loop.upper());
    }

    auto emit_compare = [&]() {
      const Gpr v = read_var(loop.var(), kScratch0);
      if (const_bound) {
        out_.push_back(cmp_imm(v, *const_bound));
      } else {
        const Gpr b = read_var(bound_var, kScratch1);
        out_.push_back(cmp(v, b));
      }
    };

    emit_compare();
    out_.push_back(jge(end_label));
    out_.push_back(opt::label(body_label));
    emit_stmts(loop.body());
    increment_var(loop.var(), loop.step());
    emit_compare();
    out_.push_back(jl(body_label));
    out_.push_back(opt::label(end_label));

    // Shared accumulators whose vectorized regions sat inside this loop are
    // reduced back to scalars right here (before any remainder loop).
    if (!ctx_.pending_reductions.empty()) emit_pending_reductions(ctx_);
  }

  void increment_var(const std::string& name, std::int64_t step) {
    const Home& h = home(name);
    if (h.in_reg) {
      out_.push_back(iadd_imm(h.reg, step));
      return;
    }
    out_.push_back(iload(kScratch0, slot_mem(h.slot)));
    out_.push_back(iadd_imm(kScratch0, step));
    out_.push_back(istore(kScratch0, slot_mem(h.slot)));
  }

  void emit_assign(const Assign& a) {
    // F64 world?
    if (const auto* dst = ir::as<VarRef>(a.lhs())) {
      const ScalarType t = kernel_.type_of(dst->name());
      if (t == ScalarType::kF64) {
        emit_f64_assign(dst->name(), a.rhs());
        return;
      }
      if (t == ScalarType::kPtrF64) {
        emit_ptr_assign(dst->name(), a.rhs());
        return;
      }
      assign_int(dst->name(), a.rhs());
      return;
    }
    // Untagged store: arr[c] = scalar.
    const auto* ref = ir::as<ArrayRef>(a.lhs());
    AUGEM_CHECK(ref != nullptr, "bad assignment target");
    const auto* off = ir::as<IntConst>(ref->index());
    const auto* src = ir::as<VarRef>(a.rhs());
    AUGEM_CHECK(off != nullptr && src != nullptr,
                "untagged store must be three-address: " << a.to_string(0));
    emit_store(out_, config_.isa, 1, ctx_.reg_table.lookup(src->name()),
               mem_of(ref->base(), off->value()));
  }

  // Untagged scalar F64 statements (e.g. GEMV's `scal = x[i]` load).
  void emit_f64_assign(const std::string& dst, const Expr& rhs) {
    const Vr r = ctx_.reg_table.contains(dst) ? ctx_.reg_table.lookup(dst)
                                              : ctx_.scalar(dst);
    if (const auto* ref = ir::as<ArrayRef>(rhs)) {
      const auto* off = ir::as<IntConst>(ref->index());
      AUGEM_CHECK(off != nullptr, "F64 load index must be constant after "
                                  "strength reduction: " << rhs.to_string());
      const Mem m = mem_of(ref->base(), off->value());
      emit_load(out_, config_.isa, 1, r, m);
      if (plan_.broadcast_scals.count(dst) > 0) {
        auto it = ctx_.broadcast_reg.find(dst);
        if (it == ctx_.broadcast_reg.end())
          it = ctx_.broadcast_reg.emplace(dst, vralloc_->alloc("")).first;
        emit_broadcast(out_, config_.isa, isa_vector_doubles(config_.isa),
                       it->second, m);
      }
      return;
    }
    if (const auto* c = ir::as<FloatConst>(rhs)) {
      AUGEM_CHECK(c->value() == 0.0,
                  "only 0.0 literals are materializable, got " << c->value());
      emit_zero(out_, config_.isa, 1, r);
      return;
    }
    if (const auto* v = ir::as<VarRef>(rhs)) {
      const Vr src = ctx_.reg_table.lookup(v->name());
      if (src != r) emit_mov(out_, config_.isa, 1, r, src);
      return;
    }
    AUGEM_FAIL("unsupported untagged F64 statement: " << rhs.to_string());
  }

  // Pointer assignments: `ptr = base`, `ptr = base + expr` (element units).
  void emit_ptr_assign(const std::string& dst, const Expr& rhs) {
    const Home& hd = home(dst);
    const Gpr target = hd.in_reg ? hd.reg : kScratch1;

    if (const auto* v = ir::as<VarRef>(rhs)) {
      const Gpr src = read_var(v->name(), kScratch0);
      if (src != target) out_.push_back(imov(target, src));
    } else {
      const auto* b = ir::as<Binary>(rhs);
      AUGEM_CHECK(b != nullptr && b->op() == BinOp::kAdd,
                  "pointer RHS must be base or base+expr: " << rhs.to_string());
      const auto* base = ir::as<VarRef>(b->lhs());
      AUGEM_CHECK(base != nullptr, "pointer base must be a variable");
      const bool self_update = base->name() == dst;

      if (const auto* c = ir::as<IntConst>(b->rhs())) {
        // ptr = base + const → lea or add.
        const Gpr src = self_update && hd.in_reg
                            ? hd.reg
                            : read_var(base->name(), kScratch0);
        if (src == target) {
          out_.push_back(iadd_imm(target, 8 * c->value()));
        } else {
          out_.push_back(
              lea(target, mem_bd(src, static_cast<std::int32_t>(8 * c->value()))));
        }
      } else if (const auto* v = ir::as<VarRef>(b->rhs());
                 v != nullptr && self_update &&
                 stride_source_.count("stride$" + v->name()) > 0) {
        // Self-advance by a hoisted byte stride: one add.
        const Home& hs = home("stride$" + v->name());
        const Gpr src = self_update && hd.in_reg ? hd.reg
                                                 : read_var(dst, target);
        (void)src;
        if (hs.in_reg) {
          out_.push_back(iadd(target, hs.reg));
        } else {
          out_.push_back(iadd_mem(target, slot_mem(hs.slot)));
        }
      } else {
        // ptr = base + expr: evaluate the element offset, scale, combine.
        eval_int(b->rhs(), kScratch0, kScratch1 == target ? Gpr::kNoGpr
                                                          : kScratch1);
        out_.push_back(ishl_imm(kScratch0, 3));
        const Gpr src = self_update && hd.in_reg
                            ? hd.reg
                            : read_var(base->name(),
                                       target == kScratch1 ? kScratch1 : target);
        if (src == target) {
          out_.push_back(iadd(target, kScratch0));
        } else {
          out_.push_back(lea(target, mem_bis(src, kScratch0, 1)));
        }
      }
    }
    if (!hd.in_reg) out_.push_back(istore(target, slot_mem(hd.slot)));
  }

  // Integer assignments: evaluate into the home.
  void assign_int(const std::string& dst, const Expr& rhs) {
    const Home& hd = home(dst);
    const Gpr target = hd.in_reg ? hd.reg : kScratch0;
    eval_int(rhs, target, target == kScratch0 ? kScratch1 : kScratch0);
    if (!hd.in_reg) out_.push_back(istore(target, slot_mem(hd.slot)));
  }

  /// Evaluates an integer expression into `dst`. `scratch` is used for
  /// non-leaf right operands; kNoGpr when unavailable (then the expression
  /// must be shallow).
  void eval_int(const Expr& e, Gpr dst, Gpr scratch) {
    switch (e.kind()) {
      case ExprKind::kIntConst:
        out_.push_back(imov_imm(dst, ir::as<IntConst>(e)->value()));
        return;
      case ExprKind::kVarRef: {
        const Home& h = home(ir::as<VarRef>(e)->name());
        if (h.in_reg) {
          if (h.reg != dst) out_.push_back(imov(dst, h.reg));
        } else {
          out_.push_back(iload(dst, slot_mem(h.slot)));
        }
        return;
      }
      case ExprKind::kBinary: {
        const auto* b = ir::as<Binary>(e);
        eval_int(b->lhs(), dst, scratch);
        apply_int_op(b->op(), dst, b->rhs(), scratch);
        return;
      }
      default:
        AUGEM_FAIL("non-integer expression in index context: " << e.to_string());
    }
  }

  /// dst = dst OP rhs.
  void apply_int_op(BinOp op, Gpr dst, const Expr& rhs, Gpr scratch) {
    AUGEM_CHECK(op != BinOp::kMax, "max is floating-point only");
    if (const auto* c = ir::as<IntConst>(rhs)) {
      switch (op) {
        case BinOp::kAdd: out_.push_back(iadd_imm(dst, c->value())); return;
        case BinOp::kSub: out_.push_back(isub_imm(dst, c->value())); return;
        case BinOp::kMul: out_.push_back(imul_imm(dst, dst, c->value())); return;
        case BinOp::kMax: break;
      }
    }
    Gpr src;
    if (const auto* v = ir::as<VarRef>(rhs)) {
      const Home& h = home(v->name());
      if (!h.in_reg) {
        // Spilled leaf: fold the frame slot into the instruction itself
        // (addq/subq/imulq mem, reg) — no scratch register needed.
        switch (op) {
          case BinOp::kAdd: out_.push_back(iadd_mem(dst, slot_mem(h.slot))); return;
          case BinOp::kSub: out_.push_back(isub_mem(dst, slot_mem(h.slot))); return;
          case BinOp::kMul: out_.push_back(imul_mem(dst, slot_mem(h.slot))); return;
          case BinOp::kMax: break;
        }
      }
      src = h.reg;
    } else {
      AUGEM_REFUSE_UNLESS(scratch != Gpr::kNoGpr,
                          Refusal::Stage::kIntegerScratch,
                          "expression too deep to evaluate");
      eval_int(rhs, scratch, Gpr::kNoGpr);
      src = scratch;
    }
    switch (op) {
      case BinOp::kAdd: out_.push_back(iadd(dst, src)); return;
      case BinOp::kSub: out_.push_back(isub(dst, src)); return;
      case BinOp::kMul: out_.push_back(imul(dst, src)); return;
      case BinOp::kMax: break;
    }
  }

  std::string fresh_label(const std::string& hint) {
    return ".L" + kernel_.name() + "_" + hint + "_" +
           std::to_string(label_counter_++);
  }

  ir::Kernel kernel_;
  OptConfig config_;
  const analysis::KernelContract* contract_;
  match::MatchResult match_;
  VecPlan plan_;

  std::map<std::string, Home> homes_;
  std::map<const ForStmt*, std::string> bound_name_;
  std::map<std::string, double> stride_weight_;
  std::map<std::string, std::string> stride_source_;
  std::map<std::string, int> f64_slot_;
  int next_slot_ = 0;
  int frame_bytes_ = 0;
  bool mem_scratch_toggle_ = false;
  std::vector<Gpr> saved_;
  int label_counter_ = 0;

  std::unique_ptr<VrAllocator> vralloc_;
  EmitCtx ctx_;
  MInstList out_;
};

}  // namespace

GeneratedKernel generate_assembly(ir::Kernel kernel, const OptConfig& config,
                                  const analysis::KernelContract* contract) {
  return CodeGenerator(std::move(kernel), config, contract).run();
}

analysis::AnalyzeOptions analyze_options(
    const ir::Kernel& kernel, const analysis::KernelContract* contract,
    const analysis::SemanticsSpec* semantics) {
  analysis::AnalyzeOptions o;
  for (const Param& p : kernel.params())
    if (p.type == ScalarType::kF64) ++o.num_f64_params;
  o.contract = contract;
  o.semantics = semantics;
  return o;
}

}  // namespace augem::asmgen
