#include "runtime/ebpf_compiler.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/check.hpp"

namespace progmp::rt::ebpf {
namespace {

/// Physical registers available to the allocator (callee-saved across
/// helper calls in the eBPF ABI).
constexpr int kAllocatable[] = {6, 7, 8, 9};
constexpr int kNumAllocatable = 4;

class Compiler {
 public:
  explicit Compiler(const IrProgram& ir) : ir_(ir) {
    positions_.resize(static_cast<std::size_t>(ir.num_vregs));
    for (std::size_t i = 0; i < ir_.insts.size(); ++i) {
      const IrInst& inst = ir_.insts[i];
      auto record = [&](VReg v) {
        if (v >= 0) positions_[static_cast<std::size_t>(v)].push_back(
            static_cast<int>(i));
      };
      record(inst.a);
      record(inst.b);
      record(inst.dst);
    }
    slot_of_.assign(static_cast<std::size_t>(ir.num_vregs), 0);
    label_pos_.assign(static_cast<std::size_t>(ir.num_labels), -1);
    find_definitions();
    plan_branches();
    compute_liveness();
    if (fold_copies()) compute_liveness();
  }

  CompileResult run() {
    for (std::size_t i = 0; i < ir_.insts.size() && result_.error.empty();
         ++i) {
      cur_pos_ = static_cast<int>(i);
      // Conditions folded into a later branch emit nothing here.
      if (folded_[i]) continue;
      // `t = x op y; x = t` with no other use of t (every scan loop's
      // counter increment) updates x's register in place.
      if (can_update_in_place(i)) {
        translate_in_place(ir_.insts[i]);
        ++i;
        continue;
      }
      translate(ir_.insts[i]);
    }
    if (!result_.error.empty()) {
      result_.ok = false;
      return std::move(result_);
    }
    // Ensure the program always terminates with EXIT even if the IR fell off
    // the end (the IR generator appends kRet, so this is belt-and-braces).
    if (out_.empty() || out_.back().op != Op::kExit) {
      emit({Op::kMovImm, 0, 0, 0, 0});
      emit({Op::kExit});
    }
    // Patch branch fixups now that every label's code offset is known.
    for (const Fixup& fixup : fixups_) {
      const int target = label_pos_[static_cast<std::size_t>(fixup.label)];
      if (target < 0) {
        fail("branch to unplaced label");
        break;
      }
      const int off = target - (fixup.insn + 1);
      if (off < INT16_MIN || off > INT16_MAX) {
        fail("branch displacement out of range");
        break;
      }
      out_[static_cast<std::size_t>(fixup.insn)].off =
          static_cast<std::int16_t>(off);
    }
    result_.ok = result_.error.empty();
    result_.code = std::move(out_);
    result_.spill_slots = -next_slot_off_ / 8;
    return std::move(result_);
  }

 private:
  struct Fixup {
    int insn;
    LabelId label;
  };
  struct Binding {
    VReg owner = -1;
    bool dirty = false;
  };

  // ---- Definitions and constants -------------------------------------------
  /// Records where each single-definition vreg is defined. A vreg whose
  /// only definition is a kConst holds one value everywhere: it is
  /// rematerialized with MovImm (or folded into an immediate operand)
  /// wherever it is needed instead of living in a stack slot.
  void find_definitions() {
    const auto n = static_cast<std::size_t>(ir_.num_vregs);
    std::vector<int> defs(n, 0);
    def_pos_.assign(n, -1);
    is_const_.assign(n, false);
    for (std::size_t i = 0; i < ir_.insts.size(); ++i) {
      const IrInst& inst = ir_.insts[i];
      if (inst.dst < 0) continue;
      const auto v = static_cast<std::size_t>(inst.dst);
      ++defs[v];
      def_pos_[v] = static_cast<int>(i);
      is_const_[v] = inst.op == IrOp::kConst;
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (defs[v] != 1) {
        def_pos_[v] = -1;
        is_const_[v] = false;
      }
    }
  }

  [[nodiscard]] bool is_const(VReg v) const {
    return v >= 0 && is_const_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::int64_t const_value(VReg v) const {
    return ir_.insts[static_cast<std::size_t>(
                         def_pos_[static_cast<std::size_t>(v)])]
        .imm;
  }

  // ---- Branch conditions -----------------------------------------------------
  /// A kJz whose condition is a tree of NOT/AND/OR over comparisons, each
  /// node used only by its parent and computed in the same straight-line
  /// run of code as the branch, becomes a short-circuit chain of
  /// conditional jumps: the nodes are never materialized as 0/1 values.
  /// Their operands (the leaves) are then read at the branch, so this plan
  /// is made before liveness, which counts the leaves as used there.
  void plan_branches() {
    folded_.assign(ir_.insts.size(), false);
    branch_leaves_.assign(ir_.insts.size(), {});
    for (std::size_t j = 0; j < ir_.insts.size(); ++j) {
      if (ir_.insts[j].op != IrOp::kJz) continue;
      std::vector<int> nodes;
      std::vector<VReg> leaves;
      int budget = kNumAllocatable;
      if (!fold_condition(ir_.insts[j].a, static_cast<int>(j), &nodes,
                          &leaves, &budget)) {
        continue;
      }
      for (int node : nodes) folded_[static_cast<std::size_t>(node)] = true;
      // The leaves are now read at the branch (next_use() must know).
      for (VReg leaf : leaves) {
        auto& refs = positions_[static_cast<std::size_t>(leaf)];
        refs.insert(std::upper_bound(refs.begin(), refs.end(),
                                     static_cast<int>(j)),
                    static_cast<int>(j));
      }
      branch_leaves_[j] = std::move(leaves);
    }
  }

  [[nodiscard]] static bool is_condition(const IrInst& inst) {
    switch (inst.op) {
      case IrOp::kNot:
        return true;
      case IrOp::kBin:
        return is_comparison(inst.bin_op) ||
               inst.bin_op == lang::BinOp::kAnd ||
               inst.bin_op == lang::BinOp::kOr;
      case IrOp::kBinImm:
        return is_comparison(inst.bin_op);
      default:
        return false;
    }
  }

  /// Whether the code strictly between IR positions `from` and `to` runs
  /// straight through (no label, jump or return), and, when `v` >= 0,
  /// leaves `v` unchanged.
  [[nodiscard]] bool straight_between(int from, int to, VReg v) const {
    for (int k = from + 1; k < to; ++k) {
      const IrInst& inst = ir_.insts[static_cast<std::size_t>(k)];
      if (inst.op == IrOp::kLabel || inst.op == IrOp::kJmp ||
          inst.op == IrOp::kJz || inst.op == IrOp::kRet) {
        return false;
      }
      if (v >= 0 && inst.dst == v) return false;
    }
    return true;
  }

  /// Tries to fold the definition of `v` into the branch at `branch_pos`,
  /// collecting folded node positions and the leaves that need a register
  /// (at most `budget` of them). On failure nothing is collected.
  bool fold_condition(VReg v, int branch_pos, std::vector<int>* nodes,
                      std::vector<VReg>* leaves, int* budget) const {
    // Only a vreg referenced exactly twice — its definition and the use by
    // the parent being folded — can itself be folded.
    if (v < 0) return false;
    const int i = def_pos_[static_cast<std::size_t>(v)];
    if (i < 0 || positions_[static_cast<std::size_t>(v)].size() != 2) {
      return false;
    }
    const IrInst& d = ir_.insts[static_cast<std::size_t>(i)];
    if (!is_condition(d) || !straight_between(i, branch_pos, -1)) return false;
    const std::size_t nodes_mark = nodes->size();
    const std::size_t leaves_mark = leaves->size();
    const int budget_mark = *budget;
    // NOT/AND/OR test their operands for zero, so a condition operand can
    // fold too; a comparison needs its operands' values.
    const bool is_logic = d.op == IrOp::kNot ||
                          d.bin_op == lang::BinOp::kAnd ||
                          d.bin_op == lang::BinOp::kOr;
    auto add_operand = [&](VReg o, bool imm_ok) {
      if (is_logic && fold_condition(o, branch_pos, nodes, leaves, budget)) {
        return true;
      }
      // A leaf is read at the branch instead of here: it must not change
      // in between.
      if (!straight_between(i, branch_pos, o)) return false;
      if (imm_ok && is_const(o)) return true;
      if (*budget == 0) return false;
      --*budget;
      leaves->push_back(o);
      return true;
    };
    const bool cmp_with_reg = d.op == IrOp::kBin && is_comparison(d.bin_op);
    bool ok = add_operand(d.a, false);
    if (ok && d.op == IrOp::kBin) ok = add_operand(d.b, cmp_with_reg);
    if (!ok) {
      nodes->resize(nodes_mark);
      leaves->resize(leaves_mark);
      *budget = budget_mark;
      return false;
    }
    nodes->push_back(i);
    return true;
  }

  // ---- Copies ----------------------------------------------------------------
  /// A copy `d = mov s` whose value is only read in the straight run of
  /// code after it, while s still holds the same value (the lambda
  /// parameter copies of scan loops), emits nothing: those reads take s's
  /// register or stack home instead. Decided on the liveness of the
  /// unfolded program; returns whether anything was folded.
  bool fold_copies() {
    copy_folded_.assign(ir_.insts.size(), false);
    redirects_.assign(ir_.insts.size(), {});
    bool any = false;
    std::vector<int> reads;
    for (std::size_t i = 0; i < ir_.insts.size(); ++i) {
      const IrInst& mov = ir_.insts[i];
      if (mov.op != IrOp::kMov || mov.dst == mov.a) continue;
      if (!copy_reads(static_cast<int>(i), &reads)) continue;
      copy_folded_[i] = true;
      any = true;
      for (int k : reads) {
        redirects_[static_cast<std::size_t>(k)].emplace_back(mov.dst, mov.a);
      }
      // next_use() of the source now covers the copy's reads.
      auto& refs = positions_[static_cast<std::size_t>(mov.a)];
      const std::size_t old_size = refs.size();
      refs.insert(refs.end(), reads.begin(), reads.end());
      std::inplace_merge(refs.begin(),
                         refs.begin() + static_cast<std::ptrdiff_t>(old_size),
                         refs.end());
    }
    return any;
  }

  /// Collects the positions reading the copy at `i` and whether the copy
  /// can be folded: every read of its value lies in the straight run after
  /// it, and neither the copy nor its source changes before the last one.
  bool copy_reads(int i, std::vector<int>* reads) const {
    const IrInst& mov = ir_.insts[static_cast<std::size_t>(i)];
    const VReg d = mov.dst;
    const VReg src = mov.a;
    reads->clear();
    for (int k = i + 1; k < static_cast<int>(ir_.insts.size()); ++k) {
      const IrInst& inst = ir_.insts[static_cast<std::size_t>(k)];
      const bool d_live_before = live_after(d, k - 1);
      if (!d_live_before) return !reads->empty();
      if (inst.op == IrOp::kLabel || inst.op == IrOp::kJmp ||
          inst.op == IrOp::kRet) {
        return false;  // the value escapes the straight run
      }
      if (inst.op == IrOp::kJz &&
          live_after(d, static_cast<int>(label_target(inst.imm)))) {
        return false;  // ... or leaves it on the taken branch
      }
      if (reads_value(k, d)) {
        if (inst.dst == src) return false;
        reads->push_back(k);
      }
      if (inst.dst == d || inst.dst == src) return false;
    }
    return false;
  }

  /// Instruction k reads `v` (folded conditions read nothing; a branch
  /// reads the leaves of its folded condition).
  [[nodiscard]] bool reads_value(int k, VReg v) const {
    const auto pos = static_cast<std::size_t>(k);
    if (folded_[pos]) return false;
    const IrInst& inst = ir_.insts[pos];
    const auto& leaves = branch_leaves_[pos];
    if (std::find(leaves.begin(), leaves.end(), v) != leaves.end()) {
      return true;
    }
    return (inst.a == v && leaves.empty()) || inst.b == v;
  }

  /// The vreg whose register or stack home holds `v`'s value when read at
  /// IR position `pos`.
  [[nodiscard]] VReg source(VReg v, int pos) const {
    if (v < 0 || redirects_.empty()) return v;
    for (const auto& [copy, src] : redirects_[static_cast<std::size_t>(pos)]) {
      if (copy == v) return src;
    }
    return v;
  }

  // ---- Liveness ----------------------------------------------------------------
  /// Backward dataflow over the IR control-flow graph, iterated to a
  /// fixpoint: afterwards live_out(i) holds every vreg that some path from
  /// just after instruction i reads before redefining it. One flat bitset
  /// row of `words_` 64-bit words per instruction.
  void compute_liveness() {
    const std::size_t n = ir_.insts.size();
    words_ = (static_cast<std::size_t>(ir_.num_vregs) + 63) / 64;
    label_at_.assign(static_cast<std::size_t>(ir_.num_labels),
                     static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) {
      if (ir_.insts[i].op == IrOp::kLabel) {
        label_at_[static_cast<std::size_t>(ir_.insts[i].imm)] =
            static_cast<int>(i);
      }
    }
    live_out_.assign(n * words_, 0);
    std::vector<std::uint64_t> live_in(n * words_, 0);
    std::vector<std::uint64_t> in(words_);
    auto set = [](std::uint64_t* row, VReg v, bool on) {
      if (v < 0) return;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      std::uint64_t& word = row[static_cast<std::size_t>(v) >> 6];
      word = on ? (word | bit) : (word & ~bit);
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = n; i-- > 0;) {
        const IrInst& inst = ir_.insts[i];
        std::uint64_t* out = &live_out_[i * words_];
        auto merge = [&](std::size_t succ) {
          if (succ >= n) return;
          const std::uint64_t* succ_in = &live_in[succ * words_];
          for (std::size_t w = 0; w < words_; ++w) out[w] |= succ_in[w];
        };
        switch (inst.op) {
          case IrOp::kRet:
            break;
          case IrOp::kJmp:
            merge(label_target(inst.imm));
            break;
          case IrOp::kJz:
            merge(i + 1);
            merge(label_target(inst.imm));
            break;
          default:
            merge(i + 1);
        }
        std::copy(out, out + words_, in.begin());
        if (!folded_[i]) {
          const int k = static_cast<int>(i);
          if (copy_folded_.empty() || !copy_folded_[i]) {
            set(in.data(), inst.dst, false);
          }
          if (branch_leaves_[i].empty() && !is_folded_value(inst.a)) {
            set(in.data(), source(inst.a, k), true);
          }
          set(in.data(), source(inst.b, k), true);
          for (VReg leaf : branch_leaves_[i]) {
            set(in.data(), source(leaf, k), true);
          }
        }
        std::uint64_t* row_in = &live_in[i * words_];
        if (!std::equal(in.begin(), in.end(), row_in)) {
          std::copy(in.begin(), in.end(), row_in);
          changed = true;
        }
      }
    }
  }

  /// `v` is the result of a condition folded into a branch.
  [[nodiscard]] bool is_folded_value(VReg v) const {
    if (v < 0) return false;
    const int i = def_pos_[static_cast<std::size_t>(v)];
    return i >= 0 && folded_[static_cast<std::size_t>(i)];
  }

  /// IR position of the kLabel for `label` (past the end when unplaced).
  [[nodiscard]] std::size_t label_target(std::int64_t label) const {
    return static_cast<std::size_t>(
        label_at_[static_cast<std::size_t>(label)]);
  }

  [[nodiscard]] bool live_after(VReg v, int pos) const {
    const std::uint64_t word =
        live_out_[static_cast<std::size_t>(pos) * words_ +
                  (static_cast<std::size_t>(v) >> 6)];
    return ((word >> (v & 63)) & 1) != 0;
  }

  /// Whether an evicted `v` may still be read: live after the instruction
  /// at cur_pos_, or — while that instruction's operands are still being
  /// loaded — one of them, about to be reloaded from its home.
  [[nodiscard]] bool needed_here(VReg v, bool operands_pending) const {
    const auto pos = static_cast<std::size_t>(cur_pos_);
    const IrInst& inst = ir_.insts[pos];
    const auto& leaves = branch_leaves_[pos];
    const bool operand =
        v == source(inst.a, cur_pos_) || v == source(inst.b, cur_pos_) ||
        std::any_of(leaves.begin(), leaves.end(), [&](VReg leaf) {
          return source(leaf, cur_pos_) == v;
        });
    return (operands_pending && operand) || live_after(v, cur_pos_);
  }

  void fail(const std::string& msg) {
    if (result_.error.empty()) result_.error = msg;
  }

  void emit(Insn insn) { out_.push_back(insn); }

  // ---- Stack homes -----------------------------------------------------------
  /// Offset of the vreg's stack home, allocating one on first need.
  std::int16_t home(VReg v) {
    std::int16_t& slot = slot_of_[static_cast<std::size_t>(v)];
    if (slot == 0) {
      next_slot_off_ -= 8;
      if (-next_slot_off_ > kStackBytes) {
        fail("out of spill slots (specification too large)");
        next_slot_off_ += 8;
        return -8;
      }
      slot = static_cast<std::int16_t>(next_slot_off_);
    }
    return slot;
  }

  // ---- Allocation ------------------------------------------------------------
  [[nodiscard]] int binding_index_of(VReg v) const {
    for (int i = 0; i < kNumAllocatable; ++i) {
      if (bindings_[static_cast<std::size_t>(i)].owner == v) return i;
    }
    return -1;
  }

  /// Next IR position at which `v` is referenced after the current one;
  /// INT_MAX if never again (best eviction victim).
  [[nodiscard]] int next_use(VReg v) const {
    const auto& pos = positions_[static_cast<std::size_t>(v)];
    auto it = std::upper_bound(pos.begin(), pos.end(), cur_pos_);
    return it == pos.end() ? std::numeric_limits<int>::max() : *it;
  }

  /// Picks a register for a (re)binding: a free one if available, otherwise
  /// evicts the unpinned binding with the furthest next use — the
  /// binpacking heuristic; the evicted value keeps its stack home and gets
  /// a second chance at its next use. `operands_pending`: the current
  /// instruction's operands are still being loaded (see needed_here).
  int take_register(unsigned pinned_mask, bool operands_pending) {
    for (int i = 0; i < kNumAllocatable; ++i) {
      if (bindings_[static_cast<std::size_t>(i)].owner < 0) return i;
    }
    int victim = -1;
    int victim_next = -1;
    for (int i = 0; i < kNumAllocatable; ++i) {
      if (pinned_mask & (1u << i)) continue;
      const int nu = next_use(bindings_[static_cast<std::size_t>(i)].owner);
      if (nu > victim_next) {
        victim_next = nu;
        victim = i;
      }
    }
    PROGMP_CHECK_MSG(victim >= 0, "all registers pinned");
    Binding& b = bindings_[static_cast<std::size_t>(victim)];
    if (b.dirty && needed_here(b.owner, operands_pending)) {
      emit({Op::kStxDw, kFp, static_cast<std::uint8_t>(kAllocatable[victim]),
            home(b.owner), 0});
    }
    b.owner = -1;
    b.dirty = false;
    return victim;
  }

  /// Materializes the current value of `v` in an allocatable register.
  int ensure(VReg v, unsigned* pinned_mask) {
    v = source(v, cur_pos_);
    int idx = binding_index_of(v);
    if (idx < 0) {
      idx = take_register(*pinned_mask, /*operands_pending=*/true);
      // Reload from the stack home. Values are always defined before use
      // (IR generator invariant), so the home exists or the VM-zeroed slot
      // is semantically the vreg's initial 0.
      emit_load(kAllocatable[idx], v);
      bindings_[static_cast<std::size_t>(idx)] = {v, false};
    }
    *pinned_mask |= 1u << idx;
    return kAllocatable[idx];
  }

  /// Binds `v` to a register for a fresh definition (no reload). Every
  /// operand of the instruction is pinned or already consumed by then.
  int define(VReg v, unsigned* pinned_mask) {
    int idx = binding_index_of(v);
    if (idx < 0) {
      idx = take_register(*pinned_mask, /*operands_pending=*/false);
      bindings_[static_cast<std::size_t>(idx)].owner = v;
    }
    bindings_[static_cast<std::size_t>(idx)].dirty = true;
    *pinned_mask |= 1u << idx;
    return kAllocatable[idx];
  }

  /// Writes the dirty bindings still live after IR position `pos` (the
  /// label or jump being translated) back to their stack homes and clears
  /// the register file — the canonical cross-block state lives on the
  /// stack. A dead value is dropped without a store.
  void flush(int pos) {
    for (int i = 0; i < kNumAllocatable; ++i) {
      Binding& b = bindings_[static_cast<std::size_t>(i)];
      if (b.owner >= 0 && b.dirty && live_after(b.owner, pos)) {
        emit({Op::kStxDw, kFp, static_cast<std::uint8_t>(kAllocatable[i]),
              home(b.owner), 0});
      }
      b = Binding{};
    }
  }

  /// State hand-off at a conditional branch to `target`, translated at IR
  /// position `pos`. The taken path needs the canonical stack state of
  /// every value live at the target; the fall-through path continues in
  /// this block, so the register file stays valid for it: stored values
  /// stay bound (now clean), values live only on the fall-through stay
  /// dirty, and values dead on both paths are dropped.
  void flush_for_branch(int pos, LabelId target) {
    const int target_pos = label_at_[static_cast<std::size_t>(target)];
    for (int i = 0; i < kNumAllocatable; ++i) {
      Binding& b = bindings_[static_cast<std::size_t>(i)];
      if (b.owner < 0) continue;
      if (!live_after(b.owner, pos)) {
        b = Binding{};
        continue;
      }
      const bool live_at_target =
          target_pos < static_cast<int>(ir_.insts.size()) &&
          live_after(b.owner, target_pos);
      if (b.dirty && live_at_target) {
        emit({Op::kStxDw, kFp, static_cast<std::uint8_t>(kAllocatable[i]),
              home(b.owner), 0});
        b.dirty = false;
      }
    }
  }

  /// Loads `v` into machine register `reg`: a constant is rematerialized,
  /// anything else comes from its stack home.
  void emit_load(int reg, VReg v) {
    if (is_const(v)) {
      emit({Op::kMovImm, static_cast<std::uint8_t>(reg), 0, 0,
            const_value(v)});
    } else {
      emit({Op::kLdxDw, static_cast<std::uint8_t>(reg), kFp, home(v), 0});
    }
  }

  void branch_fixup(Op op, int reg, std::int64_t imm, LabelId label) {
    fixups_.push_back({static_cast<int>(out_.size()), label});
    emit({op, static_cast<std::uint8_t>(reg), 0, 0, imm});
  }

  // ---- Helper calls ------------------------------------------------------------
  /// Loads an argument value into r1..r5 without disturbing bindings.
  void load_arg(int arg_reg, VReg v) {
    v = source(v, cur_pos_);
    const int idx = binding_index_of(v);
    if (idx >= 0) {
      emit({Op::kMovReg, static_cast<std::uint8_t>(arg_reg),
            static_cast<std::uint8_t>(kAllocatable[idx]), 0, 0});
    } else {
      emit_load(arg_reg, v);
    }
  }

  void call(Helper helper) {
    emit({Op::kCall, 0, 0, 0, static_cast<std::int64_t>(helper)});
  }

  void move_result_to(VReg dst) {
    unsigned pinned = 0;
    const int pd = define(dst, &pinned);
    emit({Op::kMovReg, static_cast<std::uint8_t>(pd), 0, 0, 0});
  }

  // ---- Peepholes -----------------------------------------------------------
  static bool is_comparison(lang::BinOp op) {
    using lang::BinOp;
    switch (op) {
      case BinOp::kLt:
      case BinOp::kGt:
      case BinOp::kLe:
      case BinOp::kGe:
      case BinOp::kEq:
      case BinOp::kNe:
        return true;
      default:
        return false;
    }
  }

  /// Jump opcode taken when the comparison is FALSE (kJz semantics),
  /// register and immediate forms.
  static Op negated_jump(lang::BinOp op, bool imm_form) {
    using lang::BinOp;
    switch (op) {
      case BinOp::kLt: return imm_form ? Op::kJsgeImm : Op::kJsgeReg;
      case BinOp::kGt: return imm_form ? Op::kJsleImm : Op::kJsleReg;
      case BinOp::kLe: return imm_form ? Op::kJsgtImm : Op::kJsgtReg;
      case BinOp::kGe: return imm_form ? Op::kJsltImm : Op::kJsltReg;
      case BinOp::kEq: return imm_form ? Op::kJneImm : Op::kJneReg;
      case BinOp::kNe: return imm_form ? Op::kJeqImm : Op::kJeqReg;
      default:
        PROGMP_UNREACHABLE("not a comparison");
    }
  }

  /// Instruction i defines a vreg that only instruction i + 1 reads.
  [[nodiscard]] bool result_only_feeds_next(std::size_t i) const {
    const IrInst& inst = ir_.insts[i];
    if (inst.dst < 0 || i + 1 >= ir_.insts.size()) return false;
    const auto& refs = positions_[static_cast<std::size_t>(inst.dst)];
    return refs.size() == 2 && refs[0] == static_cast<int>(i) &&
           refs[1] == static_cast<int>(i + 1);
  }

  /// Jump opcode taken when the comparison holds.
  static Op positive_jump(lang::BinOp op, bool imm_form) {
    using lang::BinOp;
    switch (op) {
      case BinOp::kLt: return imm_form ? Op::kJsltImm : Op::kJsltReg;
      case BinOp::kGt: return imm_form ? Op::kJsgtImm : Op::kJsgtReg;
      case BinOp::kLe: return imm_form ? Op::kJsleImm : Op::kJsleReg;
      case BinOp::kGe: return imm_form ? Op::kJsgeImm : Op::kJsgeReg;
      case BinOp::kEq: return imm_form ? Op::kJeqImm : Op::kJeqReg;
      case BinOp::kNe: return imm_form ? Op::kJneImm : Op::kJneReg;
      default:
        PROGMP_UNREACHABLE("not a comparison");
    }
  }

  /// kJz whose condition tree was folded (see plan_branches): loads the
  /// leaves, hands the state off once for the target, then emits the
  /// jump chain.
  void translate_folded_branch(const IrInst& jz) {
    unsigned pinned = 0;
    leaf_regs_.clear();
    for (VReg leaf : branch_leaves_[static_cast<std::size_t>(cur_pos_)]) {
      leaf_regs_.emplace_back(leaf, ensure(leaf, &pinned));
    }
    const auto target = static_cast<LabelId>(jz.imm);
    // Registers keep their values through the hand-off (it only stores).
    flush_for_branch(cur_pos_, target);
    jump_if(jz.a, /*when=*/false, target);
  }

  [[nodiscard]] int leaf_reg(VReg v) const {
    for (const auto& [leaf, reg] : leaf_regs_) {
      if (leaf == v) return reg;
    }
    PROGMP_UNREACHABLE("branch leaf not loaded");
  }

  /// Emits jumps that reach `target` exactly when the condition `v` equals
  /// `when` and fall through otherwise.
  void jump_if(VReg v, bool when, LabelId target) {
    if (!is_folded_value(v)) {
      branch_fixup(when ? Op::kJneImm : Op::kJeqImm, leaf_reg(v), 0, target);
      return;
    }
    const IrInst& d = ir_.insts[static_cast<std::size_t>(
        def_pos_[static_cast<std::size_t>(v)])];
    if (d.op == IrOp::kNot) {
      jump_if(d.a, !when, target);
      return;
    }
    using lang::BinOp;
    if (d.bin_op == BinOp::kAnd || d.bin_op == BinOp::kOr) {
      // AND reaches "false" as soon as one side is false, OR reaches
      // "true" as soon as one side is true; otherwise the left side
      // decides nothing and skips to the right side's test.
      const bool short_circuit = d.bin_op == BinOp::kOr;
      if (when == short_circuit) {
        jump_if(d.a, when, target);
        jump_if(d.b, when, target);
      } else {
        const LabelId skip = new_local_label();
        jump_if(d.a, !when, skip);
        jump_if(d.b, when, target);
        place_label(skip);
      }
      return;
    }
    // Comparison.
    const bool imm_form = d.op == IrOp::kBinImm || is_const(d.b);
    const Op op = when ? positive_jump(d.bin_op, imm_form)
                       : negated_jump(d.bin_op, imm_form);
    fixups_.push_back({static_cast<int>(out_.size()), target});
    if (imm_form) {
      emit({op, static_cast<std::uint8_t>(leaf_reg(d.a)), 0, 0,
            d.op == IrOp::kBinImm ? d.imm : const_value(d.b)});
    } else {
      emit({op, static_cast<std::uint8_t>(leaf_reg(d.a)),
            static_cast<std::uint8_t>(leaf_reg(d.b)), 0, 0});
    }
  }

  /// A label private to one branch chain (no IR counterpart).
  LabelId new_local_label() {
    label_pos_.push_back(-1);
    return static_cast<LabelId>(label_pos_.size() - 1);
  }
  void place_label(LabelId label) {
    label_pos_[static_cast<std::size_t>(label)] =
        static_cast<int>(out_.size());
  }

  [[nodiscard]] bool can_update_in_place(std::size_t i) const {
    const IrInst& inst = ir_.insts[i];
    if (inst.op != IrOp::kBin && inst.op != IrOp::kBinImm) return false;
    if (is_comparison(inst.bin_op) || inst.bin_op == lang::BinOp::kAnd ||
        inst.bin_op == lang::BinOp::kOr) {
      return false;
    }
    if (inst.a == inst.dst || !result_only_feeds_next(i)) return false;
    const IrInst& mov = ir_.insts[i + 1];
    return mov.op == IrOp::kMov && mov.a == inst.dst && mov.dst == inst.a;
  }

  void translate_in_place(const IrInst& inst) {
    unsigned pinned = 0;
    const int px = ensure(inst.a, &pinned);
    if (inst.op == IrOp::kBinImm) {
      emit({arith_imm_op(inst.bin_op), static_cast<std::uint8_t>(px), 0, 0,
            inst.imm});
    } else {
      const int pb = ensure(inst.b, &pinned);
      emit({arith_reg_op(inst.bin_op), static_cast<std::uint8_t>(px),
            static_cast<std::uint8_t>(pb), 0, 0});
    }
    bindings_[static_cast<std::size_t>(binding_index_of(inst.a))].dirty = true;
  }

  /// Register that receives a 0/1 result built by a short branch sequence
  /// over the (pinned) operands: the destination's own register, or r0
  /// when the destination aliases an operand the sequence still reads.
  int flag_target(const IrInst& inst, unsigned* pinned) {
    if (inst.dst == inst.a || inst.dst == inst.b) return 0;
    return define(inst.dst, pinned);
  }
  void finish_flag(const IrInst& inst, int target) {
    if (target == 0) move_result_to(inst.dst);
  }

  // ---- Translation ----------------------------------------------------------------
  void translate(const IrInst& inst) {
    switch (inst.op) {
      case IrOp::kConst: {
        // A constant vreg is rematerialized at each use (emit_load).
        if (is_const(inst.dst)) break;
        unsigned pinned = 0;
        const int pd = define(inst.dst, &pinned);
        emit({Op::kMovImm, static_cast<std::uint8_t>(pd), 0, 0, inst.imm});
        break;
      }
      case IrOp::kMov: {
        if (copy_folded_[static_cast<std::size_t>(cur_pos_)]) break;
        unsigned pinned = 0;
        const int pa = ensure(inst.a, &pinned);
        const int pd = define(inst.dst, &pinned);
        emit({Op::kMovReg, static_cast<std::uint8_t>(pd),
              static_cast<std::uint8_t>(pa), 0, 0});
        break;
      }
      case IrOp::kBin:
        translate_bin(inst);
        break;
      case IrOp::kBinImm:
        translate_bin_imm(inst);
        break;
      case IrOp::kNeg: {
        unsigned pinned = 0;
        const int pa = ensure(inst.a, &pinned);
        emit({Op::kMovReg, 0, static_cast<std::uint8_t>(pa), 0, 0});
        emit({Op::kNeg, 0, 0, 0, 0});
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kNot: {
        unsigned pinned = 0;
        const int pa = ensure(inst.a, &pinned);
        const int t = flag_target(inst, &pinned);
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 1});
        emit({Op::kJeqImm, static_cast<std::uint8_t>(pa), 0, 1, 0});
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 0});
        finish_flag(inst, t);
        break;
      }
      case IrOp::kLoadReg: {
        emit({Op::kMovImm, 1, 0, 0, inst.imm});
        call(Helper::kRegGet);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kStoreReg: {
        emit({Op::kMovImm, 1, 0, 0, inst.imm});
        load_arg(2, inst.a);
        call(Helper::kRegSet);
        break;
      }
      case IrOp::kTimeMs:
        call(Helper::kTimeMs);
        move_result_to(inst.dst);
        break;
      case IrOp::kSbfCount:
        call(Helper::kSbfCount);
        move_result_to(inst.dst);
        break;
      case IrOp::kSbfProp: {
        load_arg(1, inst.a);
        emit({Op::kMovImm, 2, 0, 0, inst.imm});
        call(Helper::kSbfProp);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kPktProp: {
        load_arg(1, inst.a);
        emit({Op::kMovImm, 2, 0, 0, inst.imm});
        load_arg(3, inst.b);
        call(Helper::kPktProp);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kQueueLen: {
        emit({Op::kMovImm, 1, 0, 0, inst.imm});
        call(Helper::kQueueLen);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kQueueNth: {
        emit({Op::kMovImm, 1, 0, 0, inst.imm});
        load_arg(2, inst.a);
        call(Helper::kQueueNth);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kPop: {
        emit({Op::kMovImm, 1, 0, 0, inst.imm});
        call(Helper::kPop);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kPush: {
        load_arg(1, inst.a);
        load_arg(2, inst.b);
        call(Helper::kPush);
        break;
      }
      case IrOp::kDrop: {
        load_arg(1, inst.a);
        call(Helper::kDrop);
        break;
      }
      case IrOp::kHasWindow: {
        load_arg(1, inst.a);
        load_arg(2, inst.b);
        call(Helper::kHasWindow);
        move_result_to(inst.dst);
        break;
      }
      case IrOp::kPrint: {
        load_arg(1, inst.a);
        call(Helper::kPrint);
        break;
      }
      case IrOp::kLabel:
        flush(cur_pos_);
        label_pos_[static_cast<std::size_t>(inst.imm)] =
            static_cast<int>(out_.size());
        break;
      case IrOp::kJmp:
        flush(cur_pos_);
        branch_fixup(Op::kJa, 0, 0, static_cast<LabelId>(inst.imm));
        break;
      case IrOp::kJz: {
        if (is_folded_value(inst.a)) {
          translate_folded_branch(inst);
          break;
        }
        unsigned pinned = 0;
        const int pa = ensure(inst.a, &pinned);
        // Stores execute on both branch outcomes.
        flush_for_branch(cur_pos_, static_cast<LabelId>(inst.imm));
        branch_fixup(Op::kJeqImm, pa, 0, static_cast<LabelId>(inst.imm));
        break;
      }
      case IrOp::kRet:
        emit({Op::kMovImm, 0, 0, 0, 0});
        emit({Op::kExit});
        break;
    }
  }

  static Op arith_reg_op(lang::BinOp op) {
    using lang::BinOp;
    switch (op) {
      case BinOp::kAdd: return Op::kAddReg;
      case BinOp::kSub: return Op::kSubReg;
      case BinOp::kMul: return Op::kMulReg;
      case BinOp::kDiv: return Op::kDivReg;
      case BinOp::kMod: return Op::kModReg;
      default:
        PROGMP_UNREACHABLE("not arithmetic");
    }
  }
  static Op arith_imm_op(lang::BinOp op) {
    using lang::BinOp;
    switch (op) {
      case BinOp::kAdd: return Op::kAddImm;
      case BinOp::kSub: return Op::kSubImm;
      case BinOp::kMul: return Op::kMulImm;
      case BinOp::kDiv: return Op::kDivImm;
      case BinOp::kMod: return Op::kModImm;
      default:
        PROGMP_UNREACHABLE("not arithmetic");
    }
  }

  void translate_bin_imm(const IrInst& inst) {
    unsigned pinned = 0;
    const int pa = ensure(inst.a, &pinned);
    if (is_comparison(inst.bin_op)) {
      const int t = flag_target(inst, &pinned);
      emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 1});
      // Jump over the "false" store when the comparison holds: use the
      // positive immediate jump.
      emit({positive_jump(inst.bin_op, /*imm_form=*/true),
            static_cast<std::uint8_t>(pa), 0, 1, inst.imm});
      emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 0});
      finish_flag(inst, t);
      return;
    }
    // Two-address arithmetic with an immediate.
    const int pd = define(inst.dst, &pinned);
    if (pd != pa) {
      emit({Op::kMovReg, static_cast<std::uint8_t>(pd),
            static_cast<std::uint8_t>(pa), 0, 0});
    }
    emit({arith_imm_op(inst.bin_op), static_cast<std::uint8_t>(pd), 0, 0,
          inst.imm});
  }

  void translate_bin(const IrInst& inst) {
    using lang::BinOp;
    if (is_const(inst.b) && inst.bin_op != BinOp::kAnd &&
        inst.bin_op != BinOp::kOr) {
      IrInst with_imm = inst;
      with_imm.op = IrOp::kBinImm;
      with_imm.b = -1;
      with_imm.imm = const_value(inst.b);
      translate_bin_imm(with_imm);
      return;
    }
    unsigned pinned = 0;
    const int pa = ensure(inst.a, &pinned);
    const int pb = ensure(inst.b, &pinned);
    switch (inst.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod: {
        if (inst.dst != inst.b) {
          // Two-address form: dst receives a, then combines with b. Safe
          // because dst != b guarantees pd != pb (pb is pinned).
          const int pd = define(inst.dst, &pinned);
          if (pd != pa) {
            emit({Op::kMovReg, static_cast<std::uint8_t>(pd),
                  static_cast<std::uint8_t>(pa), 0, 0});
          }
          emit({arith_reg_op(inst.bin_op), static_cast<std::uint8_t>(pd),
                static_cast<std::uint8_t>(pb), 0, 0});
          break;
        }
        // dst aliases b: compute in r0 to avoid clobbering the operand.
        emit({Op::kMovReg, 0, static_cast<std::uint8_t>(pa), 0, 0});
        emit({arith_reg_op(inst.bin_op), 0, static_cast<std::uint8_t>(pb), 0,
              0});
        move_result_to(inst.dst);
        break;
      }
      case BinOp::kLt:
      case BinOp::kGt:
      case BinOp::kLe:
      case BinOp::kGe:
      case BinOp::kEq:
      case BinOp::kNe: {
        const int t = flag_target(inst, &pinned);
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 1});
        emit({positive_jump(inst.bin_op, /*imm_form=*/false),
              static_cast<std::uint8_t>(pa),
              static_cast<std::uint8_t>(pb), 1, 0});
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 0});
        finish_flag(inst, t);
        break;
      }
      case BinOp::kAnd: {
        const int t = flag_target(inst, &pinned);
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 0});
        emit({Op::kJeqImm, static_cast<std::uint8_t>(pa), 0, 2, 0});
        emit({Op::kJeqImm, static_cast<std::uint8_t>(pb), 0, 1, 0});
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 1});
        finish_flag(inst, t);
        break;
      }
      case BinOp::kOr: {
        const int t = flag_target(inst, &pinned);
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 1});
        emit({Op::kJneImm, static_cast<std::uint8_t>(pa), 0, 2, 0});
        emit({Op::kJneImm, static_cast<std::uint8_t>(pb), 0, 1, 0});
        emit({Op::kMovImm, static_cast<std::uint8_t>(t), 0, 0, 0});
        finish_flag(inst, t);
        break;
      }
    }
  }

  const IrProgram& ir_;
  Code out_;
  CompileResult result_;
  std::vector<std::vector<int>> positions_;
  std::vector<int> def_pos_;   ///< single definition's position, else -1
  std::vector<bool> copy_folded_;  ///< see fold_copies()
  /// Per IR position: (copy, source) pairs for reads of folded copies.
  std::vector<std::vector<std::pair<VReg, VReg>>> redirects_;
  std::vector<bool> is_const_;  ///< see find_definitions()
  std::vector<bool> folded_;    ///< see plan_branches()
  std::vector<std::vector<VReg>> branch_leaves_;
  std::vector<std::pair<VReg, int>> leaf_regs_;  ///< current branch's leaves
  std::vector<int> label_at_;            ///< label -> IR position
  std::size_t words_ = 0;               ///< bitset words per liveness row
  std::vector<std::uint64_t> live_out_;  ///< see compute_liveness()
  std::array<Binding, kNumAllocatable> bindings_{};
  std::vector<std::int16_t> slot_of_;
  int next_slot_off_ = 0;
  std::vector<int> label_pos_;
  std::vector<Fixup> fixups_;
  int cur_pos_ = 0;
};

}  // namespace

CompileResult compile(const IrProgram& ir) { return Compiler(ir).run(); }

}  // namespace progmp::rt::ebpf
