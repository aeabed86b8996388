// ProgmpProgram: a loaded scheduler specification, executable as an
// mptcp::Scheduler through any of the three execution environments.
//
// Load pipeline: lex/parse -> analyze -> lower to IR -> optimize ->
// (eBPF backend) cross-compile + verify. The eBPF backend additionally
// keeps a cache of variants specialized for a constant subflow count
// (§4.1): since the number of subflows changes rarely, the dispatcher picks
// the specialized variant when the live count matches and falls back to the
// generic one (compiling the missing variant in the background — here:
// on first encounter) otherwise.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/diag.hpp"
#include "lang/ast.hpp"
#include "lang/guard.hpp"
#include "mptcp/scheduler.hpp"
#include "runtime/ebpf_isa.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/ebpf_vm.hpp"
#include "runtime/env.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/ir.hpp"
#include "runtime/ir_exec.hpp"

namespace progmp::rt {

enum class Backend {
  kInterpreter,  ///< tree-walking interpreter (baseline)
  kCompiled,     ///< ahead-of-time lowered + optimized IR
  kEbpf,         ///< eBPF bytecode on the in-process VM
};

const char* backend_name(Backend b);

class ProgmpProgram final : public mptcp::Scheduler {
 public:
  struct LoadOptions {
    Backend backend = Backend::kEbpf;
    bool optimize = true;
    /// Enables the constant-subflow-count specialization cache (eBPF only).
    bool specialize_subflow_count = true;
    /// Per-execution instruction budget (compiled IR and eBPF). A program
    /// that exhausts it is reported to the engine as a runtime fault; the
    /// engine rolls its effects back and runs the default scheduler instead.
    std::int64_t exec_budget = 1'000'000;
    /// Verifier configuration (eBPF backend). The absint pass's exec budget
    /// is overridden with `exec_budget` at load time, so the load-time
    /// worst-case proof and the runtime defense-in-depth share one knob.
    ebpf::VerifyOptions verify;
  };

  /// Compiles `spec`. Returns nullptr on error (details in `diags`).
  static std::unique_ptr<ProgmpProgram> load(std::string_view spec,
                                             std::string name,
                                             const LoadOptions& options,
                                             DiagSink& diags);

  // mptcp::Scheduler
  void schedule(mptcp::SchedulerContext& ctx) override;
  [[nodiscard]] std::string name() const override { return ast_.name; }
  /// Evaluates the program's guard (lang/guard.hpp) over the state.
  [[nodiscard]] bool may_act(std::span<const mptcp::SubflowInfo> subflows,
                             const mptcp::QueueBundle& queues) const override;

  /// The execution guard the engine elides executions with: derived from
  /// the AST at load for programs that cannot fault (their step count does
  /// not grow with queue length and stays within exec_budget), `always`
  /// otherwise.
  [[nodiscard]] const lang::Guard& guard() const { return guard_; }

  // ---- Introspection (proc-style interface, §4.1) ---------------------------
  [[nodiscard]] Backend backend() const { return options_.backend; }
  [[nodiscard]] const lang::Program& ast() const { return ast_; }
  [[nodiscard]] const IrProgram& ir() const { return ir_; }
  [[nodiscard]] const ebpf::Code& generic_code() const {
    return generic_code_;
  }
  /// eBPF disassembly of the generic variant.
  [[nodiscard]] std::string disassembly() const;
  /// Total bytes of the loaded program including front-end artifacts kept
  /// for introspection and respecialization (for the §4.3 memory table).
  [[nodiscard]] std::size_t memory_bytes() const;
  /// Bytes that must stay resident to *execute* — the compiled artifact and
  /// VM state; comparable to the paper's per-scheduler kernel footprint.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// Lines of specification source (the usability metric of §6).
  [[nodiscard]] int spec_lines() const;

  /// Hook for PRINT output (tests, debugging); default discards.
  void set_print_fn(SchedulerEnv::PrintFn fn) { print_fn_ = std::move(fn); }

  /// Number of eBPF variants in the specialization cache.
  [[nodiscard]] std::size_t specialized_variants() const {
    return specialized_.size();
  }

  /// Worst-case instruction count of the generic eBPF variant as derived by
  /// the verifier's abstract-interpretation pass (0 for other backends or
  /// when the pass is disabled).
  [[nodiscard]] std::int64_t derived_insn_bound() const {
    return derived_insn_bound_;
  }

 private:
  ProgmpProgram(lang::Program ast, const LoadOptions& options);

  const ebpf::Code& code_for_count(std::int64_t sbf_count);

  /// Sets guard_ once the backend artifact exists.
  void install_guard();
  [[nodiscard]] bool cannot_fault() const;

  /// LoadOptions::verify with the absint budget synced to exec_budget.
  [[nodiscard]] ebpf::VerifyOptions effective_verify_options() const;

  LoadOptions options_;
  std::int64_t derived_insn_bound_ = 0;
  lang::Program ast_;
  lang::Guard guard_;
  IrProgram ir_;
  std::unique_ptr<IrExecutable> executable_;  // kCompiled backend
  ebpf::Code generic_code_;                   // kEbpf backend
  std::map<std::int64_t, ebpf::Code> specialized_;
  ebpf::Vm vm_;
  SchedulerEnv::PrintFn print_fn_;
  /// Handle-table backing reused across executions (see SchedulerEnv ctor).
  std::vector<const mptcp::Skb*> pin_scratch_;
  /// Interpreter frame and list arena, reused across executions.
  InterpScratch interp_scratch_;
};

}  // namespace progmp::rt
