#include "runtime/program.hpp"

#include <array>

#include "lang/analyzer.hpp"
#include "lang/guard.hpp"
#include "lang/parser.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"

namespace progmp::rt {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kInterpreter:
      return "interpreter";
    case Backend::kCompiled:
      return "compiled";
    case Backend::kEbpf:
      return "ebpf";
  }
  return "?";
}

ProgmpProgram::ProgmpProgram(lang::Program ast, const LoadOptions& options)
    : options_(options), ast_(std::move(ast)) {}

std::unique_ptr<ProgmpProgram> ProgmpProgram::load(std::string_view spec,
                                                   std::string name,
                                                   const LoadOptions& options,
                                                   DiagSink& diags) {
  lang::Program ast = lang::parse(spec, std::move(name), diags);
  if (!diags.ok()) return nullptr;
  if (!lang::analyze(ast, diags)) return nullptr;

  auto program =
      std::unique_ptr<ProgmpProgram>(new ProgmpProgram(std::move(ast), options));

  if (options.backend == Backend::kInterpreter) {
    program->install_guard();
    return program;
  }

  program->ir_ = lower(program->ast_);
  if (options.optimize) {
    program->ir_ = optimize(std::move(program->ir_));
  }

  if (options.backend == Backend::kCompiled) {
    program->executable_ = std::make_unique<IrExecutable>(program->ir_);
    program->install_guard();
    return program;
  }

  // eBPF: cross-compile the generic variant and verify it.
  ebpf::CompileResult compiled = ebpf::compile(program->ir_);
  if (!compiled.ok) {
    diags.error({0, 0}, "eBPF compilation failed: " + compiled.error);
    return nullptr;
  }
  const ebpf::VerifyResult verdict =
      ebpf::verify(compiled.code, program->effective_verify_options());
  if (!verdict.ok) {
    diags.error({0, 0}, "eBPF verification failed: " + verdict.error);
    return nullptr;
  }
  program->derived_insn_bound_ = verdict.derived_insn_bound;
  program->generic_code_ = std::move(compiled.code);
  program->install_guard();
  return program;
}

void ProgmpProgram::install_guard() {
  guard_ = cannot_fault() ? lang::derive_guard(ast_) : lang::Guard{};
}

bool ProgmpProgram::cannot_fault() const {
  // A faulting execution runs the default scheduler, which can act where the
  // program would not: a guard is only sound for programs that never fault.
  if (!lang::cost_independent_of_queues(ast_)) return false;
  switch (options_.backend) {
    case Backend::kInterpreter:
      return true;  // no budget, no fault path
    case Backend::kCompiled:
      // Every loop left runs over SUBFLOWS (<= kMaxSubflows iterations) or
      // stops at a queue's front.
      return executable_->step_bound(mptcp::kMaxSubflows) <=
             options_.exec_budget;
    case Backend::kEbpf:
      // The verifier proved the bound against exec_budget for the generic
      // variant, and proves it again for every specialized one it admits.
      return derived_insn_bound_ > 0 &&
             derived_insn_bound_ <= options_.exec_budget;
  }
  return false;
}

bool ProgmpProgram::may_act(std::span<const mptcp::SubflowInfo> subflows,
                            const mptcp::QueueBundle& queues) const {
  if (guard_.is_always()) return true;
  std::array<std::uint8_t, mptcp::kMaxSubflows> lits{};
  std::size_t n = 0;
  for (const mptcp::SubflowInfo& s : subflows) {
    if (!s.established || n == lits.size()) continue;
    using lang::SbfLit;
    std::uint8_t w = 0;
    if (s.is_backup) w |= lang::lit_bit(SbfLit::kIsBackup);
    if (s.tsq_throttled) w |= lang::lit_bit(SbfLit::kTsqThrottled);
    if (s.lossy) w |= lang::lit_bit(SbfLit::kLossy);
    if (s.preferred) w |= lang::lit_bit(SbfLit::kIsPreferred);
    if (s.cwnd_free()) w |= lang::lit_bit(SbfLit::kCwndFree);
    lits[n++] = w;
  }
  std::uint8_t nonempty = 0;
  for (mptcp::QueueId id :
       {mptcp::QueueId::kQ, mptcp::QueueId::kQu, mptcp::QueueId::kRq}) {
    if (!queues.get(id).empty()) nonempty |= 1u << static_cast<unsigned>(id);
  }
  return guard_.holds({lits.data(), n}, nonempty);
}

ebpf::VerifyOptions ProgmpProgram::effective_verify_options() const {
  ebpf::VerifyOptions opts = options_.verify;
  opts.absint_options.exec_budget = options_.exec_budget;
  return opts;
}

const ebpf::Code& ProgmpProgram::code_for_count(std::int64_t sbf_count) {
  if (!options_.specialize_subflow_count || sbf_count < 0 ||
      sbf_count > mptcp::kMaxSubflows) {
    return generic_code_;
  }
  auto it = specialized_.find(sbf_count);
  if (it != specialized_.end()) return it->second;

  // Compile a variant with the subflow count folded to a constant. If the
  // specialized pipeline fails for any reason, fall back to the generic
  // variant — the optimization must never change observable behaviour.
  OptOptions opts;
  opts.const_sbf_count = sbf_count;
  IrProgram special = optimize(lower(ast_), opts);
  ebpf::CompileResult compiled = ebpf::compile(special);
  if (!compiled.ok ||
      !ebpf::verify(compiled.code, effective_verify_options()).ok) {
    return generic_code_;
  }
  return specialized_.emplace(sbf_count, std::move(compiled.code))
      .first->second;
}

void ProgmpProgram::schedule(mptcp::SchedulerContext& ctx) {
  SchedulerEnv env(ctx, &pin_scratch_);
  if (print_fn_) env.set_print_fn(print_fn_);
  switch (options_.backend) {
    case Backend::kInterpreter:
      ctx.note_exec("interpreter", interpret(ast_, env, interp_scratch_));
      return;
    case Backend::kCompiled: {
      const IrExecutable::RunResult result =
          executable_->run(env, options_.exec_budget);
      ctx.note_exec("compiled", result.steps);
      if (result.exhausted) {
        ctx.note_fault(mptcp::FaultKind::kBudgetExhausted);
      }
      return;
    }
    case Backend::kEbpf: {
      const ebpf::Code& code = code_for_count(env.sbf_count());
      const ebpf::Vm::RunResult result =
          vm_.run(code, env, options_.exec_budget);
      ctx.note_exec("ebpf", result.insns_executed);
      // Verified programs cannot fail structurally, but a runaway loop can
      // exhaust the instruction budget at runtime. Report it: the engine
      // rolls this execution back and substitutes the default scheduler
      // (graceful failure, §3.3) so the connection never stalls.
      if (!result.ok) {
        ctx.note_fault(result.fault != mptcp::FaultKind::kNone
                           ? result.fault
                           : mptcp::FaultKind::kOther);
      }
      return;
    }
  }
}

std::string ProgmpProgram::disassembly() const {
  return ebpf::disassemble(generic_code_);
}

std::size_t ProgmpProgram::memory_bytes() const {
  std::size_t total = sizeof(*this) + ast_.source.size();
  total += ast_.exprs.capacity() * sizeof(lang::Expr);
  total += ast_.stmts.capacity() * sizeof(lang::Stmt);
  total += ir_.insts.capacity() * sizeof(IrInst);
  if (executable_ != nullptr) total += executable_->memory_bytes();
  total += generic_code_.capacity() * sizeof(ebpf::Insn);
  for (const auto& [count, code] : specialized_) {
    total += code.capacity() * sizeof(ebpf::Insn);
  }
  return total;
}

std::size_t ProgmpProgram::resident_bytes() const {
  switch (options_.backend) {
    case Backend::kInterpreter:
      return ast_.exprs.capacity() * sizeof(lang::Expr) +
             ast_.stmts.capacity() * sizeof(lang::Stmt);
    case Backend::kCompiled:
      return executable_ != nullptr ? executable_->memory_bytes() : 0;
    case Backend::kEbpf: {
      std::size_t total = generic_code_.capacity() * sizeof(ebpf::Insn) +
                          sizeof(ebpf::Vm);
      for (const auto& [count, code] : specialized_) {
        total += code.capacity() * sizeof(ebpf::Insn);
      }
      return total;
    }
  }
  return 0;
}

int ProgmpProgram::spec_lines() const {
  int lines = 1;
  for (char c : ast_.source) {
    if (c == '\n') ++lines;
  }
  return lines;
}

}  // namespace progmp::rt
