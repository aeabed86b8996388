// Execution environment 2 of 3: direct IR execution (§4.1, "Alternative 2" —
// the ahead-of-time compiled environment). The IR is fully lowered,
// optimized and jump-resolved at scheduler *load* time; execution is a flat
// dispatch loop with no tree walking, name resolution or label lookup.
#pragma once

#include <vector>

#include "runtime/env.hpp"
#include "runtime/ir.hpp"

namespace progmp::rt {

/// A load-time prepared IR program: labels removed, jump immediates rewritten
/// to instruction indices, binary operators decoded into the opcode (one
/// dispatch per step), register file preallocated.
class IrExecutable {
 public:
  explicit IrExecutable(const IrProgram& program);

  struct RunResult {
    std::int64_t steps = 0;  ///< IR instructions executed
    /// The program wanted to execute more than `fuel` instructions. A run
    /// that reaches its end on exactly its last unit of fuel is not
    /// exhausted.
    bool exhausted = false;
  };

  /// Runs one scheduler execution under an instruction cap of `fuel`.
  RunResult run(SchedulerEnv& env, std::int64_t fuel = 1'000'000);

  [[nodiscard]] std::size_t code_size() const { return steps_.size(); }

  /// Worst-case steps of one run when no loop runs more than `max_trips`
  /// iterations per entry (saturating). Every back edge closes a loop; an
  /// instruction inside d nested back-edge spans runs at most
  /// (max_trips + 1)^d times.
  [[nodiscard]] std::int64_t step_bound(std::int64_t max_trips) const;

  /// Approximate resident size in bytes (for the §4.3 memory table).
  [[nodiscard]] std::size_t memory_bytes() const {
    return steps_.capacity() * sizeof(Step) +
           regs_.capacity() * sizeof(std::int64_t);
  }

 private:
  /// Executor opcode: an IrOp, with kBin/kBinImm split per operator.
  enum class Code : std::uint8_t;
  static Code decode(const IrInst& inst);

  /// One IR instruction as executed.
  struct Step {
    Code code;
    VReg dst;
    VReg a;
    VReg b;
    std::int64_t imm;  ///< immediate, or the target pc of a jump
  };

  std::vector<Step> steps_;         ///< kLabel stripped; jumps hold pc
  std::vector<std::int64_t> regs_;  ///< reused across runs
};

/// Convenience: prepare and run once (tests).
void exec_ir(const IrProgram& program, SchedulerEnv& env,
             std::int64_t fuel = 1'000'000);

}  // namespace progmp::rt
