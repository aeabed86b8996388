// IR -> eBPF cross-compiler (§4.1 "eBPF Compilation").
//
// The paper implements its own in-kernel cross-compiler because the stock
// C-to-eBPF toolchain cannot run inside the kernel; we mirror that design:
// the compiler consumes the scheduler IR directly and performs register
// allocation in the spirit of Second-Chance Binpacking linear-scan
// allocation (Traub, Holloway, Smith, PLDI'98):
//
//  * virtual registers are assigned to the callee-saved machine registers
//    r6..r9 on demand,
//  * when no register is free, the binding whose owner has the furthest
//    next use is evicted (binpacking heuristic) and the value moves to its
//    stack home,
//  * an evicted value gets a *second chance*: at its next use it is
//    reloaded and may occupy a register again for the rest of its lifetime,
//  * control-flow joins are handled by making the stack slot the canonical
//    home across basic-block boundaries (dirty bindings are written back at
//    labels and branches), so no resolution moves are needed,
//  * stores follow value lifetimes: IR liveness is computed once per
//    compile, and a dirty binding is written back — at a block boundary or
//    on eviction — only if its value can still be read; a dead value is
//    dropped without touching the stack. A conditional branch stores only
//    what its target reads and keeps the register file for the
//    fall-through path.
//
// Code selection on top of the allocator: constants are rematerialized
// rather than spilled, NOT/AND/OR/comparison trees that only feed a branch
// become short-circuit jump chains (never 0/1 values), `t = x op y; x = t`
// updates x in place, and a copy read only in the straight run after it
// reads its source directly.
//
// r0 serves as the scratch/result register and r1..r5 carry helper
// arguments, exactly like the kernel ABI.
#pragma once

#include <string>

#include "runtime/ebpf_isa.hpp"
#include "runtime/ir.hpp"

namespace progmp::rt::ebpf {

struct CompileResult {
  bool ok = false;
  std::string error;
  Code code;
  int spill_slots = 0;  ///< stack slots used (8 bytes each)
};

CompileResult compile(const IrProgram& ir);

}  // namespace progmp::rt::ebpf
