#include "runtime/ir_exec.hpp"

#include <algorithm>
#include <limits>

#include "core/check.hpp"

namespace progmp::rt {

// The binary operators appear twice, register then immediate form, in
// lang::BinOp order, so decoding is an offset (see decode()).
enum class IrExecutable::Code : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kLt, kGt, kLe, kGe, kEq, kNe, kAnd, kOr,
  kAddImm, kSubImm, kMulImm, kDivImm, kModImm, kLtImm, kGtImm, kLeImm,
  kGeImm, kEqImm, kNeImm, kAndImm, kOrImm,
  kConst, kMov, kNeg, kNot, kLoadReg, kStoreReg, kTimeMs, kSbfCount,
  kSbfProp, kPktProp, kQueueLen, kQueueNth, kPop, kPush, kDrop, kHasWindow,
  kPrint, kJmp, kJz, kRet,
};

namespace {

constexpr int kNumBinOps = static_cast<int>(lang::BinOp::kOr) + 1;

}  // namespace

IrExecutable::Code IrExecutable::decode(const IrInst& inst) {
  static_assert(static_cast<int>(Code::kOr) ==
                static_cast<int>(lang::BinOp::kOr));
  static_assert(static_cast<int>(Code::kAddImm) == kNumBinOps);
  static_assert(static_cast<int>(Code::kConst) == 2 * kNumBinOps);
  switch (inst.op) {
    case IrOp::kBin:
      return static_cast<Code>(static_cast<int>(inst.bin_op));
    case IrOp::kBinImm:
      return static_cast<Code>(kNumBinOps + static_cast<int>(inst.bin_op));
    case IrOp::kConst: return Code::kConst;
    case IrOp::kMov: return Code::kMov;
    case IrOp::kNeg: return Code::kNeg;
    case IrOp::kNot: return Code::kNot;
    case IrOp::kLoadReg: return Code::kLoadReg;
    case IrOp::kStoreReg: return Code::kStoreReg;
    case IrOp::kTimeMs: return Code::kTimeMs;
    case IrOp::kSbfCount: return Code::kSbfCount;
    case IrOp::kSbfProp: return Code::kSbfProp;
    case IrOp::kPktProp: return Code::kPktProp;
    case IrOp::kQueueLen: return Code::kQueueLen;
    case IrOp::kQueueNth: return Code::kQueueNth;
    case IrOp::kPop: return Code::kPop;
    case IrOp::kPush: return Code::kPush;
    case IrOp::kDrop: return Code::kDrop;
    case IrOp::kHasWindow: return Code::kHasWindow;
    case IrOp::kPrint: return Code::kPrint;
    case IrOp::kJmp: return Code::kJmp;
    case IrOp::kJz: return Code::kJz;
    case IrOp::kRet: return Code::kRet;
    case IrOp::kLabel: break;
  }
  PROGMP_UNREACHABLE("labels are stripped at load time");
}

IrExecutable::IrExecutable(const IrProgram& program) {
  // First pass: map each label to the index the instruction after it will
  // have once kLabel markers are stripped.
  std::vector<std::int64_t> label_pc(
      static_cast<std::size_t>(program.num_labels), 0);
  std::int64_t emitted = 0;
  for (const IrInst& inst : program.insts) {
    if (inst.op == IrOp::kLabel) {
      label_pc[static_cast<std::size_t>(inst.imm)] = emitted;
    } else {
      ++emitted;
    }
  }
  steps_.reserve(static_cast<std::size_t>(emitted));
  for (const IrInst& inst : program.insts) {
    if (inst.op == IrOp::kLabel) continue;
    Step step{decode(inst), inst.dst, inst.a, inst.b, inst.imm};
    if (inst.op == IrOp::kJmp || inst.op == IrOp::kJz) {
      step.imm = label_pc[static_cast<std::size_t>(inst.imm)];
    }
    steps_.push_back(step);
  }
  regs_.assign(static_cast<std::size_t>(program.num_vregs), 0);
}

std::int64_t IrExecutable::step_bound(std::int64_t max_trips) const {
  // depth[pc]: back-edge spans [target, jump] covering pc.
  std::vector<int> depth(steps_.size() + 1, 0);
  for (std::size_t pc = 0; pc < steps_.size(); ++pc) {
    const Step& s = steps_[pc];
    if ((s.code == Code::kJmp || s.code == Code::kJz) &&
        s.imm <= static_cast<std::int64_t>(pc)) {
      ++depth[static_cast<std::size_t>(s.imm)];
      --depth[pc + 1];
    }
  }
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  std::int64_t total = 0;
  int d = 0;
  for (std::size_t pc = 0; pc < steps_.size(); ++pc) {
    d += depth[pc];
    std::int64_t runs = 1;
    for (int i = 0; i < d; ++i) {
      runs = runs > kSaturated / (max_trips + 1) ? kSaturated
                                                 : runs * (max_trips + 1);
    }
    total = total > kSaturated - runs ? kSaturated : total + runs;
  }
  return total;
}

IrExecutable::RunResult IrExecutable::run(SchedulerEnv& env,
                                          std::int64_t fuel) {
  std::fill(regs_.begin(), regs_.end(), 0);
  std::int64_t* regs = regs_.data();
  auto r = [&](VReg v) -> std::int64_t& {
    return regs[static_cast<std::size_t>(v)];
  };

  RunResult result;
  const Step* steps = steps_.data();
  const std::size_t size = steps_.size();
  std::size_t pc = 0;
  while (pc < size) {
    if (result.steps >= fuel) {
      result.exhausted = true;
      return result;
    }
    ++result.steps;
    const Step& s = steps[pc];
    switch (s.code) {
      // Division and modulo by zero yield 0 (eBPF semantics).
      case Code::kAdd: r(s.dst) = r(s.a) + r(s.b); break;
      case Code::kSub: r(s.dst) = r(s.a) - r(s.b); break;
      case Code::kMul: r(s.dst) = r(s.a) * r(s.b); break;
      case Code::kDiv: r(s.dst) = r(s.b) == 0 ? 0 : r(s.a) / r(s.b); break;
      case Code::kMod: r(s.dst) = r(s.b) == 0 ? 0 : r(s.a) % r(s.b); break;
      case Code::kLt: r(s.dst) = r(s.a) < r(s.b); break;
      case Code::kGt: r(s.dst) = r(s.a) > r(s.b); break;
      case Code::kLe: r(s.dst) = r(s.a) <= r(s.b); break;
      case Code::kGe: r(s.dst) = r(s.a) >= r(s.b); break;
      case Code::kEq: r(s.dst) = r(s.a) == r(s.b); break;
      case Code::kNe: r(s.dst) = r(s.a) != r(s.b); break;
      case Code::kAnd: r(s.dst) = r(s.a) != 0 && r(s.b) != 0; break;
      case Code::kOr: r(s.dst) = r(s.a) != 0 || r(s.b) != 0; break;
      case Code::kAddImm: r(s.dst) = r(s.a) + s.imm; break;
      case Code::kSubImm: r(s.dst) = r(s.a) - s.imm; break;
      case Code::kMulImm: r(s.dst) = r(s.a) * s.imm; break;
      case Code::kDivImm: r(s.dst) = s.imm == 0 ? 0 : r(s.a) / s.imm; break;
      case Code::kModImm: r(s.dst) = s.imm == 0 ? 0 : r(s.a) % s.imm; break;
      case Code::kLtImm: r(s.dst) = r(s.a) < s.imm; break;
      case Code::kGtImm: r(s.dst) = r(s.a) > s.imm; break;
      case Code::kLeImm: r(s.dst) = r(s.a) <= s.imm; break;
      case Code::kGeImm: r(s.dst) = r(s.a) >= s.imm; break;
      case Code::kEqImm: r(s.dst) = r(s.a) == s.imm; break;
      case Code::kNeImm: r(s.dst) = r(s.a) != s.imm; break;
      case Code::kAndImm: r(s.dst) = r(s.a) != 0 && s.imm != 0; break;
      case Code::kOrImm: r(s.dst) = r(s.a) != 0 || s.imm != 0; break;
      case Code::kConst:
        r(s.dst) = s.imm;
        break;
      case Code::kMov:
        r(s.dst) = r(s.a);
        break;
      case Code::kNeg:
        r(s.dst) = -r(s.a);
        break;
      case Code::kNot:
        r(s.dst) = r(s.a) == 0 ? 1 : 0;
        break;
      case Code::kLoadReg:
        r(s.dst) = env.reg(s.imm);
        break;
      case Code::kStoreReg:
        env.set_reg(s.imm, r(s.a));
        break;
      case Code::kTimeMs:
        r(s.dst) = env.time_ms();
        break;
      case Code::kSbfCount:
        r(s.dst) = env.sbf_count();
        break;
      case Code::kSbfProp:
        r(s.dst) = env.sbf_prop(r(s.a), static_cast<lang::SbfProp>(s.imm));
        break;
      case Code::kPktProp:
        r(s.dst) = env.pkt_prop(static_cast<PktHandle>(r(s.a)),
                                static_cast<lang::PktProp>(s.imm), r(s.b));
        break;
      case Code::kQueueLen:
        r(s.dst) = env.queue_len(static_cast<mptcp::QueueId>(s.imm));
        break;
      case Code::kQueueNth:
        r(s.dst) = static_cast<std::int64_t>(
            env.queue_nth(static_cast<mptcp::QueueId>(s.imm), r(s.a)));
        break;
      case Code::kPop:
        r(s.dst) = static_cast<std::int64_t>(
            env.pop_front(static_cast<mptcp::QueueId>(s.imm)));
        break;
      case Code::kPush:
        env.push(r(s.a), static_cast<PktHandle>(r(s.b)));
        break;
      case Code::kDrop:
        env.drop(static_cast<PktHandle>(r(s.a)));
        break;
      case Code::kHasWindow:
        r(s.dst) = env.has_window_for(static_cast<PktHandle>(r(s.b)));
        break;
      case Code::kPrint:
        env.print(r(s.a));
        break;
      case Code::kJmp:
        pc = static_cast<std::size_t>(s.imm);
        continue;
      case Code::kJz:
        if (r(s.a) == 0) {
          pc = static_cast<std::size_t>(s.imm);
          continue;
        }
        break;
      case Code::kRet:
        return result;
    }
    ++pc;
  }
  return result;
}

void exec_ir(const IrProgram& program, SchedulerEnv& env, std::int64_t fuel) {
  IrExecutable(program).run(env, fuel);
}

}  // namespace progmp::rt
