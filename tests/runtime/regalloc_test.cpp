// Register-allocator stress: programs with parameterized register pressure
// must compile, verify, spill proportionally and compute correctly — the
// second-chance binpacking behaviour under controlled load.
#include <gtest/gtest.h>

#include <bitset>
#include <numeric>
#include <string>

#include "../testutil.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/ebpf_vm.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"
#include "sched/specs.hpp"

namespace progmp::rt::ebpf {
namespace {

using test::FakeEnv;

/// N variables all live until a final SET that sums them.
std::string pressure_spec(int n) {
  std::string spec;
  for (int i = 0; i < n; ++i) {
    spec += "VAR v" + std::to_string(i) + " = R1 + " + std::to_string(i) +
            ";\n";
  }
  spec += "SET(R2, 0";
  for (int i = 0; i < n; ++i) spec += " + v" + std::to_string(i);
  spec += ");\n";
  return spec;
}

class RegAllocPressure : public ::testing::TestWithParam<int> {};

TEST_P(RegAllocPressure, CompilesVerifiesAndComputes) {
  const int n = GetParam();
  DiagSink diags;
  lang::Program p = lang::parse(pressure_spec(n), "pressure", diags);
  ASSERT_TRUE(diags.ok()) << diags.str();
  ASSERT_TRUE(lang::analyze(p, diags)) << diags.str();

  // Unoptimized on purpose: every variable stays live.
  const CompileResult compiled = compile(lower(p));
  ASSERT_TRUE(compiled.ok) << compiled.error;
  ASSERT_TRUE(verify(compiled.code).ok);
  if (n > 4) {
    EXPECT_GT(compiled.spill_slots, 0) << "pressure must cause spills";
  }

  FakeEnv env;
  env.registers[0] = 7;  // R1
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  const auto run = vm.run(compiled.code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  // sum over i of (7 + i).
  std::int64_t expected = 0;
  for (int i = 0; i < n; ++i) expected += 7 + i;
  EXPECT_EQ(env.registers[1], expected);
}

INSTANTIATE_TEST_SUITE_P(Pressure, RegAllocPressure,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 20, 40));

TEST(RegAllocTest, SpillSlotsGrowMonotonicallyWithPressure) {
  int previous = -1;
  for (int n : {4, 8, 16, 32}) {
    DiagSink diags;
    lang::Program p = lang::parse(pressure_spec(n), "pressure", diags);
    ASSERT_TRUE(lang::analyze(p, diags));
    const CompileResult compiled = compile(lower(p));
    ASSERT_TRUE(compiled.ok);
    EXPECT_GE(compiled.spill_slots, previous);
    previous = compiled.spill_slots;
  }
}

TEST(RegAllocTest, OutOfStackIsReportedNotCrashed) {
  // 2048-byte stack = 256 slots. A program with ~400 concurrently live
  // variables cannot be allocated; it must fail with a diagnostic.
  DiagSink diags;
  lang::Program p = lang::parse(pressure_spec(400), "huge", diags);
  ASSERT_TRUE(lang::analyze(p, diags));
  const CompileResult compiled = compile(lower(p));
  EXPECT_FALSE(compiled.ok);
  EXPECT_NE(compiled.error.find("spill"), std::string::npos);
}

TEST(RegAllocTest, SecondChanceValuesSurviveLoops) {
  // A value defined before a loop and used after it must survive arbitrary
  // loop-internal register pressure via its stack home.
  const char* spec =
      "VAR before = R1 * 3;\n"
      "FOREACH (VAR s IN SUBFLOWS) {\n"
      "  VAR a = s.RTT + 1;\n"
      "  VAR b = s.CWND + 2;\n"
      "  VAR c = s.QUEUED + 3;\n"
      "  VAR d = s.MSS + 4;\n"
      "  VAR e = s.ID + 5;\n"
      "  SET(R3, a + b + c + d + e);\n"
      "}\n"
      "SET(R2, before);\n";
  DiagSink diags;
  lang::Program p = lang::parse(spec, "loop", diags);
  ASSERT_TRUE(diags.ok()) << diags.str();
  ASSERT_TRUE(lang::analyze(p, diags)) << diags.str();
  const CompileResult compiled = compile(lower(p));
  ASSERT_TRUE(compiled.ok) << compiled.error;
  ASSERT_TRUE(verify(compiled.code).ok);

  FakeEnv env;
  env.registers[0] = 5;
  env.add_subflow("a", 1000);
  env.add_subflow("b", 2000);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  ASSERT_TRUE(vm.run(compiled.code, senv).ok);
  EXPECT_EQ(env.registers[1], 15);
  EXPECT_NE(env.registers[2], 0);
}

TEST(RegAllocTest, FusedBranchesReduceCodeSize) {
  // The cmp+branch fusion must shrink the hot loop pattern measurably.
  const char* spec = "SET(R1, SUBFLOWS.SUM(s => s.CWND));";
  DiagSink diags;
  lang::Program p = lang::parse(spec, "fuse", diags);
  ASSERT_TRUE(lang::analyze(p, diags));
  IrProgram ir = lower(p);
  const CompileResult compiled = compile(ir);
  ASSERT_TRUE(compiled.ok);
  // Without fusion the loop-bound comparison alone costs 4+ instructions;
  // the whole program must stay compact.
  EXPECT_LT(compiled.code.size(), 60u);
  // And the fused conditional jumps are present.
  bool has_cond_jump = false;
  for (const Insn& insn : compiled.code) {
    if (insn.op == Op::kJsgeReg || insn.op == Op::kJsgeImm) {
      has_cond_jump = true;
    }
  }
  EXPECT_TRUE(has_cond_jump);
}

/// Stack slots written by StxDw that no path reads before the slot is
/// overwritten or the program exits, found by backward slot liveness over
/// the bytecode's control-flow graph. Returns the offending pcs.
std::vector<std::size_t> dead_stores(const Code& code) {
  constexpr int kSlots = kStackBytes / 8;
  using Slots = std::bitset<kSlots>;
  const auto slot_of = [](std::int16_t off) {
    return static_cast<std::size_t>(-off / 8 - 1);
  };
  const std::size_t n = code.size();
  std::vector<Slots> live_in(n);
  std::vector<Slots> live_out(n);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t pc = n; pc-- > 0;) {
      const Insn& insn = code[pc];
      Slots out;
      const auto merge = [&](std::int64_t succ) {
        if (succ >= 0 && succ < static_cast<std::int64_t>(n)) {
          out |= live_in[static_cast<std::size_t>(succ)];
        }
      };
      const auto next = static_cast<std::int64_t>(pc) + 1;
      if (insn.op == Op::kJa) {
        merge(next + insn.off);
      } else if (is_jump(insn.op)) {
        merge(next);
        merge(next + insn.off);
      } else if (insn.op != Op::kExit) {
        merge(next);
      }
      Slots in = out;
      if (insn.op == Op::kStxDw && insn.dst == kFp) {
        in.reset(slot_of(insn.off));
      }
      if (insn.op == Op::kLdxDw && insn.src == kFp) {
        in.set(slot_of(insn.off));
      }
      live_out[pc] = out;
      if (in != live_in[pc]) {
        live_in[pc] = in;
        changed = true;
      }
    }
  }
  std::vector<std::size_t> dead;
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (code[pc].op == Op::kStxDw && code[pc].dst == kFp &&
        !live_out[pc].test(slot_of(code[pc].off))) {
      dead.push_back(pc);
    }
  }
  return dead;
}

TEST(RegAllocTest, BuiltinSpecsStoreOnlyLiveValues) {
  // Every spill store must be read on some path: the allocator writes a
  // value back only while it is live. Checked on the generic variant and
  // on the variants specialized for 1-4 subflows that the loader builds.
  for (const auto& spec : sched::specs::all_specs()) {
    DiagSink diags;
    lang::Program p = lang::parse(spec.source, std::string(spec.name), diags);
    ASSERT_TRUE(diags.ok()) << diags.str();
    ASSERT_TRUE(lang::analyze(p, diags)) << diags.str();
    for (std::int64_t sbf_count = 0; sbf_count <= 4; ++sbf_count) {
      SCOPED_TRACE(std::string(spec.name) + " subflows=" +
                   (sbf_count == 0 ? "generic" : std::to_string(sbf_count)));
      OptOptions opts;
      if (sbf_count > 0) opts.const_sbf_count = sbf_count;
      const CompileResult compiled = compile(optimize(lower(p), opts));
      ASSERT_TRUE(compiled.ok) << compiled.error;
      const VerifyResult verdict = verify(compiled.code);
      EXPECT_TRUE(verdict.ok) << verdict.error;
      for (std::size_t pc : dead_stores(compiled.code)) {
        ADD_FAILURE() << "dead spill store at pc " << pc << ": "
                      << compiled.code[pc].str() << "\n"
                      << disassemble(compiled.code);
      }
    }
  }
}

}  // namespace
}  // namespace progmp::rt::ebpf
