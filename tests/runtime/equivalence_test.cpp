// Cross-backend equivalence: the interpreter, the compiled IR executor and
// the eBPF VM must produce *identical observable behaviour* — the same
// deferred PUSH actions in the same order, the same register file, the same
// queue mutations — for every built-in scheduler over randomized
// environments. This is the property that makes the three execution
// environments interchangeable (§4.1).
#include <gtest/gtest.h>

#include <string>

#include "../testutil.hpp"
#include "sched/specs.hpp"

namespace progmp {
namespace {

using test::FakeEnv;
using test::must_load;
using mptcp::QueueId;
using rt::Backend;

/// Observable outcome of one scheduler execution.
struct Outcome {
  std::string actions;
  std::vector<std::int64_t> registers;
  std::vector<std::uint64_t> q, qu, rq;
  std::int64_t pops;
  std::int64_t drops;
  std::int64_t null_pushes;
  std::vector<std::int64_t> prints;

  bool operator==(const Outcome&) const = default;
};

/// One execution as the engine runs it: a faulting execution is rolled
/// back before anything else looks at the queues.
struct Execution {
  Outcome outcome;
  bool faulted = false;
  std::int64_t insns = 0;  ///< steps / instructions the backend retired
};

/// Queue contents as meta_seq lists, after checking every queue's
/// internal consistency (membership flags, intrusive index, byte total).
void record_queues(const FakeEnv& env, Outcome& outcome) {
  for (const mptcp::PacketQueue* queue : {&env.q, &env.qu, &env.rq}) {
    const auto problem = queue->audit();
    EXPECT_FALSE(problem.has_value()) << *problem;
  }
  for (const auto& skb : env.q) outcome.q.push_back(skb->meta_seq);
  for (const auto& skb : env.qu) outcome.qu.push_back(skb->meta_seq);
  for (const auto& skb : env.rq) outcome.rq.push_back(skb->meta_seq);
}

/// `exec_budget` > 0 starves the compiled/eBPF backends; the load-time
/// worst-case proof is then off so the runtime budget check is what fires.
Execution run_backend(std::string_view spec, Backend backend,
                      std::uint64_t seed, std::int64_t exec_budget = 0) {
  FakeEnv env;
  test::make_random_env(env, seed);
  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = backend;
  if (exec_budget > 0) {
    options.exec_budget = exec_budget;
    options.verify.absint = false;
  }
  auto program = rt::ProgmpProgram::load(spec, "test_sched", options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  Execution run;
  if (program == nullptr) return run;
  Outcome& outcome = run.outcome;
  program->set_print_fn(
      [&](std::int64_t v) { outcome.prints.push_back(v); });
  auto ctx = env.ctx();
  program->schedule(ctx);
  run.faulted = ctx.faulted();
  run.insns = ctx.exec_insns();
  if (run.faulted) ctx.rollback();
  outcome.actions = test::action_string(ctx);
  outcome.registers = env.registers;
  record_queues(env, outcome);
  outcome.pops = env.stats.pops;
  outcome.drops = env.stats.drops;
  outcome.null_pushes = env.stats.null_pushes;
  return run;
}

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(BackendEquivalence, AllBackendsAgree) {
  const auto& [spec_name, seed] = GetParam();
  const auto spec = sched::specs::find_spec(spec_name);
  ASSERT_TRUE(spec.has_value());

  const Outcome reference =
      run_backend(spec->source, Backend::kInterpreter, seed).outcome;
  const Outcome compiled =
      run_backend(spec->source, Backend::kCompiled, seed).outcome;
  const Outcome ebpf = run_backend(spec->source, Backend::kEbpf, seed).outcome;

  EXPECT_EQ(reference.actions, compiled.actions) << "compiled diverges";
  EXPECT_EQ(reference.actions, ebpf.actions) << "ebpf diverges";
  EXPECT_EQ(reference.registers, compiled.registers);
  EXPECT_EQ(reference.registers, ebpf.registers);
  EXPECT_EQ(reference.q, compiled.q);
  EXPECT_EQ(reference.q, ebpf.q);
  EXPECT_EQ(reference.qu, ebpf.qu);
  EXPECT_EQ(reference.rq, ebpf.rq);
  EXPECT_EQ(reference.pops, ebpf.pops);
  EXPECT_EQ(reference.drops, ebpf.drops);
  EXPECT_EQ(reference.prints, ebpf.prints);
}

std::vector<std::tuple<std::string, std::uint64_t>> all_cases() {
  std::vector<std::tuple<std::string, std::uint64_t>> cases;
  for (const auto& spec : sched::specs::all_specs()) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      cases.emplace_back(std::string(spec.name), seed);
    }
  }
  return cases;
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
        info) {
  return std::get<0>(info.param) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, BackendEquivalence,
                         ::testing::ValuesIn(all_cases()), case_name);

// Targeted language-construct equivalence with PRINT-observable results.
class ConstructEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ConstructEquivalence, AllBackendsAgree) {
  const char* spec = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Execution reference = run_backend(spec, Backend::kInterpreter, seed);
    EXPECT_FALSE(reference.faulted);
    FakeEnv untouched;
    test::make_random_env(untouched, seed);
    Outcome before;
    record_queues(untouched, before);
    for (Backend backend : {Backend::kCompiled, Backend::kEbpf}) {
      const Execution run = run_backend(spec, backend, seed);
      EXPECT_FALSE(run.faulted);
      EXPECT_EQ(reference.outcome, run.outcome)
          << rt::backend_name(backend) << " seed " << seed << " spec:\n"
          << spec;
      // The same execution one instruction short of its end faults after
      // every action it took; the rollback must leave the queues exactly as
      // they were and discard the PUSHes. (The interpreter has no budget.)
      const Execution starved = run_backend(spec, backend, seed, run.insns - 1);
      EXPECT_TRUE(starved.faulted);
      EXPECT_EQ(starved.outcome.actions, "");
      EXPECT_EQ(starved.outcome.q, before.q)
          << rt::backend_name(backend) << " seed " << seed << " spec:\n"
          << spec;
      EXPECT_EQ(starved.outcome.qu, before.qu);
      EXPECT_EQ(starved.outcome.rq, before.rq);
    }
  }
}

const char* kConstructSpecs[] = {
    // Arithmetic with registers, division corner cases.
    "PRINT(R1 * 2 + R2 / (R3 - R3) - R4 % 7);",
    // MIN/MAX ties and keys derived from arithmetic.
    "PRINT(SUBFLOWS.MIN(s => s.RTT % 3).ID);"
    "PRINT(SUBFLOWS.MAX(s => s.CWND * 2).ID);",
    // Nested filters and SUM.
    "PRINT(SUBFLOWS.FILTER(s => !s.IS_BACKUP)"
    ".FILTER(s => s.CWND > 3).SUM(s => s.CWND + s.QUEUED));",
    // Queue scans with packet properties.
    "PRINT(Q.FILTER(p => p.SIZE > 700).COUNT);"
    "PRINT(QU.SUM(p => p.SIZE));"
    "IF (RQ.EMPTY) { PRINT(1); } ELSE { PRINT(RQ.TOP.SEQ); }",
    // FOREACH with nested IF and register accumulation.
    "FOREACH (VAR s IN SUBFLOWS) {"
    "  IF (s.CWND > s.SKBS_IN_FLIGHT) { SET(R1, R1 + s.ID); } }"
    "PRINT(R1);",
    // GET with dynamic index and null handling.
    "VAR s = SUBFLOWS.GET(R1 % 5);"
    "IF (s == NULL) { PRINT(111); } ELSE { PRINT(s.ID); }",
    // Boolean logic matrix.
    "IF ((R1 > 10 AND NOT (R2 < 5)) OR R3 == 0) { PRINT(1); } "
    "ELSE { PRINT(0); }",
    // Packet flags and SENT_ON across subflows.
    "FOREACH (VAR s IN SUBFLOWS) {"
    "  VAR skb = QU.FILTER(p => !p.SENT_ON(s)).TOP;"
    "  IF (skb != NULL) { PRINT(skb.SEQ); } ELSE { PRINT(-1); } }",
    // Time access.
    "PRINT(CURRENT_TIME_MS);",
    // Deeply nested control flow.
    "IF (!Q.EMPTY) { IF (!SUBFLOWS.EMPTY) { IF (R1 > 0) {"
    "  SUBFLOWS.MIN(s => s.RTT + s.RTT_VAR).PUSH(Q.POP()); } } }",
    // Borrowed packet handles. TOP then POP of the same packet, then a PUSH
    // through the first handle: the packet has left Q and lives on in the
    // pop log.
    "VAR top = Q.TOP; VAR p = Q.POP();"
    "SUBFLOWS.MIN(s => s.RTT).PUSH(top);"
    "IF (top != NULL) { PRINT(top.SEQ + p.SEQ); PRINT(Q.COUNT); }",
    // DROP then PUSH of the dropped packet: a counted null push.
    "VAR p = Q.TOP; DROP(p);"
    "SUBFLOWS.MIN(s => s.RTT).PUSH(p);"
    "IF (p != NULL) { PRINT(p.SIZE); } PRINT(Q.COUNT);",
    // A packet read from QU, then dropped (it leaves every queue).
    "VAR p = QU.FILTER(x => x.SIZE > 500).TOP;"
    "IF (p != NULL) { PRINT(p.SEQ); PRINT(p.SENT_COUNT); }"
    "DROP(p); PRINT(QU.COUNT); PRINT(QU.SUM(x => x.SIZE));",
    // A POP before the rest of the program: the starved-budget rerun of
    // every construct faults after it, and the rollback must return the
    // packet to the front of Q.
    "VAR p = Q.POP(); VAR s = SUBFLOWS.MIN(sbf => sbf.RTT);"
    "IF (p != NULL AND s != NULL) { s.PUSH(p); }"
    "PRINT(Q.COUNT);",
    // Interpreter arena: a queue materialized inside a FILTER predicate.
    "PRINT(SUBFLOWS.FILTER(s => QU.FILTER(p => !p.SENT_ON(s)).COUNT > 0)"
    ".COUNT);",
    // A list variable read after a nested FILTER reused the arena above it.
    "VAR l = SUBFLOWS.FILTER(s => s.CWND > 3);"
    "PRINT(SUBFLOWS.FILTER(s => Q.FILTER(p => p.SIZE > 700).COUNT > s.ID)"
    ".COUNT);"
    "PRINT(l.COUNT); PRINT(l.SUM(s => s.ID));"
    "IF (!l.EMPTY) { PRINT(l.GET(0).ID); PRINT(l.MAX(s => s.RTT).ID); }",
    // FOREACH over a list variable whose body materializes queues.
    "VAR l = SUBFLOWS.FILTER(s => !s.IS_BACKUP);"
    "FOREACH (VAR s IN l) {"
    "  PRINT(Q.FILTER(p => !p.SENT_ON(s)).COUNT + QU.SUM(p => p.SIZE));"
    "  PRINT(l.COUNT); }",
    // Branch conditions: comparisons of conditions, nested NOT/AND/OR
    // chains and constant operands compile to eBPF jump chains.
    "IF ((R1 > 10) == (R2 < 5)) { PRINT(1); } ELSE { PRINT(0); }"
    "IF (NOT (R1 > 3 OR (R2 < 7 AND NOT (R3 == R4)))) { PRINT(2); }"
    "IF (SUBFLOWS.FILTER(s => s.CWND > 3 OR NOT s.IS_BACKUP).EMPTY) {"
    "  PRINT(3); }",
};

INSTANTIATE_TEST_SUITE_P(Constructs, ConstructEquivalence,
                         ::testing::ValuesIn(kConstructSpecs));

}  // namespace
}  // namespace progmp
