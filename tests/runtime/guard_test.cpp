// Execution guards (lang/guard.hpp): soundness over random environments on
// every back end, the derived guard of each construct the vocabulary
// speaks, the conditions under which a program carries no guard, and the
// engine's elision end to end.
#include <gtest/gtest.h>

#include <string>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "mptcp/connection.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"
#include "sched/specs.hpp"

namespace progmp {
namespace {

using rt::Backend;
using test::FakeEnv;

constexpr std::uint64_t kEnvsPerSpec = 2000;

std::unique_ptr<rt::ProgmpProgram> load(
    std::string_view spec, Backend backend,
    rt::ProgmpProgram::LoadOptions options = {}) {
  DiagSink diags;
  options.backend = backend;
  auto program = rt::ProgmpProgram::load(spec, "guard_test", options, diags);
  EXPECT_NE(program, nullptr) << diags.str() << "\n" << spec;
  return program;
}

/// Random environment plus some subflows that are no longer established:
/// SUBFLOWS (and therefore the guard) must skip them.
void make_env(FakeEnv& env, std::uint64_t seed) {
  test::make_random_env(env, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& sbf : env.subflows) sbf.established = !rng.chance(0.15);
}

/// Runs `program` once on the environment of `seed`. When the guard is
/// false, the execution must leave no trace at all. Returns the guard.
bool check_one(rt::ProgmpProgram& program, std::uint64_t seed,
               const std::string& label) {
  FakeEnv env;
  make_env(env, seed);
  const bool may_act = program.may_act(env.subflows, env.queues);
  const std::vector<std::int64_t> registers = env.registers;
  std::vector<std::uint64_t> before;
  for (const auto* queue : {&env.q, &env.qu, &env.rq}) {
    for (const auto& skb : *queue) before.push_back(skb->meta_seq);
    before.push_back(~0ULL);
  }
  std::int64_t prints = 0;
  program.set_print_fn([&prints](std::int64_t) { ++prints; });
  auto ctx = env.ctx();
  program.schedule(ctx);
  if (may_act) return true;
  std::vector<std::uint64_t> after;
  for (const auto* queue : {&env.q, &env.qu, &env.rq}) {
    for (const auto& skb : *queue) after.push_back(skb->meta_seq);
    after.push_back(~0ULL);
  }
  EXPECT_FALSE(ctx.faulted()) << label << " seed " << seed;
  EXPECT_TRUE(ctx.actions().empty()) << label << " seed " << seed;
  EXPECT_EQ(env.stats.pushes, 0) << label << " seed " << seed;
  EXPECT_EQ(env.stats.null_pushes, 0) << label << " seed " << seed;
  EXPECT_EQ(env.stats.pops, 0) << label << " seed " << seed;
  EXPECT_EQ(env.stats.drops, 0) << label << " seed " << seed;
  EXPECT_EQ(env.registers, registers) << label << " seed " << seed;
  EXPECT_EQ(prints, 0) << label << " seed " << seed;
  EXPECT_EQ(after, before) << label << " seed " << seed;
  return false;
}

/// Soundness on `envs` random environments; returns how many the guard
/// would elide.
int check_sound(std::string_view spec, Backend backend,
                const std::string& label, std::uint64_t envs = kEnvsPerSpec) {
  auto program = load(spec, backend);
  if (program == nullptr) return 0;
  int elided = 0;
  for (std::uint64_t seed = 1; seed <= envs; ++seed) {
    if (!check_one(*program, seed, label + "/" + rt::backend_name(backend))) {
      ++elided;
    }
  }
  return elided;
}

class BuiltinGuard
    : public ::testing::TestWithParam<std::tuple<std::string, Backend>> {};

TEST_P(BuiltinGuard, FalseGuardMeansNoEffect) {
  const auto& [name, backend] = GetParam();
  const auto spec = sched::specs::find_spec(name);
  ASSERT_TRUE(spec.has_value());
  const int elided = check_sound(spec->source, backend, name);
  // Non-vacuous: a spec with a guard sees it false in some environments.
  if (!load(spec->source, backend)->guard().is_always()) {
    EXPECT_GT(elided, 0) << name;
  }
}

std::vector<std::tuple<std::string, Backend>> builtin_cases() {
  std::vector<std::tuple<std::string, Backend>> cases;
  for (const auto& spec : sched::specs::all_specs()) {
    for (Backend b : test::kAllBackends) {
      cases.emplace_back(std::string(spec.name), b);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, BuiltinGuard, ::testing::ValuesIn(builtin_cases()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, Backend>>& info) {
      return std::get<0>(info.param) + "_" +
             rt::backend_name(std::get<1>(info.param));
    });

TEST(GuardTest, BackendsDeriveTheSameGuard) {
  for (const auto& spec : sched::specs::all_specs()) {
    const std::string reference =
        load(spec.source, Backend::kInterpreter)->guard().str();
    for (Backend b : {Backend::kCompiled, Backend::kEbpf}) {
      EXPECT_EQ(load(spec.source, b)->guard().str(), reference) << spec.name;
    }
  }
}

TEST(GuardTest, MinRttRefusesTheLoneBackup) {
  // The state behind most of fleet_bulk's null executions: data waits, but
  // the only available subflow is a backup while a regular one exists.
  auto program = load(sched::specs::kMinRtt, Backend::kEbpf);
  FakeEnv env;
  env.add_subflow("wifi", 10'000, 10).skbs_in_flight = 10;  // cwnd full
  env.add_subflow("lte", 40'000, 10, /*backup=*/true);
  env.add_packet(mptcp::QueueId::kQ);
  EXPECT_FALSE(program->may_act(env.subflows, env.queues));
  env.subflows[0].skbs_in_flight = 9;
  EXPECT_TRUE(program->may_act(env.subflows, env.queues));
}

// The rendered guard is a specification-language condition: compiled as
// one, it must agree with Guard::holds on every environment.
TEST(GuardTest, RenderedGuardEvaluatesLikeTheGuard) {
  for (const auto& spec : sched::specs::all_specs()) {
    auto program = load(spec.source, Backend::kEbpf);
    const std::string text = program->guard().str();
    if (text == "always" || text == "never") continue;
    auto probe = load("IF (" + text + ") { PRINT(1); } ELSE { PRINT(0); }",
                      Backend::kInterpreter);
    ASSERT_NE(probe, nullptr);
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      FakeEnv env;
      make_env(env, seed);
      std::int64_t printed = -1;
      probe->set_print_fn([&printed](std::int64_t v) { printed = v; });
      auto ctx = env.ctx();
      probe->schedule(ctx);
      EXPECT_EQ(printed == 1, program->may_act(env.subflows, env.queues))
          << spec.name << " seed " << seed;
    }
  }
}

// ---- Constructs -------------------------------------------------------------

struct ConstructCase {
  const char* name;
  const char* spec;
  const char* guard;  ///< expected Guard::str()
};

const ConstructCase kConstructs[] = {
    {"is_backup",
     "VAR b = SUBFLOWS.FILTER(s => s.IS_BACKUP).MIN(s => s.RTT);"
     "IF (b != NULL) { b.PUSH(Q.POP()); }",
     "!SUBFLOWS.FILTER(s => s.IS_BACKUP).EMPTY"},
    {"tsq_throttled",
     "IF (!SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED).EMPTY) { PRINT(1); }",
     "!SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED).EMPTY"},
    {"lossy",
     "VAR l = SUBFLOWS.FILTER(s => s.LOSSY).MAX(s => s.CWND);"
     "IF (l == NULL) { PRINT(1); }",
     "SUBFLOWS.FILTER(s => s.LOSSY).EMPTY"},
    {"is_preferred",
     "VAR p = SUBFLOWS.FILTER(s => s.IS_PREFERRED).GET(0);"
     "IF (p != NULL) { SET(R1, 1); }",
     "!SUBFLOWS.FILTER(s => s.IS_PREFERRED).EMPTY"},
    {"cwnd_free_property",
     "IF (!SUBFLOWS.FILTER(s => s.CWND_FREE).EMPTY) { PRINT(1); }",
     "!SUBFLOWS.FILTER(s => s.CWND_FREE).EMPTY"},
    {"cwnd_free_pattern",
     "VAR a = SUBFLOWS.FILTER(s => s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT);"
     "IF (!a.EMPTY) { PRINT(1); }",
     "!SUBFLOWS.FILTER(s => s.CWND_FREE).EMPTY"},
    {"cwnd_free_pattern_mirrored",
     "IF (!SUBFLOWS.FILTER(s => s.SKBS_IN_FLIGHT + s.QUEUED < s.CWND).EMPTY)"
     "{ PRINT(1); }",
     "!SUBFLOWS.FILTER(s => s.CWND_FREE).EMPTY"},
    {"literal_on_subflow_variable",
     "VAR f = SUBFLOWS.MIN(s => s.RTT);"
     "IF (f.CWND > f.QUEUED + f.SKBS_IN_FLIGHT AND !f.LOSSY) { PRINT(1); }",
     "!SUBFLOWS.FILTER(s => s.CWND_FREE).EMPTY"},
    {"negated_literal_on_foreach_variable",
     "FOREACH (VAR s IN SUBFLOWS.FILTER(x => x.IS_BACKUP)) {"
     "  IF (!s.LOSSY) { PRINT(s.ID); } }",
     "!SUBFLOWS.FILTER(s => s.IS_BACKUP AND !s.LOSSY).EMPTY"},
    {"inexpressible_literal_is_dropped",
     "VAR s = SUBFLOWS.FILTER(x => x.RTT < 20000 AND !x.LOSSY).MIN(x => x.RTT);"
     "IF (s != NULL) { s.PUSH(Q.POP()); }",
     "!SUBFLOWS.FILTER(s => !s.LOSSY).EMPTY"},
    {"inexact_set_cannot_be_empty",
     "VAR s = SUBFLOWS.FILTER(x => x.RTT < 20000 AND !x.LOSSY).MIN(x => x.RTT);"
     "IF (s == NULL) { PRINT(1); }",
     "always"},
    {"else_negates_queue_emptiness",
     "IF (Q.EMPTY) { RETURN; }"
     "ELSE { SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP()); }",
     "!Q.EMPTY"},
    {"else_negates_subflow_emptiness",
     "IF (SUBFLOWS.FILTER(s => !s.IS_BACKUP).EMPTY) { RETURN; }"
     "ELSE { PRINT(1); }",
     "!SUBFLOWS.FILTER(s => !s.IS_BACKUP).EMPTY"},
    {"else_negates_null_test",
     "VAR t = RQ.TOP;"
     "IF (t != NULL) { RETURN; } ELSE { PRINT(1); }",
     "RQ.EMPTY"},
    {"else_of_conjunction_is_a_disjunction",
     "IF (Q.EMPTY AND RQ.EMPTY) { RETURN; } ELSE { PRINT(1); }",
     "!Q.EMPTY OR !RQ.EMPTY"},
    {"not_and_or",
     "IF (NOT (Q.EMPTY OR SUBFLOWS.EMPTY)) { PRINT(1); }",
     "!Q.EMPTY AND !SUBFLOWS.EMPTY"},
    {"top_null_test",
     "VAR p = Q.TOP; IF (p == NULL) { PRINT(1); }",
     "Q.EMPTY"},
    {"pop_acts_only_on_a_packet",
     "VAR p = RQ.POP(); IF (p != NULL) { DROP(p); }",
     "!RQ.EMPTY"},
    {"emptiness_after_an_effect_is_read_at_the_start",
     // PRINT is reached either as the first effect, with Q empty from the
     // start, or after the POP, whose own clause holds then.
     "IF (!SUBFLOWS.FILTER(s => s.LOSSY).EMPTY) { VAR p = Q.POP(); }"
     "IF (Q.EMPTY) { PRINT(1); }",
     "(!Q.EMPTY AND !SUBFLOWS.FILTER(s => s.LOSSY).EMPTY) OR Q.EMPTY"},
    {"foreach_needs_a_subflow",
     "FOREACH (VAR s IN SUBFLOWS) {"
     "  IF (Q.EMPTY) { PRINT(1); } ELSE { s.PUSH(Q.POP()); } }",
     "(Q.EMPTY AND !SUBFLOWS.EMPTY) OR (!Q.EMPTY AND !SUBFLOWS.EMPTY)"},
    {"has_window_for_needs_a_packet",
     "IF (SUBFLOWS.MIN(s => s.RTT).HAS_WINDOW_FOR(RQ.TOP)) { PRINT(1); }",
     "!RQ.EMPTY"},
    {"contradictory_filter_never_acts",
     "IF (!SUBFLOWS.FILTER(s => s.LOSSY AND !s.LOSSY).EMPTY) { PRINT(1); }",
     "never"},
    {"register_condition_is_dropped",
     "IF (R1 > 3) { SET(R2, 1); }",
     "always"},
    {"queue_scan_carries_no_guard",
     "IF (!Q.EMPTY) { PRINT(QU.FILTER(p => p.SIZE > 700).COUNT); }",
     "always"},
};

class ConstructGuard : public ::testing::TestWithParam<ConstructCase> {};

TEST_P(ConstructGuard, DerivesExpectedGuardSoundly) {
  const ConstructCase& c = GetParam();
  for (Backend b : test::kAllBackends) {
    auto program = load(c.spec, b);
    ASSERT_NE(program, nullptr);
    EXPECT_EQ(program->guard().str(), c.guard) << rt::backend_name(b);
    check_sound(c.spec, b, c.name, 500);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, ConstructGuard, ::testing::ValuesIn(kConstructs),
    [](const ::testing::TestParamInfo<ConstructCase>& info) {
      return std::string(info.param.name);
    });

// ---- When a program carries no guard ----------------------------------------

TEST(GuardTest, BudgetThatCanRunOutDisablesTheGuard) {
  // A program that may fault runs the default scheduler instead, which can
  // act where the program would not.
  rt::ProgmpProgram::LoadOptions tight;
  tight.exec_budget = 40;
  tight.verify.absint = false;
  EXPECT_TRUE(load(sched::specs::kMinRtt, Backend::kCompiled, tight)
                  ->guard()
                  .is_always());
  EXPECT_TRUE(
      load(sched::specs::kMinRtt, Backend::kEbpf, tight)->guard().is_always());
  // The interpreter has no budget and never faults.
  EXPECT_FALSE(load(sched::specs::kMinRtt, Backend::kInterpreter, tight)
                   ->guard()
                   .is_always());
  // Without the verifier's worst-case proof the eBPF guard is off too.
  rt::ProgmpProgram::LoadOptions unproven;
  unproven.verify.absint = false;
  EXPECT_TRUE(load(sched::specs::kMinRtt, Backend::kEbpf, unproven)
                  ->guard()
                  .is_always());
}

TEST(GuardTest, CompiledStepBoundCoversEveryExecution) {
  // The load-time step bound of the compiled back end is an upper bound on
  // what each execution retires.
  for (const auto& spec : sched::specs::all_specs()) {
    DiagSink diags;
    lang::Program ast = lang::parse(spec.source, "bound", diags);
    ASSERT_TRUE(lang::analyze(ast, diags));
    if (!lang::cost_independent_of_queues(ast)) continue;
    rt::IrExecutable exe(rt::optimize(rt::lower(ast)));
    const std::int64_t bound = exe.step_bound(mptcp::kMaxSubflows);
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      FakeEnv env;
      make_env(env, seed);
      auto ctx = env.ctx();
      rt::SchedulerEnv senv(ctx);
      EXPECT_LE(exe.run(senv).steps, bound) << spec.name;
    }
  }
}

// ---- Engine -----------------------------------------------------------------

/// Runs `program` without its guard: the engine executes every trigger.
class Unguarded final : public mptcp::Scheduler {
 public:
  explicit Unguarded(std::unique_ptr<rt::ProgmpProgram> p) : p_(std::move(p)) {}
  void schedule(mptcp::SchedulerContext& ctx) override { p_->schedule(ctx); }
  [[nodiscard]] std::string name() const override { return p_->name(); }

 private:
  std::unique_ptr<rt::ProgmpProgram> p_;
};

struct ConnRun {
  mptcp::SchedulerStats stats;
  std::int64_t delivered = 0;
  std::vector<std::string> trace;  ///< every event but sched_exec_*
};

ConnRun run_conn(std::unique_ptr<mptcp::Scheduler> scheduler) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg = apps::mobile_config(true);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;
  mptcp::MptcpConnection conn(sim, cfg, Rng(11));
  conn.set_scheduler(std::move(scheduler));
  conn.write(400 * 1400);
  sim.run_until(seconds(3));
  ConnRun r;
  r.stats = conn.scheduler_stats();
  r.delivered = conn.delivered_bytes();
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kSchedExecStart ||
        e.type == TraceEventType::kSchedExecEnd) {
      continue;
    }
    r.trace.push_back(std::to_string(e.at.ns()) + " " +
                      trace_event_name(e.type) + " " +
                      std::to_string(e.subflow) + " " + std::to_string(e.a) +
                      " " + std::to_string(e.b) + " " + std::to_string(e.c));
  }
  return r;
}

TEST(GuardTest, ElisionChangesNothingButTheExecutionCount) {
  for (Backend b : test::kAllBackends) {
    const ConnRun guarded = run_conn(load(sched::specs::kMinRtt, b));
    const ConnRun plain =
        run_conn(std::make_unique<Unguarded>(load(sched::specs::kMinRtt, b)));
    EXPECT_GT(guarded.stats.elided, 0) << rt::backend_name(b);
    EXPECT_EQ(plain.stats.elided, 0);
    EXPECT_EQ(guarded.stats.executions + guarded.stats.elided,
              plain.stats.executions);
    EXPECT_EQ(guarded.stats.pushes, plain.stats.pushes);
    EXPECT_EQ(guarded.stats.null_pushes, plain.stats.null_pushes);
    EXPECT_EQ(guarded.stats.pops, plain.stats.pops);
    EXPECT_EQ(guarded.stats.drops, plain.stats.drops);
    EXPECT_EQ(guarded.delivered, plain.delivered);
    EXPECT_GT(guarded.delivered, 0);
    EXPECT_EQ(guarded.trace, plain.trace) << rt::backend_name(b);
  }
}

}  // namespace
}  // namespace progmp
