// Loading pipeline of ProgmpProgram: error propagation, backends,
// introspection, specialization cache.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "sched/specs.hpp"

namespace progmp::rt {
namespace {

using test::FakeEnv;
using mptcp::QueueId;

TEST(ProgramTest, LoadRejectsParseError) {
  DiagSink diags;
  auto program = ProgmpProgram::load("VAR x = ;", "bad", {}, diags);
  EXPECT_EQ(program, nullptr);
  EXPECT_FALSE(diags.ok());
}

TEST(ProgramTest, LoadRejectsTypeError) {
  DiagSink diags;
  auto program = ProgmpProgram::load("VAR x = Q.TOP + 1;", "bad", {}, diags);
  EXPECT_EQ(program, nullptr);
  EXPECT_FALSE(diags.ok());
}

TEST(ProgramTest, BackendNames) {
  EXPECT_STREQ(backend_name(Backend::kInterpreter), "interpreter");
  EXPECT_STREQ(backend_name(Backend::kCompiled), "compiled");
  EXPECT_STREQ(backend_name(Backend::kEbpf), "ebpf");
}

TEST(ProgramTest, IntrospectionOnEbpfBackend) {
  DiagSink diags;
  ProgmpProgram::LoadOptions options;
  options.backend = Backend::kEbpf;
  auto program = ProgmpProgram::load(sched::specs::kRoundRobin, "roundrobin",
                                     options, diags);
  ASSERT_NE(program, nullptr) << diags.str();
  EXPECT_EQ(program->name(), "roundrobin");
  EXPECT_FALSE(program->disassembly().empty());
  EXPECT_GT(program->memory_bytes(), 0u);
  EXPECT_GT(program->spec_lines(), 3);
  EXPECT_FALSE(program->generic_code().empty());
}

TEST(ProgramTest, SpecializationCacheGrowsPerSubflowCount) {
  DiagSink diags;
  ProgmpProgram::LoadOptions options;
  options.backend = Backend::kEbpf;
  auto program = ProgmpProgram::load(sched::specs::kMinRtt, "minrtt", options,
                                     diags);
  ASSERT_NE(program, nullptr) << diags.str();
  EXPECT_EQ(program->specialized_variants(), 0u);

  for (int n : {1, 2, 2, 3}) {
    FakeEnv env;
    for (int i = 0; i < n; ++i) env.add_subflow("s" + std::to_string(i), 1000);
    env.add_packet(QueueId::kQ);
    auto ctx = env.ctx();
    program->schedule(ctx);
  }
  // Variants for counts 1, 2 and 3 (count 2 reused from cache).
  EXPECT_EQ(program->specialized_variants(), 3u);
}

/// Runs `SET(R1, R1 + 1);` once under `budget`; returns {R1, faulted,
/// instructions retired}. The absint pass is off so the load never refuses
/// a budget below its derived bound: the runtime check is under test.
struct BudgetRun {
  std::int64_t r1;
  bool faulted;
  std::int64_t insns;
};
BudgetRun run_increment(Backend backend, std::int64_t budget) {
  DiagSink diags;
  ProgmpProgram::LoadOptions options;
  options.backend = backend;
  options.exec_budget = budget;
  options.verify.absint = false;
  auto program =
      ProgmpProgram::load("SET(R1, R1 + 1);", "inc", options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  if (program == nullptr) return {};
  FakeEnv env;
  auto ctx = env.ctx();
  program->schedule(ctx);
  return {env.registers[0], ctx.faulted(), ctx.exec_insns()};
}

TEST(ProgramTest, BudgetOfExactlyTheStepCountRunsClean) {
  for (Backend backend : {Backend::kCompiled, Backend::kEbpf}) {
    SCOPED_TRACE(backend_name(backend));
    const std::int64_t exact = run_increment(backend, 1'000'000).insns;
    ASSERT_GT(exact, 1);

    const BudgetRun at_exact = run_increment(backend, exact);
    EXPECT_FALSE(at_exact.faulted);
    EXPECT_EQ(at_exact.r1, 1);
    EXPECT_EQ(at_exact.insns, exact);

    // One unit short: the program cannot reach its end and must fault.
    const BudgetRun short_by_one = run_increment(backend, exact - 1);
    EXPECT_TRUE(short_by_one.faulted);
    EXPECT_EQ(short_by_one.insns, exact - 1);
  }
}

TEST(ProgramTest, SpecializationCanBeDisabled) {
  DiagSink diags;
  ProgmpProgram::LoadOptions options;
  options.backend = Backend::kEbpf;
  options.specialize_subflow_count = false;
  auto program = ProgmpProgram::load(sched::specs::kMinRtt, "minrtt", options,
                                     diags);
  ASSERT_NE(program, nullptr);
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_packet(QueueId::kQ);
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(program->specialized_variants(), 0u);
  EXPECT_EQ(ctx.actions().size(), 1u);
}

TEST(ProgramTest, AllBuiltinSpecsLoadOnAllBackends) {
  for (const auto& spec : sched::specs::all_specs()) {
    for (Backend backend : test::kAllBackends) {
      DiagSink diags;
      ProgmpProgram::LoadOptions options;
      options.backend = backend;
      auto program = ProgmpProgram::load(spec.source, std::string(spec.name),
                                         options, diags);
      EXPECT_NE(program, nullptr)
          << spec.name << " on " << backend_name(backend) << ": "
          << diags.str();
    }
  }
}

TEST(ProgramTest, SpecLinesMatchesSource) {
  DiagSink diags;
  auto program = ProgmpProgram::load("SET(R1, 1);\nSET(R2, 2);\n", "two",
                                     {}, diags);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->spec_lines(), 3);  // two lines + trailing newline
}

}  // namespace
}  // namespace progmp::rt
