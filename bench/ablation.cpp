// Ablation — the runtime design choices of §4.1, knocked out one at a time.
//
//  * IR optimization pipeline (constant folding, immediate folding, DCE,
//    jump threading) on/off,
//  * constant-subflow-count specialization on/off,
//  * the compiler peepholes are inside compile(), so their effect shows as
//    optimized-vs-plain instruction counts,
//  * engine push-until-blocked re-run bound (calling-model choice, Fig 4).
#include <chrono>
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "mptcp/connection.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"

namespace progmp::bench {
namespace {

struct ExecCost {
  double ns = 0.0;         ///< wall-clock ns per execution, best of 3 runs
  std::int64_t insns = 0;  ///< instructions the last execution retired
};

ExecCost exec_cost(rt::ProgmpProgram& program, int subflows) {
  mptcp::QueueBundle queues;
  auto skb = std::make_shared<mptcp::Skb>();
  skb->size = 1400;
  queues.q.push_back(skb);  // tracked push sets in_q
  std::vector<mptcp::SubflowInfo> infos(
      static_cast<std::size_t>(subflows));
  for (int i = 0; i < subflows; ++i) {
    auto& info = infos[static_cast<std::size_t>(i)];
    info.slot = i;
    info.established = true;
    info.cwnd = 10;
    info.skbs_in_flight = 10;
    info.rtt = milliseconds(10 + 10 * i);
    info.mss = 1400;
  }
  std::int64_t registers[8] = {};
  mptcp::SchedulerStats stats;
  mptcp::SchedulerContext ctx(TimeNs{0}, {}, infos, &queues, registers,
                              8, 1 << 20, &stats);
  for (int i = 0; i < 2000; ++i) program.schedule(ctx);
  constexpr int kIterations = 100'000;
  double best = 1e18;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) program.schedule(ctx);
    const auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(end - start)
                            .count() /
                        kIterations);
  }
  return {best, ctx.exec_insns()};
}

std::unique_ptr<rt::ProgmpProgram> load_variant(bool optimize,
                                                bool specialize) {
  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = rt::Backend::kEbpf;
  options.optimize = optimize;
  options.specialize_subflow_count = specialize;
  auto program = rt::ProgmpProgram::load(sched::specs::kMinRtt, "minrtt",
                                         options, diags);
  if (program == nullptr) {
    std::fprintf(stderr, "%s\n", diags.str().c_str());
    std::abort();
  }
  return program;
}

}  // namespace
}  // namespace progmp::bench

int main() {
  using namespace progmp;
  using namespace progmp::bench;

  print_header("Ablation — runtime optimizations of §4.1, knocked out",
               "every listed optimization must pay for itself");

  // ---- IR pipeline & specialization: execution time -------------------------
  // Pass/fail reads the executed instructions per execution, which are
  // deterministic; the wall-clock column is information only (two medians
  // taken back to back on a shared machine order themselves by load).
  Table table({"variant", "exec ns (2 sbf)", "insns/exec", "eBPF insns"});
  struct Variant {
    const char* name;
    bool optimize;
    bool specialize;
  };
  const Variant variants[] = {
      {"full (opt + specialization)", true, true},
      {"no subflow-count specialization", true, false},
      {"no IR optimization", false, true},
      {"neither", false, false},
  };
  std::int64_t full_insns = 0;
  std::int64_t plain_insns = 0;
  for (const Variant& v : variants) {
    auto program = load_variant(v.optimize, v.specialize);
    const ExecCost cost = exec_cost(*program, 2);
    if (v.optimize && v.specialize) full_insns = cost.insns;
    if (!v.optimize && !v.specialize) plain_insns = cost.insns;
    table.add_row({v.name, Table::num(cost.ns, 1),
                   std::to_string(cost.insns),
                   std::to_string(program->generic_code().size())});
  }
  std::printf("%s", table.str().c_str());

  bool ok = true;
  ok &= check_shape(
      "the full pipeline beats the unoptimized build: it retires fewer "
      "instructions per execution",
      full_insns > 0 && full_insns < plain_insns);

  // ---- Compiler peepholes: code size -----------------------------------------
  DiagSink diags;
  lang::Program ast =
      lang::parse(sched::specs::kMinRtt, "minrtt", diags);
  lang::analyze(ast, diags);
  const rt::IrProgram plain_ir = rt::lower(ast);
  const rt::IrProgram opt_ir = rt::optimize(rt::lower(ast));
  const auto plain_code = rt::ebpf::compile(plain_ir);
  const auto opt_code = rt::ebpf::compile(opt_ir);
  std::printf("\n  IR instructions: %zu plain -> %zu optimized\n",
              plain_ir.insts.size(), opt_ir.insts.size());
  std::printf("  eBPF instructions: %zu plain -> %zu optimized\n",
              plain_code.code.size(), opt_code.code.size());
  ok &= check_shape("IR optimization shrinks both IR and bytecode",
                    opt_ir.insts.size() < plain_ir.insts.size() &&
                        opt_code.code.size() < plain_code.code.size());

  // ---- Engine re-run bound (push-until-blocked, Fig 4) ------------------------
  // Ablation *finding*: even starving the engine to one execution per
  // trigger barely changes completion time, because the Fig 4 event set
  // (data pushed, ACKs, TSQ freed, reinjects, window updates) is dense
  // enough to guarantee progress on its own. Push-until-blocked is a
  // batching optimization, not a correctness requirement — we assert
  // exactly that.
  auto transfer_time_ms = [&](int max_executions) {
    sim::Simulator sim;
    auto cfg = apps::lossy_config(0.0);
    cfg.max_executions_per_trigger = max_executions;
    mptcp::MptcpConnection conn(sim, cfg, Rng(5));
    conn.set_scheduler(load_builtin("minrtt"));
    conn.write(500 * 1400);
    sim.run_until(seconds(120));
    if (conn.delivered_bytes() != conn.written_bytes()) return 1e12;
    // Completion time = time of last delivery.
    return static_cast<double>(
               conn.receiver().deliveries().back().at.us()) /
           1000.0;
  };
  const double full_engine = transfer_time_ms(512);
  const double starved_engine = transfer_time_ms(1);
  std::printf("\n  transfer completion: %.1f ms (re-run bound 512) vs %.1f "
              "ms (bound 1)\n",
              full_engine, starved_engine);
  ok &= check_shape(
      "the event-driven calling model alone guarantees progress: a starved "
      "engine (one execution per trigger) still completes the transfer "
      "within 10% of the batched engine",
      starved_engine < full_engine * 1.10);
  return ok ? 0 : 1;
}
