#include "apps/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/check.hpp"
#include "core/invariants.hpp"
#include "core/rng.hpp"
#include "mptcp/conn_invariants.hpp"
#include "mptcp/connection.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace progmp::apps {
namespace {

// ---- Plan generation --------------------------------------------------------
constexpr int kMinFaults = 2;
constexpr int kMaxFaults = 6;
constexpr TimeNs kHorizon = seconds(20);

// ---- Workload ---------------------------------------------------------------
/// Constant-rate app writes from t=0 until one second before the horizon,
/// so every fault window in the plan hits live traffic (a bulk transfer
/// would finish in ~150 ms and leave most faults punching air). The rate is
/// well under either path's capacity: the stream must be recoverable, and a
/// 200-seed soak must stay affordable under ASan.
constexpr std::int64_t kCbrBytesPerSec = 250'000;
/// Fleet sizes of the memory-pressure soak and of the hostile-spec soak
/// (the latter including the hostile tenant).
constexpr int kMemConns = 4;
constexpr int kHostileConns = 3;

// ---- Robustness stack armed during the run ----------------------------------
constexpr int kRtoDeathThreshold = 3;
constexpr TimeNs kKeepaliveIdle = milliseconds(500);
constexpr TimeNs kStallTimeout = seconds(2);

// ---- Checking ---------------------------------------------------------------
/// Stride for the heavy (full-scan) invariants; the cheap class still runs
/// at every event boundary.
constexpr std::uint64_t kInvariantStride = 16;
/// Extra simulated time after the horizon for retransmissions, probe
/// revivals and the final delivery to settle.
constexpr TimeNs kGrace = seconds(40);

const char* kind_name(ChaosFault::Kind k) {
  switch (k) {
    case ChaosFault::Kind::kBlackout:
      return "blackout";
    case ChaosFault::Kind::kAckBlackout:
      return "ack_blackout";
    case ChaosFault::Kind::kFlap:
      return "flap";
    case ChaosFault::Kind::kBurstLoss:
      return "burst_loss";
    case ChaosFault::Kind::kTamper:
      return "tamper";
  }
  return "?";
}

const char* tamper_name(sim::Link::TamperKind k) {
  switch (k) {
    case sim::Link::TamperKind::kStripDss:
      return "strip_dss";
    case sim::Link::TamperKind::kRewritePayload:
      return "rewrite_payload";
    case sim::Link::TamperKind::kStripAckOpts:
      return "strip_ack_opts";
    case sim::Link::TamperKind::kNone:
      break;
  }
  return "none";
}

const char* path_name(int path) { return path == 0 ? "wifi_ap" : "lte_cell"; }

const char* path_id(int path) {
  return path == 0 ? kFleetWifiPath : kFleetLtePath;
}

/// Uniform TimeNs in [lo, hi], millisecond granularity (keeps plans short to
/// print and diff; the simulator itself is nanosecond-exact).
TimeNs next_time(Rng& rng, TimeNs lo, TimeNs hi) {
  const std::int64_t lo_ms = lo.ns() / 1'000'000;
  const std::int64_t hi_ms = hi.ns() / 1'000'000;
  return milliseconds(rng.next_range(lo_ms, std::max(lo_ms, hi_ms)));
}

}  // namespace

std::string ChaosFault::str() const {
  char buf[224];
  switch (kind) {
    case Kind::kFlap:
      std::snprintf(buf, sizeof buf,
                    "flap %s from=%s until=%s down_for=%s up_for=%s",
                    path_name(path), from.str().c_str(), until.str().c_str(),
                    down_for.str().c_str(), up_for.str().c_str());
      break;
    case Kind::kBurstLoss:
      std::snprintf(buf, sizeof buf,
                    "burst_loss %s from=%s until=%s p_enter=%.3f p_exit=%.3f "
                    "loss_bad=%.2f",
                    path_name(path), from.str().c_str(), until.str().c_str(),
                    ge.p_enter_bad, ge.p_exit_bad, ge.loss_bad);
      break;
    case Kind::kTamper:
      std::snprintf(buf, sizeof buf, "tamper %s %s from=%s until=%s rate=%.2f",
                    tamper_name(tamper.kind), path_name(path),
                    from.str().c_str(), until.str().c_str(), tamper.rate);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%s %s from=%s until=%s", kind_name(kind),
                    path_name(path), from.str().c_str(), until.str().c_str());
      break;
  }
  return buf;
}

std::string ChaosPlan::str() const {
  std::string out = "chaos plan seed=" + std::to_string(seed) +
                    " horizon=" + horizon.str() +
                    " faults=" + std::to_string(faults.size()) + "\n";
  out += "  receiver recv_buf=" + std::to_string(recv_buf_bytes) +
         " app_read=" + std::to_string(app_read_bytes_per_sec) + "\n";
  if (pool_bytes > 0) {
    out += "  mem_pool pool=" + std::to_string(pool_bytes) + " priorities=";
    for (std::size_t i = 0; i < priorities.size(); ++i) {
      out += (i > 0 ? "," : "") + std::to_string(priorities[i]);
    }
    out += "\n";
  }
  if (hostile_kind >= 0) {
    static constexpr const char* kHostile[] = {"malformed", "budget_bomb",
                                               "fault_flapper"};
    out += std::string("  hostile kind=") + kHostile[hostile_kind % 3] + "\n";
  }
  for (const ChaosFault& f : faults) out += "  " + f.str() + "\n";
  return out;
}

ChaosPlan make_chaos_plan(std::uint64_t seed, const ChaosOptions& opts) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.horizon = kHorizon;
  Rng rng(seed);

  // Every fault must be fully over before the horizon so delivery is
  // assertable after the grace period — leave a margin at the end.
  const TimeNs latest_end = plan.horizon - milliseconds(500);
  const int n = static_cast<int>(rng.next_range(kMinFaults, kMaxFaults));
  for (int i = 0; i < n; ++i) {
    ChaosFault f;
    f.kind = static_cast<ChaosFault::Kind>(rng.next_range(0, 3));
    f.path = static_cast<int>(rng.next_range(0, 1));
    f.from = next_time(rng, milliseconds(500), latest_end - seconds(1));
    switch (f.kind) {
      case ChaosFault::Kind::kFlap: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, seconds(1), seconds(4)));
        f.down_for = next_time(rng, milliseconds(100), milliseconds(600));
        f.up_for = next_time(rng, milliseconds(100), milliseconds(600));
        break;
      }
      case ChaosFault::Kind::kBurstLoss: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, milliseconds(300),
                                              seconds(3)));
        f.ge.p_enter_bad = 0.05 + 0.25 * rng.next_double();
        f.ge.p_exit_bad = 0.10 + 0.40 * rng.next_double();
        f.ge.loss_good = 0.0;
        f.ge.loss_bad = 1.0;
        break;
      }
      default: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, milliseconds(200),
                                              seconds(3)));
        break;
      }
    }
    plan.faults.push_back(f);
  }
  // Receiver-shape draws come after the fault loop on purpose: the fault
  // list for a given seed is unchanged from earlier soaks. Every
  // app-read rate stays above the CBR write rate, so the stream remains
  // drainable and final delivery stays assertable.
  static constexpr std::int64_t kBufs[] = {256 * 1024, 512 * 1024,
                                           2 * 1024 * 1024,
                                           8 * 1024 * 1024};
  static constexpr std::int64_t kReads[] = {0, 400'000, 750'000, 1'500'000};
  plan.recv_buf_bytes = kBufs[rng.next_range(0, 3)];
  plan.app_read_bytes_per_sec = kReads[rng.next_range(0, 3)];
  if (opts.recv_buf_override > 0) {
    plan.recv_buf_bytes = opts.recv_buf_override;
  }
  if (opts.memory_pressure) {
    // The pool is drawn well under the fleet's aggregate demand — autotuned
    // growth can exhaust it, so pressure episodes and shed demotions really
    // happen — but always covers every admission minimum: this soak
    // exercises degradation under overload, not admission refusal (that
    // path has its own deterministic tests).
    plan.pool_bytes = kMemConns * (64 + rng.next_range(0, 160)) * 1024;
    for (int i = 0; i < kMemConns; ++i) {
      plan.priorities.push_back(static_cast<int>(rng.next_range(1, 4)));
    }
  }
  if (opts.middlebox_tamper) {
    // Tamper draws come last so every earlier draw class (faults, receiver
    // shape, pool) is bit-identical per seed with the mode off.
    const int nt = static_cast<int>(rng.next_range(1, 2));
    for (int i = 0; i < nt; ++i) {
      ChaosFault f;
      f.kind = ChaosFault::Kind::kTamper;
      f.path = static_cast<int>(rng.next_range(0, 1));
      f.from = next_time(rng, milliseconds(500), latest_end - seconds(1));
      f.until = std::min(
          latest_end, f.from + next_time(rng, milliseconds(300), seconds(3)));
      f.tamper.kind =
          static_cast<sim::Link::TamperKind>(rng.next_range(1, 3));
      // High enough that the episode reliably hits live traffic; below 1.0
      // often enough that clean deliveries interleave with tampered ones.
      f.tamper.rate = 0.5 + 0.5 * rng.next_double();
      plan.faults.push_back(f);
    }
  }
  if (opts.hostile_spec) {
    // The last draw class of all: plans for a given seed are unchanged with
    // the mode off, and unchanged for every older mode with it on.
    plan.hostile_kind = static_cast<int>(rng.next_range(0, 2));
  }
  return plan;
}

namespace {

/// Installs the plan's fault schedule on `net` plus the final cleanup sweep
/// at the horizon (overlapping windows can leave a link down or a GE
/// episode enabled; the plan contract says everything is over by then).
void install_plan_faults(sim::Simulator& sim, sim::Network& net,
                         sim::FaultInjector& injector, const ChaosPlan& plan) {
  for (const ChaosFault& f : plan.faults) {
    switch (f.kind) {
      case ChaosFault::Kind::kBlackout:
        injector.blackout(net, path_id(f.path), f.from, f.until);
        break;
      case ChaosFault::Kind::kAckBlackout:
        injector.ack_blackout(net, path_id(f.path), f.from, f.until);
        break;
      case ChaosFault::Kind::kFlap:
        injector.flap(net, path_id(f.path), f.from, f.until, f.down_for,
                      f.up_for);
        break;
      case ChaosFault::Kind::kBurstLoss:
        injector.burst_loss(net, path_id(f.path), f.from, f.until, f.ge);
        break;
      case ChaosFault::Kind::kTamper:
        switch (f.tamper.kind) {
          case sim::Link::TamperKind::kStripDss:
            injector.strip_dss(net, path_id(f.path), f.from, f.until,
                               f.tamper.rate);
            break;
          case sim::Link::TamperKind::kRewritePayload:
            injector.rewrite_payload(net, path_id(f.path), f.from, f.until,
                                     f.tamper.rate);
            break;
          case sim::Link::TamperKind::kStripAckOpts:
            injector.strip_ack_options(net, path_id(f.path), f.from, f.until,
                                       f.tamper.rate);
            break;
          case sim::Link::TamperKind::kNone:
            break;
        }
        break;
    }
  }
  sim.schedule_at(plan.horizon, [&net] {
    for (const char* id : {kFleetWifiPath, kFleetLtePath}) {
      net.set_up(id);
      net.path(id).forward.clear_gilbert_elliott();
      net.path(id).reverse.clear_gilbert_elliott();
      net.path(id).forward.clear_tamper();
      net.path(id).reverse.clear_tamper();
    }
  });
}

/// The multi-tenant variant (ChaosOptions::memory_pressure): the plan's
/// fault schedule against a mixed-priority fleet drawing from one
/// undersized host receive-memory pool, autotuning and shed armed, under
/// both the per-connection invariant packs and the pool invariants.
ChaosVerdict run_chaos_plan_mem(const ChaosPlan& plan,
                                const ChaosOptions& opts) {
  sim::Simulator sim;
  api::ProgmpApi papi;
  std::string err;
  PROGMP_CHECK_MSG(papi.load_builtin("minrtt", &err), err.c_str());

  api::Host::Options hopts;
  hopts.mem_pool.pool_bytes = plan.pool_bytes;
  hopts.mem_pool.shed_enabled = true;
  hopts.mem_pool.shed_after = 2;
  api::Host host(sim, papi, Rng(plan.seed ^ 0xc4a05f00dULL), hopts);
  install_fleet_network(host.network(), /*wifi_ap_mbps=*/16,
                        /*lte_cell_mbps=*/48);

  InvariantChecker checker;
  checker.set_stride(kInvariantStride);

  std::vector<mptcp::MptcpConnection*> conns;
  for (int pri : plan.priorities) {
    mptcp::MptcpConnection::Config cfg =
        fleet_priority_config(pri, kRtoDeathThreshold);
    cfg.keepalive_idle = kKeepaliveIdle;
    cfg.stall_timeout = kStallTimeout;
    cfg.receiver.recv_buf_bytes = plan.recv_buf_bytes;
    cfg.receiver.autotune = true;
    cfg.receiver.app_read_bytes_per_sec = plan.app_read_bytes_per_sec;
    cfg.middlebox_fallback = opts.middlebox_tamper;
    mptcp::MptcpConnection* conn = host.open_connection(cfg, "minrtt", &err);
    // The plan draws the pool large enough for every admission minimum —
    // this soak is about degradation under pressure, not refusal.
    PROGMP_CHECK_MSG(conn != nullptr, err.c_str());
    // Same engine as the single-connection soak: the native MinRTT carries
    // the RQ fresh-path *fallback* (a packet every path already carried is
    // still retransmittable), which the frozen builtin spec lacks — without
    // it a double-lost reinjection wedges the meta gap forever and the
    // delivery assertion would test the spec, not the memory machinery.
    conn->set_scheduler(sched::make_native_minrtt());
    conns.push_back(conn);
    mptcp::install_connection_invariants(checker, *conn);
  }
  api::install_mem_invariants(checker, host);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector injector(sim);
  install_plan_faults(sim, host.network(), injector, plan);

  CbrSource::Options wl;
  wl.schedule = {{TimeNs{0}, kCbrBytesPerSec}};
  wl.duration = plan.horizon - seconds(1);
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (mptcp::MptcpConnection* conn : conns) {
    sources.push_back(std::make_unique<CbrSource>(sim, *conn, wl));
    sources.back()->start();
  }

  sim.run_until(plan.horizon + kGrace);
  checker.force_run(sim.now());

  ChaosVerdict v;
  v.invariants_ok = checker.ok();
  v.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    const InvariantChecker::Violation& first = checker.violations().front();
    v.first_violation = first.check + "@" + first.at.str() + ": " +
                        first.detail;
  }
  v.delivered_all = true;
  for (mptcp::MptcpConnection* conn : conns) {
    v.written += conn->written_bytes();
    v.delivered += conn->delivered_bytes();
    if (conn->written_bytes() == 0 ||
        conn->delivered_bytes() != conn->written_bytes()) {
      v.delivered_all = false;
    }
    for (int s = 0; s < conn->subflow_count(); ++s) {
      v.deaths += conn->subflow(s).stats().deaths;
      v.revivals += conn->subflow(s).stats().revivals;
    }
    v.stalls += conn->stalls();
    v.zero_window_probes += conn->zero_window_probes();
    v.recv_buf_drops += conn->receiver().recv_buf_drops();
    v.dsack_dups += conn->receiver().dsack_dup_segments();
    v.fallbacks += conn->fallbacks();
    v.mapping_lost += conn->receiver().mapping_lost_segments();
    v.csum_fails += conn->receiver().csum_fail_segments();
  }
  v.checker_runs = checker.runs();
  const api::RecvMemPool::Stats& ps = host.mem_pool()->stats();
  v.mem_pressure_episodes = ps.pressure_episodes;
  v.mem_sheds = ps.sheds;
  v.mem_restores = ps.restores;
  return v;
}

/// The hostile-tenant variant (ChaosOptions::hostile_spec): the plan's fault
/// schedule against a fleet where one tenant brings a hostile scheduler.
/// Malformed sources and budget bombs must be refused at load (the tenant
/// then joins on the default spec — a refused load must not cost it its
/// connection); the fault flapper must end up quarantined while everybody,
/// the flapper's own connection included (the default scheduler stands in),
/// keeps full delivery.
ChaosVerdict run_chaos_plan_hostile(const ChaosPlan& plan) {
  sim::Simulator sim;
  api::ProgmpApi papi;
  std::string err;
  PROGMP_CHECK_MSG(papi.load_builtin("minrtt", &err), err.c_str());

  ChaosVerdict v;
  std::string hostile_sched = "minrtt";
  switch (plan.hostile_kind) {
    case 0: {
      // Malformed source: the front end must refuse it.
      v.hostile_load_rejected = !papi.load_scheduler(
          "SCHEDULER hostile; GARBAGE(((", "hostile", &v.hostile_load_error);
      break;
    }
    case 1: {
      // Budget bomb: structurally fine, but its worst-case instruction
      // count dwarfs the execution budget — the load-time WCET proof must
      // refuse it before it ever runs.
      const auto spec = sched::specs::find_spec("minrtt");
      PROGMP_CHECK(spec.has_value());
      rt::ProgmpProgram::LoadOptions lo;
      lo.exec_budget = 64;
      v.hostile_load_rejected = !papi.load_scheduler(
          spec->source, "hostile", lo, &v.hostile_load_error);
      break;
    }
    case 2: {
      // Fault flapper: same spec, same starved budget, but with the WCET
      // proof switched off — the adversary who opts out of verification.
      // It loads, faults on every trigger, and containment moves to the
      // runtime layer: fault scoring must quarantine it.
      const auto spec = sched::specs::find_spec("minrtt");
      PROGMP_CHECK(spec.has_value());
      rt::ProgmpProgram::LoadOptions lo;
      lo.exec_budget = 64;
      lo.verify.absint = false;
      PROGMP_CHECK_MSG(
          papi.load_scheduler(spec->source, "hostile", lo, &err), err.c_str());
      hostile_sched = "hostile";
      break;
    }
    default:
      break;
  }

  api::Host::Options hopts;
  hopts.quarantine.enabled = true;
  hopts.quarantine.fault_threshold = 4;
  hopts.quarantine.window = milliseconds(500);
  hopts.quarantine.cooldown_initial = milliseconds(500);
  hopts.quarantine.cooldown_max = seconds(8);
  hopts.quarantine.probation = milliseconds(250);
  api::Host host(sim, papi, Rng(plan.seed ^ 0xc4a05f00dULL), hopts);
  install_fleet_network(host.network(), /*wifi_ap_mbps=*/16,
                        /*lte_cell_mbps=*/48);

  InvariantChecker checker;
  checker.set_stride(kInvariantStride);

  std::vector<mptcp::MptcpConnection*> conns;
  for (int i = 0; i < kHostileConns; ++i) {
    mptcp::MptcpConnection::Config cfg =
        fleet_handover_config(kRtoDeathThreshold);
    cfg.keepalive_idle = kKeepaliveIdle;
    cfg.stall_timeout = kStallTimeout;
    cfg.receiver.recv_buf_bytes = plan.recv_buf_bytes;
    cfg.receiver.app_read_bytes_per_sec = plan.app_read_bytes_per_sec;
    const bool hostile_tenant = i == 0;
    mptcp::MptcpConnection* conn = host.open_connection(
        cfg, hostile_tenant ? hostile_sched : "minrtt", &err);
    PROGMP_CHECK_MSG(conn != nullptr, err.c_str());
    // Co-tenants run the native MinRTT for the same reason as the memory
    // soak (RQ fresh-path fallback); the hostile tenant keeps its loaded
    // program so its faults feed the quarantine scoring.
    if (!hostile_tenant || hostile_sched == "minrtt") {
      conn->set_scheduler(sched::make_native_minrtt());
    }
    conns.push_back(conn);
    mptcp::install_connection_invariants(checker, *conn);
  }
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector injector(sim);
  install_plan_faults(sim, host.network(), injector, plan);

  CbrSource::Options wl;
  wl.schedule = {{TimeNs{0}, kCbrBytesPerSec}};
  wl.duration = plan.horizon - seconds(1);
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (mptcp::MptcpConnection* conn : conns) {
    sources.push_back(std::make_unique<CbrSource>(sim, *conn, wl));
    sources.back()->start();
  }

  sim.run_until(plan.horizon + kGrace);
  checker.force_run(sim.now());

  v.invariants_ok = checker.ok();
  v.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    const InvariantChecker::Violation& first = checker.violations().front();
    v.first_violation = first.check + "@" + first.at.str() + ": " +
                        first.detail;
  }
  v.delivered_all = true;
  for (mptcp::MptcpConnection* conn : conns) {
    v.written += conn->written_bytes();
    v.delivered += conn->delivered_bytes();
    if (conn->written_bytes() == 0 ||
        conn->delivered_bytes() != conn->written_bytes()) {
      v.delivered_all = false;
    }
    for (int s = 0; s < conn->subflow_count(); ++s) {
      v.deaths += conn->subflow(s).stats().deaths;
      v.revivals += conn->subflow(s).stats().revivals;
    }
    v.stalls += conn->stalls();
    v.zero_window_probes += conn->zero_window_probes();
    v.recv_buf_drops += conn->receiver().recv_buf_drops();
  }
  v.checker_runs = checker.runs();
  v.quarantines = host.quarantine()->total_quarantines();
  v.reinstates = host.quarantine()->total_reinstates();
  return v;
}

}  // namespace

ChaosVerdict run_chaos_plan(const ChaosPlan& plan, const ChaosOptions& opts) {
  if (opts.hostile_spec) return run_chaos_plan_hostile(plan);
  if (opts.memory_pressure) return run_chaos_plan_mem(plan, opts);
  sim::Simulator sim;
  // The network RNG is derived from the plan seed so link loss draws are
  // part of the reproducible run.
  sim::Network net(sim, Rng(plan.seed ^ 0xc4a05f00dULL));
  // Single-user capacities (fleet defaults are sized for a whole cell).
  install_fleet_network(net, /*wifi_ap_mbps=*/16, /*lte_cell_mbps=*/48);

  mptcp::MptcpConnection::Config cfg =
      fleet_handover_config(kRtoDeathThreshold);
  cfg.network = &net;
  cfg.keepalive_idle = kKeepaliveIdle;
  cfg.stall_timeout = kStallTimeout;
  cfg.receiver.recv_buf_bytes = plan.recv_buf_bytes;
  cfg.receiver.app_read_bytes_per_sec = plan.app_read_bytes_per_sec;
  cfg.middlebox_fallback = opts.middlebox_tamper;
  if (opts.capture_trace) {
    cfg.trace_enabled = true;
    cfg.trace_capacity = 1 << 20;
  }
  mptcp::MptcpConnection conn(sim, cfg, Rng(plan.seed));
  conn.set_test_drop_failed_subflow_orphans(
      opts.test_drop_failed_subflow_orphans);
  conn.set_scheduler(sched::make_native_minrtt());

  InvariantChecker checker;
  checker.set_stride(kInvariantStride);
  mptcp::install_connection_invariants(checker, conn);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector injector(sim);
  install_plan_faults(sim, net, injector, plan);

  CbrSource::Options wl;
  wl.schedule = {{TimeNs{0}, kCbrBytesPerSec}};
  wl.duration = plan.horizon - seconds(1);
  CbrSource source(sim, conn, wl);
  source.start();

  sim.run_until(plan.horizon + kGrace);
  checker.force_run(sim.now());

  ChaosVerdict v;
  v.invariants_ok = checker.ok();
  v.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    const InvariantChecker::Violation& first = checker.violations().front();
    v.first_violation = first.check + "@" + first.at.str() + ": " +
                        first.detail;
  }
  v.written = conn.written_bytes();
  v.delivered = conn.delivered_bytes();
  v.delivered_all = v.written > 0 && v.delivered == v.written;
  for (int s = 0; s < conn.subflow_count(); ++s) {
    v.deaths += conn.subflow(s).stats().deaths;
    v.revivals += conn.subflow(s).stats().revivals;
  }
  v.stalls = conn.stalls();
  v.zero_window_probes = conn.zero_window_probes();
  v.recv_buf_drops = conn.receiver().recv_buf_drops();
  v.fallbacks = conn.fallbacks();
  v.mapping_lost = conn.receiver().mapping_lost_segments();
  v.csum_fails = conn.receiver().csum_fail_segments();
  v.checker_runs = checker.runs();
  if (opts.capture_trace) v.trace_csv = conn.tracer().to_csv();
  return v;
}

ChaosPlan minimize_chaos_plan(
    const ChaosPlan& plan, const ChaosOptions& opts,
    const std::function<bool(const ChaosVerdict&)>& still_failing) {
  const auto failing = [&](const ChaosVerdict& v) {
    return still_failing ? still_failing(v) : !v.ok();
  };
  ChaosPlan current = plan;
  bool shrunk = true;
  while (shrunk && current.faults.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.faults.size(); ++i) {
      ChaosPlan candidate = current;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (failing(run_chaos_plan(candidate, opts))) {
        current = std::move(candidate);
        shrunk = true;
        break;  // restart the sweep over the shorter list
      }
    }
  }
  return current;
}

}  // namespace progmp::apps
