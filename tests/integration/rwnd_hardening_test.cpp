// The receive window: zero-window persist probing (RFC 9293 §3.8.6.1),
// window updates lost on the real reverse link, bounded reassembly and SWS
// window-update coalescing.
#include <gtest/gtest.h>

#include <vector>

#include "apps/chaos.hpp"
#include "apps/scenarios.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/receiver.hpp"
#include "sched/native.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace progmp::mptcp {
namespace {

std::vector<TimeNs> event_times(const MptcpConnection& conn,
                                TraceEventType type) {
  std::vector<TimeNs> out;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == type) out.push_back(e.at);
  }
  return out;
}

// ---- Zero-window open/close under both receiver models ---------------------

class ZeroWindowTest : public ::testing::TestWithParam<ReceiverModel> {};

TEST_P(ZeroWindowTest, WindowClosesAndReopensOverRoutedUpdates) {
  // A slow application reader repeatedly closes and reopens the window
  // while every window update pays for a real reverse-link crossing. The
  // transfer must stay window-paced but complete, under both the
  // multi-layer and the optimized receiver.
  sim::Simulator sim;
  auto cfg = apps::lossy_config(0.0);
  cfg.receiver.model = GetParam();
  cfg.receiver.recv_buf_bytes = 10 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 200'000;
  MptcpConnection conn(sim, cfg, Rng(11));
  conn.set_scheduler(sched::make_native_minrtt());
  conn.write(400 * 1400);
  sim.run_until(seconds(1));
  // Window-limited: the 200 kB/s reader paces the 560 kB transfer.
  EXPECT_LT(conn.delivered_bytes(), conn.written_bytes());
  sim.run_until(seconds(10));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.wnd_updates_routed(), 0);
  EXPECT_EQ(conn.wnd_updates_routed(), conn.wnd_updates_delivered());
}

INSTANTIATE_TEST_SUITE_P(BothModels, ZeroWindowTest,
                         ::testing::Values(ReceiverModel::kMultiLayer,
                                           ReceiverModel::kOptimized),
                         [](const auto& info) {
                           return info.param == ReceiverModel::kMultiLayer
                                      ? "multilayer"
                                      : "optimized";
                         });

// ---- The persist timer and its exponential backoff --------------------------

/// Sender whose window closed with nothing in flight, and whose window
/// updates (and probe echoes) die on a downed reverse link: exactly the
/// situation the persist timer exists for.
struct PersistRig {
  sim::Simulator sim;
  MptcpConnection conn;

  explicit PersistRig(MptcpConnection::Config cfg, std::uint64_t seed = 21)
      : conn(sim, cfg, Rng(seed)) {
    conn.set_scheduler(sched::make_native_minrtt());
  }
};

MptcpConnection::Config persist_config() {
  auto cfg = apps::single_path_config({});
  cfg.receiver.recv_buf_bytes = 20 * 1400;  // 28'000
  cfg.receiver.app_read_bytes_per_sec = 20'000;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 16;
  return cfg;
}

/// Fill the receive buffer exactly (all data ACKed by ~30ms, final ACK
/// advertising a zero window), take the reverse link down at 50ms — after
/// the zero-window ACK but before the slow reader's first window update at
/// ~75ms — then write more: the sender is rwnd-blocked with nothing in
/// flight, so neither the ACK clock nor the RTO will ever fire again.
void run_blocked_sender(PersistRig& rig, TimeNs heal_at, TimeNs run_until) {
  rig.conn.write(20 * 1400);
  rig.sim.schedule_at(milliseconds(50),
                      [&] { rig.conn.path(0).reverse.set_down(); });
  rig.sim.schedule_at(milliseconds(150), [&] { rig.conn.write(20 * 1400); });
  rig.sim.schedule_at(heal_at, [&] { rig.conn.path(0).reverse.set_up(); });
  rig.sim.run_until(run_until);
}

TEST(PersistTimerTest, ProbeBackoffDoublesUpToCap) {
  PersistRig rig(persist_config());
  run_blocked_sender(rig, /*heal_at=*/seconds(10), /*run_until=*/seconds(14));

  const auto probes = event_times(rig.conn, TraceEventType::kZeroWindowProbe);
  ASSERT_GE(probes.size(), 6u);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < probes.size(); ++i) {
    gaps.push_back(static_cast<double>((probes[i] - probes[i - 1]).ns()));
  }
  const double interval =
      static_cast<double>(MptcpConnection::kPersistInterval.ns());
  const double cap =
      static_cast<double>(MptcpConnection::kPersistIntervalMax.ns());
  // The first probe fires kPersistInterval after arming; the gaps between
  // probes then double — 400ms, 800ms, 1.6s — until capped at
  // kPersistIntervalMax (2s).
  EXPECT_NEAR(gaps.front(), 2.0 * interval, interval * 0.1);
  for (std::size_t i = 0; i + 1 < 2 && i + 1 < gaps.size(); ++i) {
    EXPECT_NEAR(gaps[i + 1] / gaps[i], 2.0, 0.1) << "gap index " << i;
  }
  for (std::size_t i = 3; i < gaps.size(); ++i) {
    EXPECT_NEAR(gaps[i], cap, cap * 0.05) << "gap index " << i;
  }
  // Once the reverse path heals, the next probe's echo reopens the window
  // and the transfer completes without any window update ever arriving.
  EXPECT_EQ(rig.conn.delivered_bytes(), rig.conn.written_bytes());
  EXPECT_GT(rig.conn.zero_window_probes(), 0);
  EXPECT_FALSE(rig.conn.persist_armed());
}

TEST(PersistTimerTest, SubflowCloseCancelsArmedProbeChain) {
  // A subflow closing while the zero-window persist chain is armed must
  // cancel the probe epoch: no probe may ride the dead subflow, and with no
  // established subflow left the chain must not re-arm either.
  PersistRig rig(persist_config());
  rig.conn.write(20 * 1400);
  rig.sim.schedule_at(milliseconds(50),
                      [&] { rig.conn.path(0).reverse.set_down(); });
  rig.sim.schedule_at(milliseconds(150), [&] { rig.conn.write(20 * 1400); });
  rig.sim.run_until(seconds(2));
  ASSERT_TRUE(rig.conn.persist_armed());
  const std::size_t probes_before =
      event_times(rig.conn, TraceEventType::kZeroWindowProbe).size();
  rig.conn.close_subflow(0);
  EXPECT_FALSE(rig.conn.persist_armed());
  rig.sim.run_until(seconds(12));
  EXPECT_FALSE(rig.conn.persist_armed());
  EXPECT_EQ(event_times(rig.conn, TraceEventType::kZeroWindowProbe).size(),
            probes_before)
      << "a persist probe rode the closed subflow";
}

TEST(PersistTimerTest, FallbackAbandonCancelsProbeChain) {
  // Same regression through the fallback route: the probe chain is armed
  // while the fast subflow carries the probes, then a DSS-stripping
  // middlebox appears on that path the moment the reverse links heal. The
  // fallback abandons the fast subflow — the armed epoch must die with it,
  // and every later probe must ride the surviving subflow.
  sim::Simulator sim;
  auto cfg = apps::heterogeneous_config(/*rtt_ratio=*/4.0);
  cfg.receiver.recv_buf_bytes = 20 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 20'000;
  cfg.middlebox_fallback = true;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 16;
  MptcpConnection conn(sim, cfg, Rng(21));
  conn.set_scheduler(sched::make_native_minrtt());

  conn.write(20 * 1400);
  sim.schedule_at(milliseconds(50), [&] {
    conn.path(0).reverse.set_down();
    conn.path(1).reverse.set_down();
  });
  sim.schedule_at(milliseconds(150), [&] { conn.write(20 * 1400); });
  sim.schedule_at(seconds(3), [&] {
    conn.path(0).reverse.set_up();
    conn.path(1).reverse.set_up();
  });
  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).forward, seconds(3), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});
  sim.run_until(seconds(30));

  EXPECT_EQ(conn.fallbacks(), 1);
  EXPECT_EQ(conn.fallback_survivor(), 1);
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_FALSE(conn.persist_armed());
  TimeNs fallback_at{-1};
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kFallback) {
      fallback_at = e.at;
      break;
    }
  }
  ASSERT_GE(fallback_at, TimeNs{0}) << "fallback never happened";
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kZeroWindowProbe && e.at > fallback_at) {
      EXPECT_EQ(e.subflow, 1) << "a probe rode the abandoned subflow at "
                              << e.at.str();
    }
  }
}

// ---- Lost window updates -----------------------------------------------------
//
// Every window update dies on the downed reverse link and the receiver has
// no reason to send another one: only the persist timer reopens the window.

TEST(WindowUpdateLossTest, PersistProbingRecoversAfterHeal) {
  PersistRig rig(persist_config());
  run_blocked_sender(rig, /*heal_at=*/seconds(3), /*run_until=*/seconds(30));
  EXPECT_EQ(rig.conn.delivered_bytes(), rig.conn.written_bytes());
  EXPECT_GT(rig.conn.zero_window_probes(), 0);
  // Recovery latency is bounded by the probe cadence: the first probe after
  // the heal reopens the window.
  const auto deliveries = rig.conn.receiver().deliveries();
  ASSERT_FALSE(deliveries.empty());
  EXPECT_LE(deliveries.back().at,
            seconds(3) + MptcpConnection::kPersistIntervalMax + seconds(2));
}

TEST(WindowUpdateLossTest, CrossPathStragglerDoesNotWedgeTheWindow) {
  // WL1/WL2 regression: with one fast and one very slow path, the slow
  // subflow's data ACKs arrive carrying a fresher cumulative ack but an
  // *older* window snapshot than the window updates they raced. A sender
  // ordering advertisements by cumulative ack alone lets the final
  // straggler (rwnd=0, snapshotted while the buffer was full) overwrite
  // the reopened window and wedges forever — the emission-order stamp is
  // what keeps the transfer alive.
  sim::Simulator sim;
  MptcpConnection::Config cfg;
  cfg.subflows.push_back(
      apps::make_subflow("fast", {10, milliseconds(5), 0.0}));
  cfg.subflows.push_back(
      apps::make_subflow("slow", {10, milliseconds(40), 0.0}));
  cfg.receiver.recv_buf_bytes = 12 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 1'000'000;
  MptcpConnection conn(sim, cfg, Rng(31));
  conn.set_scheduler(sched::make_native_minrtt());
  conn.write(300 * 1400);
  sim.run_until(seconds(30));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.rwnd_bytes(), 0);
}

// ---- Bounded reassembly ------------------------------------------------------

TEST(RecvBufEnforcementTest, OverflowingOooIsDroppedAndRecovered) {
  // The advertised window charges unread bytes, so a well-behaved sender
  // can never overrun the buffer with fresh data — the reachable overflow
  // is duplicate bytes: under the redundant scheduler the copy on the
  // lossless subflow is delivered (growing unread) while the copy on the
  // lossy subflow sits hostage behind the subflow hole, counted a second
  // time in the multi-layer OOO queue. The overflowing hostage segments
  // must be refused (kRecvBufDrop) and recovered by the subflow's normal
  // retransmission; the transfer still completes and the buffer bound
  // holds throughout.
  sim::Simulator sim;
  auto cfg = apps::lossy_config(0.0);
  cfg.receiver.model = ReceiverModel::kMultiLayer;
  cfg.receiver.recv_buf_bytes = 12 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 100'000;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 16;
  MptcpConnection conn(sim, cfg, Rng(31));
  conn.set_scheduler(sched::make_native_redundant());
  // The redundant scheduler re-pushes on every trigger, so the trace ring
  // churns far too fast to hold the early drop events — count them through
  // the streaming sink instead.
  int drop_events = 0;
  conn.tracer().set_sink([&](const TraceEvent& e) {
    if (e.type == TraceEventType::kRecvBufDrop) ++drop_events;
  });
  conn.path(0).forward.set_loss_fn([](std::int64_t i) { return i == 4; });
  conn.write(100 * 1400);
  sim.run_until(seconds(30));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.receiver().recv_buf_drops(), 0);
  EXPECT_EQ(drop_events, conn.receiver().recv_buf_drops());
  // The bound the enforcement promises actually held throughout.
  EXPECT_EQ(conn.receiver().audit(), std::nullopt);
}

TEST(RecvBufEnforcementTest, SoleCopyDropIsRecoveredByRetransmission) {
  // The nastier enforcement case: the copy refused by the buffer bound is
  // the ONLY copy — its redundant twin was lost on the wire, so after the
  // drop the receiver holds that meta segment nowhere. The drop must look
  // exactly like wire loss to the sender: the segment is recovered by the
  // normal retransmission machinery (RTO once the window drains), the
  // transfer completes, and the receiver audit stays green throughout.
  sim::Simulator sim;
  auto cfg = apps::lossy_config(0.0);
  cfg.receiver.model = ReceiverModel::kMultiLayer;
  cfg.receiver.recv_buf_bytes = 12 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 100'000;
  cfg.trace_enabled = true;
  MptcpConnection conn(sim, cfg, Rng(31));
  conn.set_scheduler(sched::make_native_redundant());
  int sole_copy_drops = 0;
  int rto_fires = 0;
  conn.tracer().set_sink([&](const TraceEvent& e) {
    if (e.type == TraceEventType::kRecvBufDrop) {
      // c carries the refused segment's meta_seq; if the receiver holds it
      // nowhere at this instant, the twin never made it either.
      if (!conn.receiver().has_received(static_cast<std::uint64_t>(e.c))) {
        ++sole_copy_drops;
      }
    }
    if (e.type == TraceEventType::kRto) ++rto_fires;
  });
  // Path 0 loses its segment 4: every later path-0 copy parks hostage
  // behind the hole until the bound refuses them. Path 1 loses a swath of
  // the same span, so for some meta seqs the refused hostage WAS the last
  // copy standing.
  conn.path(0).forward.set_loss_fn([](std::int64_t i) { return i == 4; });
  conn.path(1).forward.set_loss_fn(
      [](std::int64_t i) { return i >= 13 && i <= 15; });
  conn.write(100 * 1400);
  sim.run_until(seconds(30));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.receiver().recv_buf_drops(), 0);
  EXPECT_GT(sole_copy_drops, 0);
  EXPECT_GT(rto_fires, 0);
  EXPECT_EQ(conn.receiver().audit(), std::nullopt);
}

// ---- SWS window-update coalescing -------------------------------------------

TEST(SwsCoalescingTest, FewerUpdatesSameOutcome) {
  sim::Simulator sim;
  auto cfg = apps::lossy_config(0.0);
  cfg.receiver.recv_buf_bytes = 10 * 1400;
  cfg.receiver.app_read_bytes_per_sec = 200'000;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;
  MptcpConnection conn(sim, cfg, Rng(41));
  conn.set_scheduler(sched::make_native_minrtt());
  conn.write(300 * 1400);
  sim.run_until(seconds(10));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  // The app reads 4 KB chunks out of a 1400-byte-MSS stream: most per-chunk
  // updates are sub-MSS advances the SWS rule swallows.
  EXPECT_GT(conn.receiver().window_updates_coalesced(), 0);
  // Each update that did go out opens the window from zero or grows it by
  // a full MSS over the previous advertisement (a = that advertisement).
  int updates = 0;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type != TraceEventType::kWindowUpdate) continue;
    ++updates;
    EXPECT_TRUE((e.a <= 0 && e.b > 0) || e.b - e.a >= 1400)
        << "window update at " << e.at.str() << " from " << e.a << " to "
        << e.b;
  }
  EXPECT_EQ(updates, conn.receiver().window_updates_emitted());
  EXPECT_GT(updates, 0);
}

// ---- has_received index and subflow reset -----------------------------------

TEST(ReceiverIndexTest, SubflowOooIndexTracksHoldAndReset) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.model = ReceiverModel::kMultiLayer;
  Receiver rx(sim, cfg);
  // Subflow 0 holds two out-of-order segments (sbf hole at 0).
  rx.on_data({0, /*sbf_seq=*/1, /*meta_seq=*/5, 1400});
  rx.on_data({0, /*sbf_seq=*/2, /*meta_seq=*/6, 1400});
  EXPECT_TRUE(rx.has_received(5));
  EXPECT_TRUE(rx.has_received(6));
  EXPECT_FALSE(rx.has_received(4));
  EXPECT_EQ(rx.audit(), std::nullopt);
  // The reset drops the held segments with the subflow sequence space.
  rx.reset_subflow(0);
  EXPECT_FALSE(rx.has_received(5));
  EXPECT_FALSE(rx.has_received(6));
  EXPECT_EQ(rx.audit(), std::nullopt);
  // Filling the hole after a hold drains the index through the fast path.
  rx.on_data({1, 1, 7, 1400});
  EXPECT_TRUE(rx.has_received(7));
  rx.on_data({1, 0, 0, 1400});
  EXPECT_TRUE(rx.has_received(7));  // moved to meta reassembly
  EXPECT_EQ(rx.audit(), std::nullopt);
}

// ---- Small-buffer chaos variant ---------------------------------------------

TEST(RwndChaosTest, SmallBufferPlansSurviveWithInvariants) {
  // Every plan forced onto a 256 KB receive buffer — the shape that exposed
  // both the window-blocked scheduling wedge and the stale-window-update
  // overrun. Full 200-seed shards run under `ctest -L chaos`; this variant
  // pins the hardest buffer size across a sample of seeds.
  apps::ChaosOptions opts;
  opts.recv_buf_override = 256 * 1024;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const apps::ChaosPlan plan = apps::make_chaos_plan(seed, opts);
    const apps::ChaosVerdict v = apps::run_chaos_plan(plan, opts);
    EXPECT_TRUE(v.invariants_ok) << "seed " << seed << ": " << v.violations
                                 << " violation(s), first: "
                                 << v.first_violation << "\n"
                                 << plan.str();
    EXPECT_TRUE(v.delivered_all)
        << "seed " << seed << ": delivered " << v.delivered << " of "
        << v.written << "\n"
        << plan.str();
  }
}

}  // namespace
}  // namespace progmp::mptcp
