// Subflow sender mechanics: TSQ, congestion growth, RTO behaviour, info
// snapshots, the send queue.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "mptcp/connection.hpp"
#include "sched/specs.hpp"

namespace progmp::mptcp {
namespace {

std::unique_ptr<Scheduler> minrtt() {
  return test::must_load(sched::specs::kMinRtt, rt::Backend::kEbpf, "minrtt");
}

MptcpConnection::Config one_subflow(std::int64_t rate_mbps = 8,
                                    TimeNs one_way = milliseconds(20),
                                    double loss = 0.0) {
  apps::PathSpec path;
  path.rate_mbps = rate_mbps;
  path.one_way_delay = one_way;
  path.loss = loss;
  return apps::single_path_config(path);
}

TEST(SubflowTest, CwndGrowsFromSlowStart) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(1));
  conn.set_scheduler(minrtt());
  const std::int64_t initial = conn.subflow(0).cc().cwnd();
  conn.write(400 * 1400);
  sim.run_until(seconds(5));
  EXPECT_GT(conn.subflow(0).cc().cwnd(), initial);
}

TEST(SubflowTest, RttEstimateConvergesToPathRtt) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(100, milliseconds(15)), Rng(2));
  conn.set_scheduler(minrtt());
  conn.write(50 * 1400);
  sim.run_until(seconds(5));
  const SubflowInfo info = conn.subflow(0).info(sim.now());
  // Base RTT 30 ms plus a little queueing/serialization.
  EXPECT_GE(info.rtt, milliseconds(30));
  EXPECT_LT(info.rtt, milliseconds(40));
}

TEST(SubflowTest, TsqThrottlesWhileSerializing) {
  sim::Simulator sim;
  // Slow 1 Mbit/s link: a packet takes >11 ms to serialize, so the two-
  // packet qdisc budget throttles quickly.
  MptcpConnection conn(sim, one_subflow(1), Rng(3));
  conn.set_scheduler(minrtt());
  conn.write(20 * 1400);
  bool saw_throttled = false;
  for (int i = 0; i < 100; ++i) {
    sim.run_until(sim.now() + milliseconds(1));
    saw_throttled |= conn.subflow(0).info(sim.now()).tsq_throttled;
  }
  EXPECT_TRUE(saw_throttled);
  sim.run_until(seconds(60));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
}

TEST(SubflowTest, FastRetransmitOnIsolatedLoss) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(4));
  conn.set_scheduler(minrtt());
  // Drop exactly the 5th data packet on the wire.
  conn.path(0).forward.set_loss_fn([](std::int64_t i) { return i == 5; });
  conn.write(100 * 1400);
  sim.run_until(seconds(20));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  const auto& stats = conn.subflow(0).stats();
  EXPECT_GE(stats.fast_retransmits, 1);
  EXPECT_EQ(stats.rtos, 0);  // enough dup-ACKs: no timeout needed
}

TEST(SubflowTest, RtoRecoversFromBlackout) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(5));
  conn.set_scheduler(minrtt());
  // The tail of the flow (and its first retransmissions) is lost: no later
  // data generates dup-ACKs, so only the RTO can recover.
  conn.path(0).forward.set_loss_fn(
      [](std::int64_t i) { return i >= 5 && i < 15; });
  conn.write(10 * 1400);
  sim.run_until(seconds(60));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GE(conn.subflow(0).stats().rtos, 1);
}

TEST(SubflowTest, LossSuspectedPacketsEnterReinjectionQueue) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(6));
  // A scheduler that never serves RQ, so entries stay observable.
  conn.set_scheduler(test::must_load(
      "IF (!Q.EMPTY) {"
      "  VAR s = SUBFLOWS.FILTER(x => x.CWND > x.QUEUED + x.SKBS_IN_FLIGHT)"
      "          .MIN(x => x.RTT);"
      "  IF (s != NULL) { s.PUSH(Q.POP()); } }",
      rt::Backend::kEbpf, "no_rq"));
  conn.path(0).forward.set_loss_fn([](std::int64_t i) { return i == 2; });
  conn.write(30 * 1400);
  bool saw_rq = false;
  for (int i = 0; i < 2000 && !saw_rq; ++i) {
    sim.run_until(sim.now() + milliseconds(1));
    saw_rq |= conn.rq_len() > 0;
  }
  EXPECT_TRUE(saw_rq);
}

TEST(SubflowTest, InfoSnapshotFieldsAreConsistent) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(7));
  conn.set_scheduler(minrtt());
  conn.write(10 * 1400);
  sim.run_until(milliseconds(5));
  const SubflowInfo info = conn.subflow(0).info(sim.now());
  EXPECT_EQ(info.slot, 0);
  EXPECT_TRUE(info.established);
  EXPECT_EQ(info.mss, 1400);
  EXPECT_GT(info.cwnd, 0);
  EXPECT_GE(info.skbs_in_flight, 0);
  EXPECT_EQ(info.skbs_in_flight, conn.subflow(0).in_flight());
  // Before RTT samples, the estimate falls back to the path base RTT.
  EXPECT_EQ(info.rtt, conn.path(0).base_rtt());
}

TEST(SubflowTest, CloseReturnsUnfinishedPackets) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(1 /*slow*/), Rng(8));
  conn.set_scheduler(minrtt());
  conn.write(50 * 1400);
  sim.run_until(milliseconds(50));
  auto orphans = conn.subflow(0).close();
  EXPECT_FALSE(orphans.empty());
  for (const auto& skb : orphans) {
    EXPECT_FALSE(skb->acked);
  }
  EXPECT_FALSE(conn.subflow(0).established());
}

TEST(SubflowTest, PurgeAckedRemovesEveryQueuedCopy) {
  sim::Simulator sim;
  MptcpConnection conn(sim, one_subflow(), Rng(9));
  conn.set_scheduler(minrtt());
  conn.write(400 * 1400);
  // 30 ms in, the initial window is on the wire and no ACK is back yet
  // (40 ms RTT), so the subflow holds what it is given.
  sim.run_until(milliseconds(30));
  SubflowSender& sbf = conn.subflow(0);
  ASSERT_GE(sbf.in_flight(), sbf.cc().cwnd());

  auto skb = std::make_shared<Skb>();
  skb->meta_seq = 1'000'000;
  skb->size = 1400;
  const std::int64_t before = sbf.queued();
  sbf.enqueue(skb);
  sbf.enqueue(skb);  // a redundant scheduler pushes the same packet again
  EXPECT_EQ(sbf.queued(), before + 2);
  EXPECT_TRUE(sbf.tracks(skb.get()));

  sbf.purge_acked(skb);
  EXPECT_EQ(sbf.queued(), before);
  EXPECT_FALSE(sbf.tracks(skb.get()));
}

}  // namespace
}  // namespace progmp::mptcp
