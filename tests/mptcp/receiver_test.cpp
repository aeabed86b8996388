#include "mptcp/receiver.hpp"

#include <gtest/gtest.h>

namespace progmp::mptcp {
namespace {

DataSegment seg(int sbf, std::uint64_t sbf_seq, std::uint64_t meta_seq,
                std::int32_t size = 1400) {
  return DataSegment{sbf, sbf_seq, meta_seq, size};
}

TEST(ReceiverTest, InOrderDeliveryAdvancesBothLevels) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  std::vector<std::uint64_t> delivered;
  rx.set_deliver_fn([&](std::uint64_t meta, std::int32_t) {
    delivered.push_back(meta);
  });
  AckInfo ack = rx.on_data(seg(0, 0, 0));
  EXPECT_EQ(ack.sbf_ack, 1u);
  EXPECT_EQ(ack.meta_ack, 1u);
  ack = rx.on_data(seg(0, 1, 1));
  EXPECT_EQ(ack.sbf_ack, 2u);
  EXPECT_EQ(ack.meta_ack, 2u);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ReceiverTest, StripedSubflowsReassembleInMetaOrder) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  std::vector<std::uint64_t> delivered;
  rx.set_deliver_fn([&](std::uint64_t meta, std::int32_t) {
    delivered.push_back(meta);
  });
  rx.on_data(seg(0, 0, 0));
  rx.on_data(seg(1, 0, 2));  // arrives before meta 1
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0}));
  rx.on_data(seg(0, 1, 1));
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(ReceiverTest, MetaLevelDuplicateFromRedundantCopyIgnored) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  rx.on_data(seg(0, 0, 0));
  const AckInfo ack = rx.on_data(seg(1, 0, 0));  // redundant copy via sbf 1
  EXPECT_EQ(ack.meta_ack, 1u);
  EXPECT_EQ(rx.duplicate_segments(), 1);
  EXPECT_EQ(rx.delivered_bytes(), 1400);
}

TEST(ReceiverTest, SubflowLevelRetransmissionReAcked) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  rx.on_data(seg(0, 0, 0));
  const AckInfo ack = rx.on_data(seg(0, 0, 0));  // spurious retransmit
  EXPECT_EQ(ack.sbf_ack, 1u);
  EXPECT_EQ(rx.duplicate_segments(), 1);
}

TEST(ReceiverTest, MultiLayerWithholdsSubflowOooData) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.model = ReceiverModel::kMultiLayer;
  Receiver rx(sim, cfg);
  rx.on_data(seg(0, 0, 0));
  // Subflow 1 lost its first segment (meta 1); its second (meta 2)... but
  // here the held segment is *exactly the next in meta order* (meta 1 on
  // sbf_seq 1, with sbf_seq 0 = meta 5 lost): the mainline receiver still
  // withholds it.
  const AckInfo ack = rx.on_data(seg(1, 1, 1));
  EXPECT_EQ(ack.meta_ack, 1u);  // meta 1 arrived but is NOT acked at meta level
  EXPECT_EQ(rx.delivered_bytes(), 1400);  // only meta 0
  // The subflow gap closes: everything drains.
  rx.on_data(seg(1, 0, 5));
  EXPECT_EQ(rx.meta_expected(), 2u);
  EXPECT_EQ(rx.delivered_bytes(), 2 * 1400);
}

TEST(ReceiverTest, OptimizedDeliversSubflowOooDataImmediately) {
  sim::Simulator sim;
  Receiver rx(sim, {});  // optimized is the default
  rx.on_data(seg(0, 0, 0));
  const AckInfo ack = rx.on_data(seg(1, 1, 1));  // sbf gap, meta in order
  EXPECT_EQ(ack.meta_ack, 2u);  // delivered despite the subflow gap
  EXPECT_EQ(rx.delivered_bytes(), 2 * 1400);
  EXPECT_EQ(ack.sbf_ack, 0u);  // subflow level still signals its gap
}

TEST(ReceiverTest, OooDataDoesNotShrinkAdvertisedWindow) {
  // The window is advertised from the cumulative ACK point: out-of-order
  // data lies inside the advertised span, so it must NOT shrink the window
  // — otherwise the gap-filling retransmission could never fit and the
  // connection would deadlock.
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.recv_buf_bytes = 10'000;
  Receiver rx(sim, cfg);
  EXPECT_EQ(rx.rwnd_bytes(), 10'000);
  rx.on_data(seg(0, 1, 1));  // out of order: held in the meta buffer
  EXPECT_EQ(rx.rwnd_bytes(), 10'000);
  rx.on_data(seg(0, 0, 0));  // gap closes, app reads instantly
  EXPECT_EQ(rx.rwnd_bytes(), 10'000);
}

TEST(ReceiverTest, SlowApplicationReaderHoldsWindow) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.recv_buf_bytes = 10'000;
  cfg.app_read_bytes_per_sec = 1'000'000;
  Receiver rx(sim, cfg);
  rx.on_data(seg(0, 0, 0));
  EXPECT_LT(rx.rwnd_bytes(), 10'000);  // delivered but unread
  sim.run_until(seconds(1));
  EXPECT_EQ(rx.rwnd_bytes(), 10'000);  // reader caught up
}

TEST(ReceiverTest, DuplicateSplitAttributesNetworkVsDsack) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  rx.on_data(seg(0, 0, 0));
  // A different transmission of already-received meta data (a redundant
  // scheduler's copy via another subflow) is a D-SACK-style duplicate.
  rx.on_data(seg(1, 0, 0));
  EXPECT_EQ(rx.dsack_dup_segments(), 1);
  EXPECT_EQ(rx.network_dup_segments(), 0);
  // The same copy arriving twice is a spurious network retransmission.
  rx.on_data(seg(0, 0, 0));
  EXPECT_EQ(rx.dsack_dup_segments(), 1);
  EXPECT_EQ(rx.network_dup_segments(), 1);
  // A redundant copy of data still parked in the meta reassembly (not yet
  // delivered) is a D-SACK dup too: the receiver already holds those bytes.
  rx.on_data(seg(0, 1, 5));  // parked out of meta order
  rx.on_data(seg(1, 1, 5));  // second copy of the parked segment
  EXPECT_EQ(rx.dsack_dup_segments(), 2);
  // The legacy total is exactly the sum of the two provenances.
  EXPECT_EQ(rx.duplicate_segments(),
            rx.network_dup_segments() + rx.dsack_dup_segments());
}

TEST(ReceiverTest, AutotuneGrowsTowardTwiceDeliveryRateAndShrinksOnDrain) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.autotune = true;  // 8 MB standalone limit, 128 KB initial target
  Receiver rx(sim, cfg);
  rx.set_rtt_hint(milliseconds(10));
  EXPECT_EQ(rx.recv_buf_target(), 128 * 1024);

  // Four RTT-spaced bursts of 50 segments: the DRS estimate settles at
  // 2 x 50 x 1400 bytes per epoch and the target grows exactly there.
  std::uint64_t s = 0;
  for (int round = 0; round < 4; ++round) {
    sim.run_until(milliseconds(10 * (round + 1)));
    for (int i = 0; i < 50; ++i, ++s) rx.on_data(seg(0, s, s));
  }
  EXPECT_EQ(rx.recv_buf_target(), 2 * 50 * 1400);
  EXPECT_EQ(rx.autotune_grows(), 1);

  // Demand collapses to one segment per RTT: after two consecutive low
  // epochs the target halves (never more per epoch), then pins at the
  // autotune floor instead of slamming shut.
  for (int round = 4; round < 12; ++round) {
    sim.run_until(milliseconds(10 * (round + 1)));
    rx.on_data(seg(0, s, s));
    ++s;
  }
  EXPECT_EQ(rx.recv_buf_target(), Receiver::kAutotuneMinBytes);
  EXPECT_EQ(rx.autotune_shrinks(), 2);
}

TEST(ReceiverTest, AutotuneGrowthAsksThePoolAndItsAnswerIsAuthoritative) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.autotune = true;
  cfg.recv_buf_bytes = 128 * 1024;  // starting limit == initial target
  Receiver rx(sim, cfg);
  rx.set_rtt_hint(milliseconds(10));
  std::vector<std::int64_t> asked;
  std::int64_t answer = 200 * 1024;
  rx.set_mem_grant_fn([&](std::int64_t want) {
    asked.push_back(want);
    return answer;
  });

  // 60-segment epochs want 2 x 60 x 1400 = 168000 > the 128 KB limit: the
  // pool is asked and grants 200 KB; the target takes what it wanted.
  std::uint64_t s = 0;
  for (int round = 0; round < 3; ++round) {
    sim.run_until(milliseconds(10 * (round + 1)));
    for (int i = 0; i < 60; ++i, ++s) rx.on_data(seg(0, s, s));
  }
  ASSERT_EQ(asked, (std::vector<std::int64_t>{168000}));
  EXPECT_EQ(rx.recv_buf_limit(), 200 * 1024);
  EXPECT_EQ(rx.recv_buf_target(), 168000);

  // Bigger epochs want 224000, but the pool has since reclaimed: its
  // smaller answer caps the limit AND claws the target down — the pool's
  // answer is authoritative in both directions.
  answer = 96 * 1024;
  for (int round = 3; round < 6; ++round) {
    sim.run_until(milliseconds(10 * (round + 1)));
    for (int i = 0; i < 80; ++i, ++s) rx.on_data(seg(0, s, s));
  }
  // The starved receiver re-asks every epoch — the pool stays the
  // authority, and a later free-up can serve the standing demand.
  ASSERT_EQ(asked, (std::vector<std::int64_t>{168000, 224000, 224000}));
  EXPECT_EQ(rx.recv_buf_limit(), 96 * 1024);
  EXPECT_EQ(rx.recv_buf_target(), 96 * 1024);
  EXPECT_EQ(rx.audit(), std::nullopt);
}

TEST(ReceiverTest, LiabilityEnvelopeCoversPreShrinkAdvertisements) {
  sim::Simulator sim;
  Receiver::Config cfg;
  cfg.recv_buf_bytes = 256 * 1024;
  Receiver rx(sim, cfg);
  // The first ACK advertises the full buffer: the liability right edge
  // moves to delivered + 256 KB.
  const AckInfo ack = rx.on_data(seg(0, 0, 0));
  EXPECT_EQ(ack.rwnd_bytes, 256 * 1024);
  EXPECT_EQ(rx.mem_liability_bytes(), 256 * 1024);

  // The pool claws the grant back to 64 KB. Future advertisements shrink
  // immediately, but the envelope still covers the 256 KB promise already
  // on the wire — in-flight data against it is never treated as overrun.
  rx.set_recv_buf_limit(64 * 1024);
  EXPECT_EQ(rx.recv_buf_target(), 64 * 1024);
  EXPECT_EQ(rx.rwnd_bytes(), 64 * 1024);
  EXPECT_EQ(rx.mem_liability_bytes(), 256 * 1024);

  // A segment parked out of order under the old license fits the envelope
  // even though it exceeds the new target: accepted, not dropped.
  rx.on_data(seg(0, 2, 2));
  EXPECT_EQ(rx.recv_buf_drops(), 0);
  EXPECT_EQ(rx.audit(), std::nullopt);

  // As delivery consumes the promise the envelope converges back toward
  // the target; it never grows past the original right edge.
  rx.on_data(seg(0, 1, 1));
  EXPECT_LE(rx.mem_liability_bytes(), 256 * 1024);
  EXPECT_GE(rx.mem_liability_bytes(), rx.recv_buf_target());
}

TEST(ReceiverTest, DeliveryLogRecordsTimes) {
  sim::Simulator sim;
  Receiver rx(sim, {});
  sim.schedule_at(milliseconds(5), [&] { rx.on_data(seg(0, 0, 0)); });
  sim.schedule_at(milliseconds(9), [&] { rx.on_data(seg(0, 1, 1)); });
  sim.run_all();
  ASSERT_EQ(rx.deliveries().size(), 2u);
  EXPECT_EQ(rx.deliveries()[0].at, milliseconds(5));
  EXPECT_EQ(rx.deliveries()[1].at, milliseconds(9));
  EXPECT_EQ(rx.deliveries()[1].meta_seq, 1u);
}

}  // namespace
}  // namespace progmp::mptcp
