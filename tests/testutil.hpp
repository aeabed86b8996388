// Shared helpers for the test suite: a synthetic scheduler environment that
// exercises SchedulerContext in isolation, and spec-loading shortcuts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "mptcp/scheduler.hpp"
#include "mptcp/skb.hpp"
#include "runtime/program.hpp"

namespace progmp::test {

/// A hand-built scheduling environment: queues, subflow snapshots and
/// registers without a live connection. Lets unit tests assert on exactly
/// which actions a scheduler (native or ProgMP, any backend) produces.
class FakeEnv {
 public:
  FakeEnv() { registers.assign(8, 0); }

  mptcp::SkbPtr add_packet(mptcp::QueueId queue, std::int32_t size = 1400,
                           mptcp::SkbProps props = {}) {
    auto skb = std::make_shared<mptcp::Skb>();
    skb->meta_seq = next_seq++;
    skb->size = size;
    skb->props = props;
    skb->queued_at = now;
    // Tracked push sets the membership flag itself.
    queues.get(queue).push_back(skb);
    return skb;
  }

  /// `name` only labels the call site; the snapshot carries no name.
  mptcp::SubflowInfo& add_subflow(const std::string& /*name*/,
                                  std::int64_t rtt_us, std::int64_t cwnd = 10,
                                  bool backup = false) {
    mptcp::SubflowInfo info;
    info.slot = static_cast<int>(subflows.size());
    info.established = true;
    info.is_backup = backup;
    info.cwnd = cwnd;
    info.rtt = microseconds(rtt_us);
    info.rtt_var = microseconds(rtt_us / 4);
    info.min_rtt = microseconds(rtt_us);
    info.last_rtt = microseconds(rtt_us);
    info.mss = 1400;
    subflows.push_back(info);
    return subflows.back();
  }

  /// Builds a context over the current state. Keep the FakeEnv alive while
  /// using it.
  mptcp::SchedulerContext ctx(std::int64_t rwnd_free = 1 << 30) {
    return mptcp::SchedulerContext(now, trigger, subflows, &queues,
                                   registers.data(),
                                   static_cast<int>(registers.size()),
                                   rwnd_free, &stats);
  }

  mptcp::QueueBundle queues;
  // Direct views for tests that inspect a single queue.
  mptcp::PacketQueue& q = queues.q;
  mptcp::PacketQueue& qu = queues.qu;
  mptcp::PacketQueue& rq = queues.rq;
  std::vector<mptcp::SubflowInfo> subflows;
  std::vector<std::int64_t> registers;
  mptcp::SchedulerStats stats;
  mptcp::Trigger trigger;
  TimeNs now{milliseconds(100)};
  std::uint64_t next_seq = 0;
};

/// Fills a randomized but deterministic environment from a seed: up to four
/// subflows with random windows, flags and rates, random Q/QU/RQ contents
/// (QU packets with a random sent-on history), registers and clock.
/// (In-place: FakeEnv owns non-movable PacketQueues.)
inline void make_random_env(FakeEnv& env, std::uint64_t seed) {
  using mptcp::QueueId;
  Rng rng(seed);
  const int num_subflows = static_cast<int>(rng.next_range(0, 4));
  for (int i = 0; i < num_subflows; ++i) {
    auto& sbf = env.add_subflow("random",
                                rng.next_range(1'000, 80'000),
                                rng.next_range(1, 20), rng.chance(0.3));
    sbf.skbs_in_flight = rng.next_range(0, 15);
    sbf.queued = rng.next_range(0, 5);
    sbf.tsq_throttled = rng.chance(0.2);
    sbf.lossy = rng.chance(0.2);
    sbf.preferred = rng.chance(0.7);
    sbf.delivery_rate_bps = static_cast<double>(rng.next_range(0, 4'000'000));
    sbf.capacity_bps = static_cast<double>(rng.next_range(0, 8'000'000));
    sbf.established_at = milliseconds(rng.next_range(0, 100));
    sbf.last_tx_at = milliseconds(rng.next_range(0, 100));
  }
  const auto fill = [&](QueueId q, std::int64_t max_packets) {
    const std::int64_t n = rng.next_range(0, max_packets);
    for (std::int64_t i = 0; i < n; ++i) {
      mptcp::SkbProps props;
      props.prop1 = rng.next_range(0, 3);
      props.flow_end = rng.chance(0.1);
      auto skb = env.add_packet(
          q, static_cast<std::int32_t>(rng.next_range(100, 1400)), props);
      // Random sent-on history for QU packets.
      if (q == QueueId::kQu) {
        for (int s = 0; s < num_subflows; ++s) {
          if (rng.chance(0.5)) skb->mark_sent_on(s, env.now);
        }
      }
    }
  };
  fill(QueueId::kQ, 6);
  fill(QueueId::kQu, 8);
  fill(QueueId::kRq, 3);
  for (auto& reg : env.registers) reg = rng.next_range(0, 4'000'000);
  env.now = milliseconds(rng.next_range(100, 10'000));
}

/// Compiles a spec or fails the test with the diagnostics.
inline std::unique_ptr<rt::ProgmpProgram> must_load(
    std::string_view spec, rt::Backend backend,
    const std::string& name = "test_sched") {
  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = backend;
  auto program = rt::ProgmpProgram::load(spec, name, options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  return program;
}

/// Compact rendering of the actions a context collected, e.g.
/// "push(0,#3) push(1,#3)" — convenient for cross-backend comparisons.
inline std::string action_string(const mptcp::SchedulerContext& ctx) {
  std::string out;
  for (const auto& action : ctx.actions()) {
    out += "push(" + std::to_string(action.subflow_slot) + ",#" +
           std::to_string(action.skb->meta_seq) + ") ";
  }
  return out;
}

inline const std::vector<rt::Backend> kAllBackends = {
    rt::Backend::kInterpreter, rt::Backend::kCompiled, rt::Backend::kEbpf};

}  // namespace progmp::test
