#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace progmp::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeNs fired{0};
  sim.schedule_at(milliseconds(5), [&] {
    sim.schedule_after(milliseconds(7), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, milliseconds(12));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(milliseconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(12345);  // must not crash or affect later events
  bool fired = false;
  sim.schedule_at(milliseconds(1), [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(milliseconds(10), [&] { ++count; });
  sim.schedule_at(milliseconds(20), [&] { ++count; });
  sim.run_until(milliseconds(15));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), milliseconds(15));
  sim.run_until(milliseconds(25));
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), milliseconds(10));
}

TEST(SimulatorTest, CancelledHeadDoesNotAdmitEventsPastDeadline) {
  // Regression: with a cancelled entry at the heap head, run_until() used to
  // enter its drain loop (head time <= deadline), skip the tombstone, and
  // then execute the NEXT event even when that one lay beyond the deadline.
  Simulator sim;
  int fired_at_20 = 0;
  const EventId head = sim.schedule_at(milliseconds(10), [] {});
  sim.schedule_at(milliseconds(20), [&] { ++fired_at_20; });
  sim.cancel(head);

  sim.run_until(milliseconds(15));
  EXPECT_EQ(fired_at_20, 0) << "event past the deadline was executed";
  EXPECT_EQ(sim.now(), milliseconds(15));
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(milliseconds(25));
  EXPECT_EQ(fired_at_20, 1);
  EXPECT_EQ(sim.now(), milliseconds(25));
}

TEST(SimulatorTest, PendingIsExactAcrossCancelAndFireOrderings) {
  Simulator sim;
  EXPECT_EQ(sim.pending(), 0u);

  // Live schedule / cancel.
  const EventId a = sim.schedule_at(milliseconds(1), [] {});
  const EventId b = sim.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);

  // Double-cancel is a no-op, not a second decrement.
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);

  // Regression: cancelling an id that already FIRED used to leave a
  // tombstone behind and wrap pending() to ~2^64. It must stay an exact 0.
  sim.cancel(b);
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(777777);  // never-issued id: same story
  EXPECT_EQ(sim.pending(), 0u);

  // The queue still works normally afterwards.
  bool fired = false;
  sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, CancelReleasesCallbackImmediately) {
  // Regression: cancel() used to only tombstone the heap entry, so a
  // long-armed timer's captured state (e.g. SkbPtrs) stayed pinned until the
  // entry surfaced — for an RTO that could be seconds of simulated time.
  Simulator sim;
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;

  const EventId id =
      sim.schedule_at(seconds(60), [keep = std::move(sentinel)] { (void)keep; });
  ASSERT_FALSE(watch.expired());

  sim.cancel(id);
  EXPECT_TRUE(watch.expired())
      << "cancelled callback still pins its captured state";

  sim.run_until(seconds(61));  // nothing left to fire: the entry is gone
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, StaleIdAfterSlotReuseIsNoop) {
  // Slot indices are recycled; generation counters must keep an old handle
  // from cancelling the slot's new occupant.
  Simulator sim;
  bool first = false;
  const EventId old_id = sim.schedule_at(milliseconds(1), [&] { first = true; });
  sim.run_all();
  EXPECT_TRUE(first);

  bool second = false;
  sim.schedule_at(milliseconds(2), [&] { second = true; });  // reuses the slot
  sim.cancel(old_id);  // stale generation: must not touch the new event
  sim.run_all();
  EXPECT_TRUE(second);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, SelfCancelInsideCallbackIsNoop) {
  Simulator sim;
  EventId self = 0;
  int runs = 0;
  self = sim.schedule_at(milliseconds(1), [&] {
    ++runs;
    sim.cancel(self);  // firing event cancelling itself: harmless
  });
  sim.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, BatchMateCanCancelSameInstantEvent) {
  // Same-timestamp events dispatch as a batch; an earlier event cancelling a
  // later one at the same instant must still suppress it.
  Simulator sim;
  bool victim_ran = false;
  EventId victim = 0;
  sim.schedule_at(milliseconds(5), [&] { sim.cancel(victim); });
  victim = sim.schedule_at(milliseconds(5), [&] { victim_ran = true; });
  sim.run_all();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, CancelStormKeepsCountersCoherent) {
  // Mixed workload: every third event cancelled (some before, some after
  // firing), with reschedules in between. pending/executed/cancelled must
  // stay exact and the heap must fully drain.
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(
        sim.schedule_at(milliseconds(1 + i % 7), [&] { ++fired; }));
  }
  std::size_t cancelled_live = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    sim.cancel(ids[i]);
    ++cancelled_live;
  }
  EXPECT_EQ(sim.pending(), 300u - cancelled_live);
  EXPECT_EQ(sim.heap_depth(), sim.pending());  // cancels leave no entry behind
  sim.run_all();
  EXPECT_EQ(static_cast<std::size_t>(fired), 300u - cancelled_live);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 300u - cancelled_live);
  EXPECT_EQ(sim.cancelled(), cancelled_live);
  EXPECT_EQ(sim.heap_depth(), 0u);
  // Cancel everything again, fired or not: counters must not move.
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancelled(), cancelled_live);
}

// Reference model for the event core: a std::multimap keyed on (at, seq)
// holds exactly the events that must still fire, and its first entry is the
// one that must fire next. The harness bumps `seq` on every schedule, just as
// the simulator does, so the key order is the simulator's contract: time
// order, FIFO among equal times — batches and in-place cancels included.
class SimulatorModel {
 public:
  struct Tally {
    int fired = 0;
    int same_instant_cancels = 0;  ///< a callback cancelling an event due now
    int self_cancels = 0;
    int rearms = 0;  ///< cancel + schedule of the same logical timer
    int bursts = 0;  ///< callbacks that scheduled enough to grow the pool
  };

  explicit SimulatorModel(std::uint64_t seed) : rng_(seed) {}

  /// Runs `ops` random top-level operations, then drains the queue. Returns
  /// what the run exercised.
  Tally run(int ops) {
    for (int i = 0; i < ops; ++i) {
      top_level_op();
      // Outside a dispatch the heap holds exactly the live events.
      EXPECT_EQ(sim_.pending(), model_.size()) << "after op " << i;
      EXPECT_EQ(sim_.heap_depth(), sim_.pending()) << "after op " << i;
    }
    sim_.run_all();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pending(), 0u);
    EXPECT_EQ(sim_.heap_depth(), 0u);
    EXPECT_EQ(fired_, expected_) << "execution order diverged from the model";
    EXPECT_EQ(bad_payloads_, 0) << "a callback's captured state changed "
                                   "while it ran";
    EXPECT_EQ(sim_.executed(), static_cast<std::uint64_t>(tally_.fired));
    return tally_;
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at ns, seq)
  using Model = std::multimap<Key, int>;               // -> token
  static constexpr int kTimers = 4;
  static constexpr std::size_t kPopulationCap = 300;
  static constexpr int kBurst = 200;

  static std::uint64_t tag_for(int token) {
    return 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(token + 1);
  }

  TimeNs random_at() {
    // Few distinct offsets, so timestamps collide often.
    return sim_.now() + microseconds(250 * rng_.next_range(0, 4));
  }

  int schedule(TimeNs at) {
    const int token = static_cast<int>(ids_.size());
    auto fire = [this, token, tag = tag_for(token)] {
      const int me = token;
      on_fire(me);
      // The callback object lives in its slot until it returns, even if it
      // grew the slot pool meanwhile: nothing may reuse or move it.
      if (token != me || tag != tag_for(me)) ++bad_payloads_;
    };
    const EventId id = rng_.chance(0.5)
                           ? sim_.schedule_at(at, std::move(fire))
                           : sim_.schedule_after(at - sim_.now(), fire);
    ids_.push_back(id);
    where_.push_back(model_.emplace(Key{at.ns(), seq_++}, token));
    return token;
  }

  void cancel(int token) {
    sim_.cancel(ids_[static_cast<std::size_t>(token)]);
    auto& it = where_[static_cast<std::size_t>(token)];
    if (it != model_.end()) {
      model_.erase(it);
      it = model_.end();
    }
  }

  int random_token() {
    return static_cast<int>(rng_.next_below(ids_.size()));
  }

  void rearm_timer() {
    int& timer = timers_[rng_.next_below(kTimers)];
    if (timer >= 0) cancel(timer);
    timer = schedule(random_at());
    ++tally_.rearms;
  }

  void top_level_op() {
    switch (rng_.next_below(6)) {
      case 0:
      case 1:
        schedule(random_at());
        break;
      case 2:
        if (!ids_.empty()) cancel(random_token());  // often before it fires
        break;
      case 3:
        rearm_timer();
        break;
      case 4:
        sim_.step();
        break;
      default:
        sim_.run_until(sim_.now() + microseconds(250 * rng_.next_range(0, 3)));
        break;
    }
  }

  void on_fire(int token) {
    auto& it = where_[static_cast<std::size_t>(token)];
    if (it == model_.end()) {
      ADD_FAILURE() << "cancelled token " << token << " fired";
      return;
    }
    expected_.push_back(model_.begin()->second);
    fired_.push_back(token);
    EXPECT_EQ(sim_.now().ns(), it->first.first);
    model_.erase(it);
    it = model_.end();
    ++tally_.fired;
    // Batch-mates popped with this event are off the heap but still live.
    EXPECT_EQ(sim_.pending(), model_.size());
    EXPECT_LE(sim_.heap_depth(), sim_.pending());

    const int actions = static_cast<int>(rng_.next_below(3));
    for (int a = 0; a < actions; ++a) {
      const bool grow = model_.size() < kPopulationCap;
      switch (rng_.next_below(6)) {
        case 0:
          if (grow) schedule(random_at());
          break;
        case 1: {
          const int victim = random_token();
          const auto& vit = where_[static_cast<std::size_t>(victim)];
          if (vit != model_.end() && vit->first.first == sim_.now().ns()) {
            ++tally_.same_instant_cancels;
          }
          cancel(victim);
          break;
        }
        case 2:
          cancel(token);  // self-cancel: a no-op
          ++tally_.self_cancels;
          break;
        case 3:
          if (grow) rearm_timer();
          break;
        case 4:
          if (grow && rng_.chance(0.05)) {
            for (int b = 0; b < kBurst; ++b) schedule(random_at());
            ++tally_.bursts;
          }
          break;
        default:
          break;
      }
    }
  }

  Simulator sim_;
  Rng rng_;
  Model model_;
  std::uint64_t seq_ = 0;
  std::vector<EventId> ids_;              ///< token -> simulator id
  std::vector<Model::iterator> where_;    ///< token -> model entry or end
  int timers_[kTimers] = {-1, -1, -1, -1};  ///< logical timers -> token
  std::vector<int> fired_;
  std::vector<int> expected_;
  int bad_payloads_ = 0;
  Tally tally_;
};

TEST(SimulatorTest, MatchesReferenceModelUnderRandomOperations) {
  SimulatorModel::Tally total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SimulatorModel::Tally t = SimulatorModel(seed).run(1500);
    total.fired += t.fired;
    total.same_instant_cancels += t.same_instant_cancels;
    total.self_cancels += t.self_cancels;
    total.rearms += t.rearms;
    total.bursts += t.bursts;
  }
  // The run must actually have exercised every path the model checks.
  EXPECT_GT(total.fired, 10000);
  EXPECT_GT(total.same_instant_cancels, 0);
  EXPECT_GT(total.self_cancels, 0);
  EXPECT_GT(total.rearms, 0);
  EXPECT_GT(total.bursts, 0);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.schedule_at(milliseconds(10), [] {});
  sim.run_all();
  EXPECT_DEATH(sim.schedule_at(milliseconds(5), [] {}), "past");
}

}  // namespace
}  // namespace progmp::sim
