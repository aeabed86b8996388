// Property test for the flat PacketQueue against a std::deque reference
// model: randomized push/pop/erase/cursor sequences must leave the queue
// holding exactly the reference's packets in the reference's order, with
// every cached aggregate equal to a from-scratch recompute and the
// intrusive membership index round-tripping (tracked mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "mptcp/packet_queue.hpp"

namespace progmp::mptcp {
namespace {

SkbPtr make_skb(std::uint64_t seq, std::int32_t size, bool flow_end = false,
                std::uint32_t sent_mask = 0) {
  auto skb = std::make_shared<Skb>();
  skb->meta_seq = seq;
  skb->size = size;
  skb->props.flow_end = flow_end;
  skb->sent_mask = sent_mask;
  return skb;
}

/// Asserts queue == reference in order and content, and that every cached
/// aggregate matches a recompute over the reference model.
void expect_matches(const PacketQueue& queue,
                    const std::deque<SkbPtr>& reference, bool tracked) {
  ASSERT_EQ(queue.size(), reference.size());
  ASSERT_EQ(queue.empty(), reference.empty());

  std::int64_t bytes = 0;
  std::int64_t flow_ends = 0;
  std::int64_t sent = 0;
  std::uint64_t mn = 0;
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const SkbPtr& want = reference[i];
    const PacketQueue::Entry& got = queue.at(i);
    ASSERT_EQ(got.skb.get(), want.get()) << "order diverges at index " << i;
    EXPECT_EQ(got.meta_seq, want->meta_seq);
    EXPECT_EQ(got.size, want->size);
    EXPECT_EQ(got.flow_end, want->props.flow_end);
    EXPECT_EQ(got.sent_mask, want->sent_mask);
    bytes += want->size;
    if (want->props.flow_end) ++flow_ends;
    if (want->sent_mask != 0) ++sent;
    if (i == 0) {
      mn = mx = want->meta_seq;
    } else {
      mn = std::min(mn, want->meta_seq);
      mx = std::max(mx, want->meta_seq);
    }
  }
  EXPECT_EQ(queue.bytes(), bytes);
  EXPECT_EQ(queue.flow_end_count(), flow_ends);
  EXPECT_EQ(queue.sent_count(), sent);
  EXPECT_EQ(queue.min_meta_seq(), mn);
  EXPECT_EQ(queue.max_meta_seq(), mx);

  // Membership: everything in the reference is a member; in tracked mode
  // the flag agrees with membership.
  for (const SkbPtr& skb : reference) {
    EXPECT_TRUE(queue.contains(skb.get()));
    if (tracked) EXPECT_TRUE(skb->in_q);
  }

  // The queue's own audit (mirror fields, index round-trip, aggregate
  // recompute) must agree.
  const auto bad = queue.audit();
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(PacketQueueTest, TrackedPushSetsFlagAndIndex) {
  PacketQueue queue(QueueId::kQ);
  auto a = make_skb(1, 100);
  auto b = make_skb(2, 200, /*flow_end=*/true);
  EXPECT_FALSE(a->in_q);
  queue.push_back(a);
  queue.push_front(b);
  EXPECT_TRUE(a->in_q);
  EXPECT_TRUE(b->in_q);
  EXPECT_EQ(queue.front().get(), b.get());
  EXPECT_EQ(queue.bytes(), 300);
  EXPECT_EQ(queue.flow_end_count(), 1);
  EXPECT_EQ(queue.min_meta_seq(), 1u);
  EXPECT_EQ(queue.max_meta_seq(), 2u);
  EXPECT_TRUE(queue.contains(a.get()));

  SkbPtr popped = queue.pop_front();
  EXPECT_EQ(popped.get(), b.get());
  EXPECT_FALSE(b->in_q);
  EXPECT_FALSE(queue.contains(b.get()));
  EXPECT_EQ(queue.bytes(), 100);
}

TEST(PacketQueueTest, TrackedEraseIsExactAndClearsFlag) {
  PacketQueue queue(QueueId::kRq);
  std::vector<SkbPtr> skbs;
  for (int i = 0; i < 10; ++i) {
    skbs.push_back(make_skb(static_cast<std::uint64_t>(i), 100 + i));
    queue.push_back(skbs.back());
  }
  EXPECT_TRUE(queue.erase(skbs[5].get()));
  EXPECT_FALSE(skbs[5]->in_rq);
  EXPECT_FALSE(queue.erase(skbs[5].get()));  // no longer a member
  EXPECT_EQ(queue.size(), 9u);
  EXPECT_FALSE(queue.audit().has_value());
}

void check_insert_at(PacketQueue& queue, bool tracked) {
  SCOPED_TRACE(tracked ? "tracked" : "untracked");
  std::deque<SkbPtr> reference;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    reference.push_back(make_skb(seq, 100 + static_cast<std::int32_t>(seq),
                                 seq % 7 == 0, seq % 3 == 0 ? 1u : 0u));
    queue.push_back(reference.back());
  }
  // Remove from the middle, then put back where it came from, across
  // both ring halves and the ends; index_of names each position.
  for (std::size_t idx : {0u, 5u, 17u, 20u, 33u, 39u}) {
    const SkbPtr skb = reference[idx];
    EXPECT_EQ(queue.index_of(skb.get()), static_cast<std::int64_t>(idx));
    ASSERT_EQ(queue.pop_at(idx).get(), skb.get());
    EXPECT_EQ(queue.index_of(skb.get()), -1);
    queue.insert_at(idx, skb);
    EXPECT_EQ(queue.index_of(skb.get()), static_cast<std::int64_t>(idx));
    EXPECT_EQ(queue.find(skb.get()), &queue.at(idx).skb);
  }
  queue.insert_at(queue.size(), make_skb(99, 1));
  reference.push_back(queue.at(queue.size() - 1).skb);
  expect_matches(queue, reference, tracked);
}

TEST(PacketQueueTest, InsertAtRestoresTheVacatedPosition) {
  PacketQueue tracked(QueueId::kQ);
  check_insert_at(tracked, true);
  PacketQueue untracked;
  check_insert_at(untracked, false);
}

TEST(PacketQueueTest, UntrackedModeAllowsDuplicates) {
  PacketQueue queue;  // subflow-queue mode
  auto skb = make_skb(7, 500);
  queue.push_back(skb);
  queue.push_back(skb);  // redundant push: legal here
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.bytes(), 1000);
  EXPECT_TRUE(queue.erase(skb.get()));  // removes one copy
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.contains(skb.get()));
  EXPECT_TRUE(queue.erase(skb.get()));
  EXPECT_FALSE(queue.contains(skb.get()));
  EXPECT_FALSE(queue.erase(skb.get()));
}

TEST(PacketQueueTest, RefreshSentMaskKeepsAggregateExact) {
  PacketQueue queue(QueueId::kQu);
  auto skb = make_skb(3, 100);
  queue.push_back(skb);
  EXPECT_EQ(queue.sent_count(), 0);
  skb->mark_sent_on(1, TimeNs{10});
  queue.refresh_sent_mask(skb.get());
  EXPECT_EQ(queue.sent_count(), 1);
  EXPECT_FALSE(queue.audit().has_value());
  skb->sent_mask = 0;  // subflow death cleared the only bit
  queue.refresh_sent_mask(skb.get());
  EXPECT_EQ(queue.sent_count(), 0);
  EXPECT_FALSE(queue.audit().has_value());
}

TEST(PacketQueueTest, CursorEraseKeepsSuccessor) {
  PacketQueue queue(QueueId::kQ);
  std::vector<SkbPtr> skbs;
  for (int i = 0; i < 6; ++i) {
    skbs.push_back(make_skb(static_cast<std::uint64_t>(i), 100));
    queue.push_back(skbs.back());
  }
  // Remove every even meta_seq in one pass.
  auto cursor = queue.cursor();
  while (cursor.valid()) {
    if (cursor.entry().meta_seq % 2 == 0) {
      cursor.erase_here();
    } else {
      cursor.next();
    }
  }
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).meta_seq, 1u);
  EXPECT_EQ(queue.at(1).meta_seq, 3u);
  EXPECT_EQ(queue.at(2).meta_seq, 5u);
  EXPECT_FALSE(skbs[0]->in_q);
  EXPECT_TRUE(skbs[1]->in_q);
  EXPECT_FALSE(queue.audit().has_value());
}

class PacketQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Randomized operation sequences against the std::deque reference model.
/// Tracked variant: the model enforces the no-duplicates precondition the
/// connection guarantees via membership flags.
TEST_P(PacketQueueProperty, TrackedMatchesDequeReference) {
  Rng rng(GetParam());
  PacketQueue queue(QueueId::kQ);
  std::deque<SkbPtr> reference;
  std::uint64_t next_seq = 0;
  // Erased/popped packets return to this pool so re-insertion (rollback
  // push_front semantics) is exercised too.
  std::vector<SkbPtr> outside;

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.next_range(0, 9);
    if (op <= 2 || reference.empty()) {  // push_back (new or recycled)
      SkbPtr skb;
      if (!outside.empty() && rng.chance(0.5)) {
        skb = outside.back();
        outside.pop_back();
      } else {
        skb = make_skb(next_seq++,
                       static_cast<std::int32_t>(rng.next_range(1, 1400)),
                       rng.chance(0.1),
                       static_cast<std::uint32_t>(rng.next_range(0, 3)));
      }
      queue.push_back(skb);
      reference.push_back(skb);
    } else if (op == 3) {  // push_front
      SkbPtr skb;
      if (!outside.empty() && rng.chance(0.5)) {
        skb = outside.back();
        outside.pop_back();
      } else {
        skb = make_skb(next_seq++,
                       static_cast<std::int32_t>(rng.next_range(1, 1400)));
      }
      queue.push_front(skb);
      reference.push_front(skb);
    } else if (op == 4) {  // pop_front
      SkbPtr got = queue.pop_front();
      ASSERT_EQ(got.get(), reference.front().get());
      outside.push_back(reference.front());
      reference.pop_front();
    } else if (op == 5) {  // pop_at random index
      const auto idx = static_cast<std::size_t>(rng.next_range(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      SkbPtr got = queue.pop_at(idx);
      ASSERT_EQ(got.get(), reference[idx].get());
      outside.push_back(reference[idx]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 6) {  // erase random member
      const auto idx = static_cast<std::size_t>(rng.next_range(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      ASSERT_TRUE(queue.erase(reference[idx].get()));
      outside.push_back(reference[idx]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 7) {  // mutate a live sent_mask + refresh
      const auto idx = static_cast<std::size_t>(rng.next_range(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      reference[idx]->sent_mask =
          static_cast<std::uint32_t>(rng.next_range(0, 7));
      queue.refresh_sent_mask(reference[idx].get());
    } else if (op == 8) {  // cursor scan-and-remove pass
      const std::uint64_t keep_mod = 2 + rng.next_range(0, 2);
      auto cursor = queue.cursor();
      while (cursor.valid()) {
        if (cursor.entry().meta_seq % keep_mod == 0) {
          outside.push_back(cursor.entry().skb);
          cursor.erase_here();
        } else {
          cursor.next();
        }
      }
      std::erase_if(reference, [&](const SkbPtr& skb) {
        return skb->meta_seq % keep_mod == 0;
      });
    } else {  // occasional clear
      if (rng.chance(0.05)) {
        for (const SkbPtr& skb : reference) outside.push_back(skb);
        queue.clear();
        reference.clear();
      }
    }
    if (step % 64 == 0) expect_matches(queue, reference, /*tracked=*/true);
    // Non-members must not test as members (flag-based fast path).
    if (!outside.empty()) {
      EXPECT_FALSE(queue.contains(outside.back().get()));
      EXPECT_FALSE(outside.back()->in_q);
    }
  }
  expect_matches(queue, reference, /*tracked=*/true);
}

/// Untracked variant: duplicates allowed, erase removes the first copy —
/// mirrored by the deque model.
TEST_P(PacketQueueProperty, UntrackedMatchesDequeReference) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  PacketQueue queue;
  std::deque<SkbPtr> reference;
  std::vector<SkbPtr> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(make_skb(static_cast<std::uint64_t>(i),
                            static_cast<std::int32_t>(rng.next_range(1, 1400)),
                            rng.chance(0.2)));
  }

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.next_range(0, 5);
    if (op <= 2 || reference.empty()) {  // push_back, duplicates welcome
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      queue.push_back(skb);
      reference.push_back(skb);
    } else if (op == 3) {  // pop_front
      SkbPtr got = queue.pop_front();
      ASSERT_EQ(got.get(), reference.front().get());
      reference.pop_front();
    } else if (op == 4) {  // erase first occurrence of a random pool packet
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const bool erased = queue.erase(skb.get());
      auto it = std::find(reference.begin(), reference.end(), skb);
      ASSERT_EQ(erased, it != reference.end());
      if (it != reference.end()) reference.erase(it);
    } else {  // contains must agree with the model
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      EXPECT_EQ(queue.contains(skb.get()),
                std::find(reference.begin(), reference.end(), skb) !=
                    reference.end());
    }
    if (step % 64 == 0) expect_matches(queue, reference, /*tracked=*/false);
  }
  expect_matches(queue, reference, /*tracked=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketQueueProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace progmp::mptcp
