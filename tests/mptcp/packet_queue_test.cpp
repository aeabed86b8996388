// Property test for PacketQueue against a std::deque reference model:
// randomized push/pop/erase/scan-and-remove sequences must leave the queue
// holding exactly the reference's packets in the reference's order, with the
// byte total equal to a from-scratch recompute and the intrusive membership
// index round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "mptcp/packet_queue.hpp"

namespace progmp::mptcp {
namespace {

SkbPtr make_skb(std::uint64_t seq, std::int32_t size) {
  auto skb = std::make_shared<Skb>();
  skb->meta_seq = seq;
  skb->size = size;
  return skb;
}

/// Asserts queue == reference in order and content, and that the byte total
/// matches a recompute over the reference model.
void expect_matches(const PacketQueue& queue,
                    const std::deque<SkbPtr>& reference) {
  ASSERT_EQ(queue.size(), reference.size());
  ASSERT_EQ(queue.empty(), reference.empty());

  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(queue.at(i).get(), reference[i].get())
        << "order diverges at index " << i;
    bytes += reference[i]->size;
  }
  EXPECT_EQ(queue.bytes(), bytes);

  // Membership: everything in the reference is a member and carries the
  // flag.
  for (const SkbPtr& skb : reference) {
    EXPECT_TRUE(queue.contains(skb.get()));
    EXPECT_TRUE(skb->in_q);
  }

  // The queue's own audit (index round-trip, byte recompute) must agree.
  const auto bad = queue.audit();
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(PacketQueueTest, TrackedPushSetsFlagAndIndex) {
  PacketQueue queue(QueueId::kQ);
  auto a = make_skb(1, 100);
  auto b = make_skb(2, 200);
  EXPECT_FALSE(a->in_q);
  queue.push_back(a);
  queue.push_front(b);
  EXPECT_TRUE(a->in_q);
  EXPECT_TRUE(b->in_q);
  EXPECT_EQ(queue.front().get(), b.get());
  EXPECT_EQ(queue.bytes(), 300);
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

TEST(PacketQueueTest, InsertAtRestoresTheVacatedPosition) {
  PacketQueue queue(QueueId::kQ);
  std::deque<SkbPtr> reference;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    reference.push_back(make_skb(seq, 100 + static_cast<std::int32_t>(seq)));
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
    EXPECT_EQ(queue.find(skb.get()), &queue.at(idx));
  }
  queue.insert_at(queue.size(), make_skb(99, 1));
  reference.push_back(queue.at(queue.size() - 1));
  expect_matches(queue, reference);
}

class PacketQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Randomized operation sequences against the std::deque reference model,
/// which keeps the no-duplicates precondition the connection guarantees via
/// membership flags.
TEST_P(PacketQueueProperty, TrackedMatchesDequeReference) {
  Rng rng(GetParam());
  PacketQueue queue(QueueId::kQ);
  std::deque<SkbPtr> reference;
  std::uint64_t next_seq = 0;
  // Erased/popped packets return to this pool so re-insertion (rollback
  // push_front semantics) is exercised too.
  std::vector<SkbPtr> outside;

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.next_range(0, 8);
    if (op <= 2 || reference.empty()) {  // push_back (new or recycled)
      SkbPtr skb;
      if (!outside.empty() && rng.chance(0.5)) {
        skb = outside.back();
        outside.pop_back();
      } else {
        skb = make_skb(next_seq++,
                       static_cast<std::int32_t>(rng.next_range(1, 1400)));
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
    } else if (op == 7) {  // scan-and-remove pass: pop_at keeps the index
      const std::uint64_t keep_mod = 2 + rng.next_range(0, 2);
      for (std::size_t i = 0; i < queue.size();) {
        if (queue.at(i)->meta_seq % keep_mod == 0) {
          outside.push_back(queue.pop_at(i));
        } else {
          ++i;
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
    if (step % 64 == 0) expect_matches(queue, reference);
    // Non-members must not test as members (flag-based fast path).
    if (!outside.empty()) {
      EXPECT_FALSE(queue.contains(outside.back().get()));
      EXPECT_FALSE(outside.back()->in_q);
    }
  }
  expect_matches(queue, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketQueueProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace progmp::mptcp
