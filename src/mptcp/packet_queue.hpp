// Ring queue for the connection's meta-level queues (Q, QU, RQ).
//
// PacketQueue is a power-of-two ring of SkbPtr that also maintains the
// intrusive membership index inside Skb: the membership flag of its QueueId
// plus the packet's physical ring slot (Skb::queue_pos). Membership tests
// and mid-queue removal (detach on data-level ACK, DROP) therefore locate a
// packet in O(1) instead of a linear search, and a packet can sit in each
// of the three queues at most once.
//
// Packet fields are read through the pointer, as the scheduler runtime
// reads them: nothing is copied next to the SkbPtr, so there is no cache to
// keep in sync when a PUSH or a subflow death changes a packet's sent-on
// mask. The only aggregate kept is the byte total behind the conn.qu_bytes
// gauge. Per-subflow send queues, where one skb may sit twice, are plain
// std::deque<SkbPtr> in SubflowSender.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "mptcp/skb.hpp"

namespace progmp::mptcp {

/// The three meta-level queues of §3.1. Doubles as the index into the
/// intrusive membership state in Skb (flag + ring slot).
enum class QueueId { kQ = 0, kQu = 1, kRq = 2 };

class PacketQueue {
 public:
  /// Maintains the Skb membership flag and ring-slot index for `id`. Exactly
  /// one queue per QueueId may hold a given skb.
  explicit PacketQueue(QueueId id);

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  // ---- Size ----------------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Sum of payload bytes over all entries.
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

  // ---- Element access ------------------------------------------------------
  [[nodiscard]] const SkbPtr& at(std::size_t i) const {
    PROGMP_CHECK(i < size_);
    return ring_[slot_of(i)];
  }
  [[nodiscard]] const SkbPtr& front() const { return at(0); }

  // ---- Mutation ------------------------------------------------------------
  /// Appends `skb` and stamps its membership flag + ring slot (the skb must
  /// not already be a member of this queue).
  void push_back(const SkbPtr& skb);
  /// Prepends `skb` (window-blocked hand-back).
  void push_front(const SkbPtr& skb);
  /// Inserts `skb` so that it ends up at logical `index` (<= size()); the
  /// entries from `index` on move back by one. Restores a packet to the
  /// exact position a POP or DROP took it from (scheduler rollback).
  void insert_at(std::size_t index, const SkbPtr& skb);
  /// Removes and returns the front packet, clearing its membership flag;
  /// nullptr when empty.
  SkbPtr pop_front();
  /// Removes and returns the packet at logical `index` (the augmented queue
  /// allows POPs from the middle, §4.1); nullptr when out of range. The
  /// shorter side of the ring shifts by one slot.
  SkbPtr pop_at(std::size_t index);
  /// Removes `skb` in O(1) via the intrusive index. Returns false when not a
  /// member.
  bool erase(const Skb* skb);
  /// Logical index of `skb` in O(1), -1 when not a member.
  [[nodiscard]] std::int64_t index_of(const Skb* skb) const;
  /// Membership test, as index_of().
  [[nodiscard]] bool contains(const Skb* skb) const {
    return index_of(skb) >= 0;
  }
  /// The owning reference held for `skb`, or nullptr when not a member.
  [[nodiscard]] const SkbPtr* find(const Skb* skb) const {
    const std::int64_t i = index_of(skb);
    return i < 0 ? nullptr : &at(static_cast<std::size_t>(i));
  }
  /// Drops all entries, clearing their membership flags.
  void clear();

  // ---- Iteration (forward, logical order, const) ---------------------------
  class const_iterator {
   public:
    const_iterator(const PacketQueue* q, std::size_t pos) : q_(q), pos_(pos) {}
    const SkbPtr& operator*() const { return q_->at(pos_); }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }

   private:
    const PacketQueue* q_;
    std::size_t pos_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  // ---- Self-audit (invariant checker) --------------------------------------
  /// Full internal consistency check: the intrusive index round-trips (flag
  /// set, stored slot maps back to the entry — which also proves the queue
  /// is duplicate-free) and the byte total equals a recompute. Returns a
  /// diagnostic on the first inconsistency, std::nullopt when clean.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  [[nodiscard]] std::size_t slot_of(std::size_t logical) const {
    return (head_ + logical) & mask_;
  }

  /// Sets `skb`'s membership flag, which must be clear, and counts its bytes.
  void claim(const SkbPtr& skb);
  /// Stores `skb` in ring_[slot] and stamps its ring-slot index.
  void place(std::size_t slot, const SkbPtr& skb);
  /// Moves the entry in `from` to `to`, restamping the intrusive index.
  void move_entry(std::size_t from, std::size_t to);
  /// Takes the entry in `slot` out, clearing its flag and uncounting its
  /// bytes.
  SkbPtr release(std::size_t slot);
  /// Doubles the ring (min 16 slots), re-linearizing with head_ = 0.
  void grow();

  std::vector<SkbPtr> ring_;  ///< power-of-two capacity (empty until first use)
  std::size_t mask_ = 0;      ///< ring_.size() - 1
  std::size_t head_ = 0;      ///< physical slot of logical index 0
  std::size_t size_ = 0;
  std::size_t index_;  ///< QueueId, the index into Skb::queue_pos
  bool Skb::* flag_;   ///< the Skb membership flag of this QueueId
  std::int64_t bytes_ = 0;
};

/// The connection's three meta-level queues as one object — the single
/// spelling of the QueueId -> queue mapping.
struct QueueBundle {
  PacketQueue q{QueueId::kQ};
  PacketQueue qu{QueueId::kQu};
  PacketQueue rq{QueueId::kRq};

  [[nodiscard]] PacketQueue& get(QueueId id) {
    switch (id) {
      case QueueId::kQ:
        return q;
      case QueueId::kQu:
        return qu;
      case QueueId::kRq:
        return rq;
    }
    PROGMP_UNREACHABLE("bad queue id");
  }
  [[nodiscard]] const PacketQueue& get(QueueId id) const {
    return const_cast<QueueBundle*>(this)->get(id);
  }

  /// Removes `skb` from every queue it is a member of (flags cleared).
  void detach(const Skb* skb) {
    q.erase(skb);
    qu.erase(skb);
    rq.erase(skb);
  }

  /// The owning reference some queue holds for `skb`; nullptr when the
  /// packet is in none of them.
  [[nodiscard]] const SkbPtr* find(const Skb* skb) const {
    if (const SkbPtr* p = q.find(skb)) return p;
    if (const SkbPtr* p = qu.find(skb)) return p;
    return rq.find(skb);
  }
};

}  // namespace progmp::mptcp
