// Flat queue layer for the meta-level queues (Q, QU, RQ) and the
// per-subflow send queues.
//
// The programming model makes the queues first-class objects that scheduler
// specifications scan on every trigger (FILTER/MIN/MAX/COUNT chains, §3.1),
// so at fleet scale the queue representation *is* the hot path. PacketQueue
// keeps a contiguous power-of-two ring of small entries that carry the hot
// Skb fields (meta_seq, size, flow_end, sent-on summary) next to the owning
// SkbPtr, so chain scans walk sequential memory instead of chasing
// shared_ptr control blocks, and it maintains aggregates (byte total,
// min/max meta_seq, flag counts) incrementally so constant-time properties
// (Q.SIZE, byte totals) never cost an O(n) walk.
//
// Tracked mode — the connection's Q/QU/RQ — additionally maintains the
// intrusive membership index inside Skb: the membership flag plus the
// packet's physical ring slot (Skb::queue_pos). Membership tests and
// mid-queue removal (detach on data-level ACK, DROP) locate the entry in
// O(1) instead of a linear std::find. Untracked mode (per-subflow queues,
// where one skb may sit in several queues of the same kind) skips the
// intrusive index and falls back to linear erase.
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
  /// One ring slot: the owning reference plus a POD mirror of the hot Skb
  /// fields. meta_seq/size/flow_end are immutable while a packet is queued;
  /// sent_mask mutates (PUSH marks, subflow-death clears) and is re-synced
  /// through refresh_sent_mask() by the owning connection.
  struct Entry {
    SkbPtr skb;
    std::uint64_t meta_seq = 0;
    std::int32_t size = 0;
    std::uint32_t sent_mask = 0;
    bool flow_end = false;
  };

  /// Untracked queue (per-subflow send queues): no intrusive index.
  PacketQueue() = default;
  /// Tracked queue: maintains the Skb membership flag and ring-slot index
  /// for `id`. Exactly one tracked queue per QueueId may hold a given skb.
  explicit PacketQueue(QueueId id) : index_(static_cast<int>(id)) {}

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  // ---- Size & aggregates (all O(1); min/max amortized) ---------------------
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Sum of payload bytes over all entries.
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  /// Entries whose packet carries the application's end-of-flow signal.
  [[nodiscard]] std::int64_t flow_end_count() const { return flow_end_count_; }
  /// Entries already scheduled on at least one subflow (sent_mask != 0).
  [[nodiscard]] std::int64_t sent_count() const { return sent_count_; }
  /// Smallest/largest meta_seq currently queued; 0 when empty. Removal of
  /// the current extremum marks the cache dirty, the next read recomputes.
  [[nodiscard]] std::uint64_t min_meta_seq() const;
  [[nodiscard]] std::uint64_t max_meta_seq() const;

  // ---- Element access ------------------------------------------------------
  [[nodiscard]] const Entry& at(std::size_t i) const {
    PROGMP_CHECK(i < size_);
    return ring_[slot_of(i)];
  }
  [[nodiscard]] const SkbPtr& skb_at(std::size_t i) const { return at(i).skb; }
  [[nodiscard]] const SkbPtr& front() const { return at(0).skb; }
  [[nodiscard]] const Entry& front_entry() const { return at(0); }

  // ---- Mutation ------------------------------------------------------------
  /// Appends `skb`. Tracked mode stamps the membership flag + ring slot (the
  /// skb must not already be a member of this queue).
  void push_back(const SkbPtr& skb);
  /// Prepends `skb` (window-blocked hand-back).
  void push_front(const SkbPtr& skb);
  /// Inserts `skb` so that it ends up at logical `index` (<= size()); the
  /// entries from `index` on move back by one. Restores a packet to the
  /// exact position a POP or DROP took it from (scheduler rollback).
  void insert_at(std::size_t index, const SkbPtr& skb);
  /// Removes and returns the front packet; nullptr when empty. Tracked mode
  /// clears the membership flag.
  SkbPtr pop_front();
  /// Removes and returns the packet at logical `index` (the augmented queue
  /// allows POPs from the middle, §4.1); nullptr when out of range. The
  /// shorter side of the ring shifts by one slot.
  SkbPtr pop_at(std::size_t index);
  /// Removes the entry owning `skb`. O(1) in tracked mode (intrusive index),
  /// linear in untracked mode. Returns false when not a member.
  bool erase(const Skb* skb);
  /// Logical index of `skb`, -1 when not a member. O(1) in tracked mode
  /// (intrusive index), linear in untracked mode.
  [[nodiscard]] std::int64_t index_of(const Skb* skb) const;
  /// Membership test, as index_of().
  [[nodiscard]] bool contains(const Skb* skb) const {
    return index_of(skb) >= 0;
  }
  /// The owning reference held for `skb`, or nullptr when not a member.
  [[nodiscard]] const SkbPtr* find(const Skb* skb) const {
    const std::int64_t i = index_of(skb);
    return i < 0 ? nullptr : &at(static_cast<std::size_t>(i)).skb;
  }
  /// Drops all entries (clearing membership flags in tracked mode).
  void clear();

  /// Re-syncs the cached sent_mask of `skb`'s entry after the live mask
  /// changed (PUSH marked a subflow, a subflow death cleared its bit).
  /// Tracked mode only; no-op when the skb is not a member.
  void refresh_sent_mask(const Skb* skb);

  // ---- Iteration (forward, logical order, const) ---------------------------
  class const_iterator {
   public:
    const_iterator(const PacketQueue* q, std::size_t pos) : q_(q), pos_(pos) {}
    const Entry& operator*() const { return q_->at(pos_); }
    const Entry* operator->() const { return &q_->at(pos_); }
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

  /// Stable cursor for scan-and-remove passes. The cursor walks logical
  /// positions; erase_here() removes the current entry and leaves the cursor
  /// on its successor. Any queue mutation *not* made through the cursor
  /// (push, pop, erase, clear) invalidates it.
  class Cursor {
   public:
    explicit Cursor(PacketQueue& q) : q_(&q) {}
    [[nodiscard]] bool valid() const { return pos_ < q_->size(); }
    [[nodiscard]] const Entry& entry() const { return q_->at(pos_); }
    void next() { ++pos_; }
    /// Removes the current entry; the cursor stays at the same logical
    /// position, which now names the removed entry's successor.
    SkbPtr erase_here() { return q_->pop_at(pos_); }

   private:
    PacketQueue* q_;
    std::size_t pos_ = 0;
  };
  [[nodiscard]] Cursor cursor() { return Cursor(*this); }

  // ---- Self-audit (invariant checker) --------------------------------------
  /// Full internal consistency check: every entry's POD mirror matches its
  /// skb, the intrusive index round-trips (flag set, stored slot maps back
  /// to the entry — which also proves the queue is duplicate-free), and the
  /// cached aggregates equal a from-scratch recompute. Returns a diagnostic
  /// on the first inconsistency, std::nullopt when clean.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  [[nodiscard]] std::size_t slot_of(std::size_t logical) const {
    return (head_ + logical) & mask_;
  }
  [[nodiscard]] bool tracked() const { return index_ >= 0; }
  [[nodiscard]] bool Skb::* member_flag() const;

  /// Tracked mode: sets `skb`'s membership flag, which must be clear.
  void claim(const SkbPtr& skb);
  /// Fills ring_[slot] from `skb` and stamps the intrusive index (tracked).
  void place(std::size_t slot, const SkbPtr& skb);
  /// Moves the entry in `from` to `to`, restamping the intrusive index.
  void move_entry(std::size_t from, std::size_t to);
  void add_aggregates(const Entry& e);
  void sub_aggregates(const Entry& e);
  void recompute_minmax() const;
  /// Doubles the ring (min 16 slots), re-linearizing with head_ = 0.
  void grow();

  std::vector<Entry> ring_;  ///< power-of-two capacity (empty until first use)
  std::size_t mask_ = 0;     ///< ring_.size() - 1
  std::size_t head_ = 0;     ///< physical slot of logical index 0
  std::size_t size_ = 0;
  int index_ = -1;  ///< QueueId for tracked mode; -1 = untracked

  std::int64_t bytes_ = 0;
  std::int64_t flow_end_count_ = 0;
  std::int64_t sent_count_ = 0;
  // min/max are lazy: removals of the extremum only mark the cache dirty,
  // so hot-path pops stay O(1) and the recompute cost lands on the (rare)
  // aggregate reader.
  mutable std::uint64_t min_seq_ = 0;
  mutable std::uint64_t max_seq_ = 0;
  mutable bool minmax_dirty_ = false;
};

/// The connection's three meta-level queues as one object — the single
/// spelling of the QueueId -> queue mapping (previously duplicated across
/// connection.hpp, scheduler.hpp and scheduler.cpp).
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

  /// Re-syncs the cached sent-on summary in every queue holding `skb`.
  void refresh_sent_mask(const Skb* skb) {
    q.refresh_sent_mask(skb);
    qu.refresh_sent_mask(skb);
    rq.refresh_sent_mask(skb);
  }
};

}  // namespace progmp::mptcp
