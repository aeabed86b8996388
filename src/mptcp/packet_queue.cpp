#include "mptcp/packet_queue.hpp"

#include <utility>

namespace progmp::mptcp {

bool Skb::* PacketQueue::member_flag() const {
  switch (static_cast<QueueId>(index_)) {
    case QueueId::kQ:
      return &Skb::in_q;
    case QueueId::kQu:
      return &Skb::in_qu;
    case QueueId::kRq:
      return &Skb::in_rq;
  }
  PROGMP_UNREACHABLE("bad queue index");
}

void PacketQueue::place(std::size_t slot, const SkbPtr& skb) {
  Entry& e = ring_[slot];
  e.skb = skb;
  e.meta_seq = skb->meta_seq;
  e.size = skb->size;
  e.sent_mask = skb->sent_mask;
  e.flow_end = skb->props.flow_end;
  if (tracked()) {
    skb->queue_pos[static_cast<std::size_t>(index_)] =
        static_cast<std::uint32_t>(slot);
  }
}

void PacketQueue::move_entry(std::size_t from, std::size_t to) {
  ring_[to] = std::move(ring_[from]);
  if (tracked() && ring_[to].skb != nullptr) {
    ring_[to].skb->queue_pos[static_cast<std::size_t>(index_)] =
        static_cast<std::uint32_t>(to);
  }
}

void PacketQueue::add_aggregates(const Entry& e) {
  bytes_ += e.size;
  if (e.flow_end) ++flow_end_count_;
  if (e.sent_mask != 0) ++sent_count_;
  if (size_ == 1) {
    min_seq_ = max_seq_ = e.meta_seq;
    minmax_dirty_ = false;
  } else if (!minmax_dirty_) {
    if (e.meta_seq < min_seq_) min_seq_ = e.meta_seq;
    if (e.meta_seq > max_seq_) max_seq_ = e.meta_seq;
  }
}

void PacketQueue::sub_aggregates(const Entry& e) {
  bytes_ -= e.size;
  if (e.flow_end) --flow_end_count_;
  if (e.sent_mask != 0) --sent_count_;
  // Removing the current extremum invalidates the cache; an interior
  // removal cannot change min/max. The recompute cost lands on the next
  // aggregate reader, keeping pops O(1).
  if (!minmax_dirty_ && (e.meta_seq == min_seq_ || e.meta_seq == max_seq_)) {
    minmax_dirty_ = true;
  }
}

void PacketQueue::recompute_minmax() const {
  if (size_ == 0) {
    min_seq_ = max_seq_ = 0;
    minmax_dirty_ = false;
    return;
  }
  std::uint64_t mn = ring_[slot_of(0)].meta_seq;
  std::uint64_t mx = mn;
  for (std::size_t i = 1; i < size_; ++i) {
    const std::uint64_t seq = ring_[slot_of(i)].meta_seq;
    if (seq < mn) mn = seq;
    if (seq > mx) mx = seq;
  }
  min_seq_ = mn;
  max_seq_ = mx;
  minmax_dirty_ = false;
}

std::uint64_t PacketQueue::min_meta_seq() const {
  if (minmax_dirty_) recompute_minmax();
  return size_ == 0 ? 0 : min_seq_;
}

std::uint64_t PacketQueue::max_meta_seq() const {
  if (minmax_dirty_) recompute_minmax();
  return size_ == 0 ? 0 : max_seq_;
}

void PacketQueue::grow() {
  const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
  std::vector<Entry> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move(ring_[slot_of(i)]);
  }
  ring_ = std::move(next);
  mask_ = cap - 1;
  head_ = 0;
  if (tracked()) {
    for (std::size_t i = 0; i < size_; ++i) {
      ring_[i].skb->queue_pos[static_cast<std::size_t>(index_)] =
          static_cast<std::uint32_t>(i);
    }
  }
}

void PacketQueue::claim(const SkbPtr& skb) {
  PROGMP_CHECK(skb != nullptr);
  if (tracked()) {
    bool Skb::* flag = member_flag();
    PROGMP_CHECK_MSG(!(skb.get()->*flag), "skb already in this queue");
    skb.get()->*flag = true;
  }
}

void PacketQueue::push_back(const SkbPtr& skb) {
  claim(skb);
  if (size_ == ring_.size()) grow();
  const std::size_t slot = slot_of(size_);
  place(slot, skb);
  ++size_;
  add_aggregates(ring_[slot]);
}

void PacketQueue::push_front(const SkbPtr& skb) {
  claim(skb);
  if (size_ == ring_.size()) grow();
  head_ = (head_ + mask_) & mask_;  // head_ - 1 mod capacity
  place(head_, skb);
  ++size_;
  add_aggregates(ring_[head_]);
}

void PacketQueue::insert_at(std::size_t index, const SkbPtr& skb) {
  PROGMP_CHECK(index <= size_);
  if (index == 0) {
    push_front(skb);
    return;
  }
  claim(skb);
  if (size_ == ring_.size()) grow();
  for (std::size_t j = size_; j > index; --j) {
    move_entry(slot_of(j - 1), slot_of(j));
  }
  const std::size_t slot = slot_of(index);
  place(slot, skb);
  ++size_;
  add_aggregates(ring_[slot]);
}

SkbPtr PacketQueue::pop_front() {
  if (size_ == 0) return nullptr;
  Entry& e = ring_[head_];
  sub_aggregates(e);
  if (tracked()) e.skb.get()->*member_flag() = false;
  SkbPtr out = std::move(e.skb);
  head_ = (head_ + 1) & mask_;
  --size_;
  if (size_ == 0) {
    min_seq_ = max_seq_ = 0;
    minmax_dirty_ = false;
  }
  return out;
}

SkbPtr PacketQueue::pop_at(std::size_t index) {
  if (index >= size_) return nullptr;
  if (index == 0) return pop_front();
  const std::size_t slot = slot_of(index);
  Entry& e = ring_[slot];
  sub_aggregates(e);
  if (tracked()) e.skb.get()->*member_flag() = false;
  SkbPtr out = std::move(e.skb);
  // Close the gap by shifting the shorter side of the ring by one slot.
  if (index < size_ - 1 - index) {
    for (std::size_t j = index; j > 0; --j) {
      move_entry(slot_of(j - 1), slot_of(j));
    }
    head_ = (head_ + 1) & mask_;
  } else {
    for (std::size_t j = index + 1; j < size_; ++j) {
      move_entry(slot_of(j), slot_of(j - 1));
    }
  }
  --size_;
  if (size_ == 0) {
    min_seq_ = max_seq_ = 0;
    minmax_dirty_ = false;
  }
  return out;
}

bool PacketQueue::erase(const Skb* skb) {
  if (skb == nullptr || size_ == 0) return false;
  if (tracked()) {
    if (!(skb->*member_flag())) return false;
    const std::size_t slot = skb->queue_pos[static_cast<std::size_t>(index_)];
    const std::size_t logical = (slot - head_) & mask_;
    PROGMP_CHECK_MSG(logical < size_ && ring_[slot].skb.get() == skb,
                     "intrusive queue index corrupt");
    pop_at(logical);
    return true;
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[slot_of(i)].skb.get() == skb) {
      pop_at(i);
      return true;
    }
  }
  return false;
}

std::int64_t PacketQueue::index_of(const Skb* skb) const {
  if (skb == nullptr || size_ == 0) return -1;
  if (tracked()) {
    if (!(skb->*member_flag())) return -1;
    const std::size_t slot = skb->queue_pos[static_cast<std::size_t>(index_)];
    const std::size_t logical = (slot - head_) & mask_;
    return logical < size_ && ring_[slot].skb.get() == skb
               ? static_cast<std::int64_t>(logical)
               : -1;
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[slot_of(i)].skb.get() == skb) return static_cast<std::int64_t>(i);
  }
  return -1;
}

void PacketQueue::clear() {
  for (std::size_t i = 0; i < size_; ++i) {
    Entry& e = ring_[slot_of(i)];
    if (tracked()) e.skb.get()->*member_flag() = false;
    e.skb.reset();
  }
  head_ = 0;
  size_ = 0;
  bytes_ = 0;
  flow_end_count_ = 0;
  sent_count_ = 0;
  min_seq_ = max_seq_ = 0;
  minmax_dirty_ = false;
}

void PacketQueue::refresh_sent_mask(const Skb* skb) {
  if (!tracked() || skb == nullptr || !(skb->*member_flag())) return;
  const std::size_t slot = skb->queue_pos[static_cast<std::size_t>(index_)];
  Entry& e = ring_[slot];
  PROGMP_CHECK_MSG(e.skb.get() == skb, "intrusive queue index corrupt");
  sent_count_ +=
      static_cast<int>(skb->sent_mask != 0) - static_cast<int>(e.sent_mask != 0);
  e.sent_mask = skb->sent_mask;
}

std::optional<std::string> PacketQueue::audit() const {
  std::int64_t bytes = 0;
  std::int64_t flow_ends = 0;
  std::int64_t sent = 0;
  std::uint64_t mn = 0;
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t slot = slot_of(i);
    const Entry& e = ring_[slot];
    if (e.skb == nullptr) {
      return "null skb at logical index " + std::to_string(i);
    }
    const Skb& s = *e.skb;
    const std::string id = "skb meta_seq=" + std::to_string(s.meta_seq);
    if (e.meta_seq != s.meta_seq || e.size != s.size ||
        e.flow_end != s.props.flow_end) {
      return id + ": cached entry fields out of sync";
    }
    if (e.sent_mask != s.sent_mask) {
      return id + ": cached sent_mask " + std::to_string(e.sent_mask) +
             " != live " + std::to_string(s.sent_mask);
    }
    if (tracked()) {
      if (!(s.*member_flag())) {
        return id + ": queue member without membership flag";
      }
      // The stored slot must name exactly this entry. Because each physical
      // slot holds one entry, a round-tripping index also proves the queue
      // is duplicate-free — a second entry for the same skb could not match
      // the single stored slot.
      if (s.queue_pos[static_cast<std::size_t>(index_)] != slot) {
        return id + ": intrusive slot index " +
               std::to_string(s.queue_pos[static_cast<std::size_t>(index_)]) +
               " does not round-trip to physical slot " + std::to_string(slot);
      }
    }
    bytes += e.size;
    if (e.flow_end) ++flow_ends;
    if (e.sent_mask != 0) ++sent;
    if (i == 0) {
      mn = mx = e.meta_seq;
    } else {
      if (e.meta_seq < mn) mn = e.meta_seq;
      if (e.meta_seq > mx) mx = e.meta_seq;
    }
  }
  if (bytes != bytes_) {
    return "cached byte total " + std::to_string(bytes_) + " != recompute " +
           std::to_string(bytes);
  }
  if (flow_ends != flow_end_count_) {
    return "cached flow_end count " + std::to_string(flow_end_count_) +
           " != recompute " + std::to_string(flow_ends);
  }
  if (sent != sent_count_) {
    return "cached sent count " + std::to_string(sent_count_) +
           " != recompute " + std::to_string(sent);
  }
  if (size_ > 0 && (min_meta_seq() != mn || max_meta_seq() != mx)) {
    return "cached min/max meta_seq [" + std::to_string(min_meta_seq()) + ", " +
           std::to_string(max_meta_seq()) + "] != recompute [" +
           std::to_string(mn) + ", " + std::to_string(mx) + "]";
  }
  return std::nullopt;
}

}  // namespace progmp::mptcp
