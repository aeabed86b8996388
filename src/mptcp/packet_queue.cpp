#include "mptcp/packet_queue.hpp"

#include <utility>

namespace progmp::mptcp {

namespace {

bool Skb::* member_flag(QueueId id) {
  switch (id) {
    case QueueId::kQ:
      return &Skb::in_q;
    case QueueId::kQu:
      return &Skb::in_qu;
    case QueueId::kRq:
      return &Skb::in_rq;
  }
  PROGMP_UNREACHABLE("bad queue id");
}

}  // namespace

PacketQueue::PacketQueue(QueueId id)
    : index_(static_cast<std::size_t>(id)), flag_(member_flag(id)) {}

void PacketQueue::place(std::size_t slot, const SkbPtr& skb) {
  ring_[slot] = skb;
  skb->queue_pos[index_] = static_cast<std::uint32_t>(slot);
}

void PacketQueue::move_entry(std::size_t from, std::size_t to) {
  ring_[to] = std::move(ring_[from]);
  ring_[to]->queue_pos[index_] = static_cast<std::uint32_t>(to);
}

SkbPtr PacketQueue::release(std::size_t slot) {
  SkbPtr out = std::move(ring_[slot]);
  out.get()->*flag_ = false;
  bytes_ -= out->size;
  return out;
}

void PacketQueue::grow() {
  const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
  std::vector<SkbPtr> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move(ring_[slot_of(i)]);
    next[i]->queue_pos[index_] = static_cast<std::uint32_t>(i);
  }
  ring_ = std::move(next);
  mask_ = cap - 1;
  head_ = 0;
}

void PacketQueue::claim(const SkbPtr& skb) {
  PROGMP_CHECK(skb != nullptr);
  PROGMP_CHECK_MSG(!(skb.get()->*flag_), "skb already in this queue");
  skb.get()->*flag_ = true;
  bytes_ += skb->size;
}

void PacketQueue::push_back(const SkbPtr& skb) {
  claim(skb);
  if (size_ == ring_.size()) grow();
  place(slot_of(size_), skb);
  ++size_;
}

void PacketQueue::push_front(const SkbPtr& skb) {
  claim(skb);
  if (size_ == ring_.size()) grow();
  head_ = (head_ + mask_) & mask_;  // head_ - 1 mod capacity
  place(head_, skb);
  ++size_;
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
  place(slot_of(index), skb);
  ++size_;
}

SkbPtr PacketQueue::pop_front() {
  if (size_ == 0) return nullptr;
  SkbPtr out = release(head_);
  head_ = (head_ + 1) & mask_;
  --size_;
  return out;
}

SkbPtr PacketQueue::pop_at(std::size_t index) {
  if (index >= size_) return nullptr;
  if (index == 0) return pop_front();
  SkbPtr out = release(slot_of(index));
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
  return out;
}

bool PacketQueue::erase(const Skb* skb) {
  if (skb == nullptr || size_ == 0 || !(skb->*flag_)) return false;
  const std::int64_t i = index_of(skb);
  PROGMP_CHECK_MSG(i >= 0, "intrusive queue index corrupt");
  pop_at(static_cast<std::size_t>(i));
  return true;
}

std::int64_t PacketQueue::index_of(const Skb* skb) const {
  if (skb == nullptr || size_ == 0 || !(skb->*flag_)) return -1;
  const std::size_t logical = (skb->queue_pos[index_] - head_) & mask_;
  return logical < size_ && ring_[slot_of(logical)].get() == skb
             ? static_cast<std::int64_t>(logical)
             : -1;
}

void PacketQueue::clear() {
  for (std::size_t i = 0; i < size_; ++i) {
    SkbPtr& skb = ring_[slot_of(i)];
    skb.get()->*flag_ = false;
    skb.reset();
  }
  head_ = 0;
  size_ = 0;
  bytes_ = 0;
}

std::optional<std::string> PacketQueue::audit() const {
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t slot = slot_of(i);
    if (ring_[slot] == nullptr) {
      return "null skb at logical index " + std::to_string(i);
    }
    const Skb& s = *ring_[slot];
    const std::string id = "skb meta_seq=" + std::to_string(s.meta_seq);
    if (!(s.*flag_)) {
      return id + ": queue member without membership flag";
    }
    // The stored slot must name exactly this entry. Because each physical
    // slot holds one entry, a round-tripping index also proves the queue is
    // duplicate-free — a second entry for the same skb could not match the
    // single stored slot.
    if (s.queue_pos[index_] != slot) {
      return id + ": intrusive slot index " +
             std::to_string(s.queue_pos[index_]) +
             " does not round-trip to physical slot " + std::to_string(slot);
    }
    bytes += s.size;
  }
  if (bytes != bytes_) {
    return "cached byte total " + std::to_string(bytes_) + " != recompute " +
           std::to_string(bytes);
  }
  return std::nullopt;
}

}  // namespace progmp::mptcp
