#include "sim/simulator.hpp"

namespace progmp::sim {

namespace {
/// EventIds encode (gen << 32 | slot) + 1 so that 0 — the natural
/// zero-initialized handle — is never a valid id.
constexpr EventId encode(std::uint32_t slot, std::uint32_t gen) {
  return ((static_cast<EventId>(gen) << 32) | slot) + 1;
}
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  heap_pos_.push_back(kOffHeap);
  return idx;
}

EventId Simulator::arm(std::uint32_t idx, TimeNs at) {
  Slot& s = slots_[idx];
  s.armed = true;
  heap_.push_back(Entry{at, next_seq_++, idx, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return encode(idx, s.gen);
}

void Simulator::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Simulator::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void Simulator::remove_at(std::size_t i) {
  heap_pos_[heap_[i].slot] = kOffHeap;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last entry itself
  heap_[i] = last;
  if (i > 0 && earlier(last, heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void Simulator::release(Slot& s, std::uint32_t slot_idx) {
  // Destroy before freeing: a destructor that schedules must not be handed
  // the slot it is still running in.
  s.fn.reset();
  free_slots_.push_back(slot_idx);
}

void Simulator::cancel(EventId id) {
  if (id == 0) return;
  const EventId decoded = id - 1;
  const auto idx = static_cast<std::uint32_t>(decoded & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(decoded >> 32);
  if (idx >= slots_.size()) return;  // never issued: no-op
  Slot& s = slots_[idx];
  if (s.gen != gen || !s.armed) return;  // fired, firing or cancelled: no-op
  // An entry already popped into a batch is off the heap; the batch's
  // generation re-check skips it.
  if (heap_pos_[idx] != kOffHeap) remove_at(heap_pos_[idx]);
  s.armed = false;
  ++s.gen;  // the id, and a batch copy of the entry, go stale
  ++cancelled_;
  --live_;
  // The callback (and any packet memory a long-armed timer captured) dies
  // here.
  release(s, idx);
}

void Simulator::exec(Entry e) {
  // Disarm before invoking, so a self-cancel from inside the callback is the
  // documented no-op; the slot stays off the free list until the callback
  // returned, so nothing the callback schedules can land in it. The deque
  // never relocates slots, so `s` survives the pool growing meanwhile.
  Slot& s = slots_[e.slot];
  s.armed = false;
  ++s.gen;
  now_ = e.at;
  ++executed_;
  --live_;
  s.fn();
  if (post_event_hook_) post_event_hook_();
  release(s, e.slot);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  exec(pop_entry());
  return true;
}

void Simulator::run_until(TimeNs deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    // Batch-dispatch the whole instant: pop every entry for time t in one
    // pass (ascending seq — FIFO), then execute. Events the batch schedules
    // for t itself carry higher seqs and form the next batch, so FIFO order
    // is preserved across the boundary. The start/resize dance keeps the
    // scratch vector reentrancy-safe should a callback ever run the
    // simulator recursively.
    const TimeNs t = heap_.front().at;
    const std::size_t start = batch_.size();
    while (!heap_.empty() && heap_.front().at == t) {
      batch_.push_back(pop_entry());
    }
    for (std::size_t i = start; i < batch_.size(); ++i) {
      // A batch-mate may have cancelled this entry after it was popped.
      if (!stale(batch_[i])) exec(batch_[i]);
    }
    batch_.resize(start);
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace progmp::sim
