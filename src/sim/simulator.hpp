// Discrete-event simulator.
//
// Single-threaded, deterministic: events scheduled for the same instant run
// in FIFO scheduling order. Everything in the transport stack — link
// serialization, packet arrival, retransmission timers, application sources —
// is an event on this queue.
//
// The hot path is flat and allocation-free for small callbacks:
//
//  * Callbacks live in generation-counted slots (a reusable pool indexed by
//    the low half of the EventId); the 4-ary heap orders 24-byte POD
//    entries, so sifting never touches a callback, an allocator or a
//    refcount.
//  * The heap holds live events only. A compact per-slot position index,
//    kept current by every sift, lets cancel() remove its entry in place
//    (swap in the last entry, re-sift: O(log n)) and destroy the callback
//    immediately, releasing anything it captured (SkbPtrs of long-armed
//    timers included). heap_depth() == pending() whenever no batch is
//    being dispatched.
//  * schedule_at()/schedule_after() construct the callable directly in its
//    slot, and the event runs it there: no relocation between scheduling
//    and execution. EventFn stores callables up to kInlineBytes inline —
//    scheduling a typical transport lambda (a couple of pointers plus a
//    bound std::function) costs zero heap allocations.
//  * Lifetime of a firing slot: it is disarmed (generation bumped, so a
//    self-cancel is a no-op) before its callback runs, and destroyed and
//    returned to the free list only after the callback (and the post-event
//    hook) returned. Slots live in a deque, which never relocates them, so
//    callbacks may grow the pool while they run.
//  * run_until()/run_all() drain same-timestamp events in batches: all
//    entries for the current instant are popped in one pass (FIFO order
//    preserved, including against events the batch itself schedules), which
//    keeps link-serialization chains and ACK storms from interleaving heap
//    pushes with single-entry pops. A popped entry leaves the heap before it
//    runs, so a batch-mate may still cancel it; the entry's generation is
//    re-checked right before execution.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/time.hpp"

namespace progmp::sim {

/// Handle for a scheduled event, usable with Simulator::cancel().
/// Encodes (slot generation << 32 | slot index) + 1; 0 is never a valid id,
/// so a zero-initialized handle is safely cancellable.
using EventId = std::uint64_t;

/// Move-only callable for simulator events. Targets up to kInlineBytes with
/// a nothrow move constructor are stored inline (no heap allocation — the
/// common case for transport lambdas); larger or throwing-move targets fall
/// back to the heap. Replaces std::function on the event hot path, where the
/// per-event allocation and type-erasure overhead dominated scheduling cost.
class EventFn {
 public:
  /// Inline storage: sized for the largest transport lambda on the hot path
  /// (Link's delivery wrapper around an ACK-carrying callback: a `this`, a
  /// byte count, a weak guard and an AckInfo — 80 bytes).
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                 !std::is_same_v<std::decay_t<F>, std::nullptr_t>,
                             int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Destroys the current target, if any, and constructs `f`'s decayed type
  /// directly in this EventFn's storage (inline or on the heap, by the same
  /// rule as the converting constructor).
  template <class F>
  void emplace(F&& f) {
    using Target = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Target) <= kInlineBytes &&
                  alignof(Target) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Target>) {
      ::new (static_cast<void*>(buf_)) Target(std::forward<F>(f));
      ops_ = inline_ops<Target>();
    } else {
      heap_ = new Target(std::forward<F>(f));
      ops_ = heap_ops<Target>();
    }
  }

  /// Destroys the target (releasing everything it captured) and empties.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    PROGMP_CHECK(ops_ != nullptr);
    ops_->invoke(target());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Moves the target out of `src` into this EventFn's storage and
    /// destroys the source target. Inline targets relocate; heap targets
    /// just hand over the pointer (src == the pointer itself).
    void (*relocate)(EventFn& dst, EventFn& src);
  };

  void* target() {
    return ops_ != nullptr && ops_->relocate == nullptr
               ? heap_
               : static_cast<void*>(buf_);
  }

  void move_from(EventFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    if (o.ops_->relocate != nullptr) {
      o.ops_->relocate(*this, o);
    } else {
      heap_ = o.heap_;
    }
    ops_ = o.ops_;
    o.ops_ = nullptr;
  }

  template <class T>
  static void relocate_inline(EventFn& dst, EventFn& src) {
    T* s = static_cast<T*>(static_cast<void*>(src.buf_));
    ::new (static_cast<void*>(dst.buf_)) T(std::move(*s));
    s->~T();
  }

  template <class T>
  static const Ops* inline_ops() {
    static constexpr Ops ops{[](void* p) { (*static_cast<T*>(p))(); },
                             [](void* p) { static_cast<T*>(p)->~T(); },
                             &relocate_inline<T>};
    return &ops;
  }

  template <class T>
  static const Ops* heap_ops() {
    static constexpr Ops ops{[](void* p) { (*static_cast<T*>(p))(); },
                             [](void* p) { delete static_cast<T*>(p); },
                             nullptr};
    return &ops;
  }

  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using Callback = EventFn;

  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past). The
  /// callable is constructed directly in its event slot.
  template <class F>
  EventId schedule_at(TimeNs at, F&& fn) {
    PROGMP_CHECK_MSG(at >= now_, "event scheduled in the past");
    const std::uint32_t idx = acquire_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slots_[idx].fn = std::forward<F>(fn);
    } else {
      slots_[idx].fn.emplace(std::forward<F>(fn));
    }
    return arm(idx, at);
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <class F>
  EventId schedule_after(TimeNs delay, F&& fn) {
    PROGMP_CHECK(delay >= TimeNs{0});
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event in O(log n): its heap entry is removed and its
  /// callback destroyed at once (releasing anything the callback captured).
  /// Cancelling an already-fired, firing or unknown id is a harmless no-op
  /// (timers race with the events that disarm them) and does not perturb
  /// pending().
  void cancel(EventId id);

  /// Runs the next pending event. Returns false when the queue is empty.
  bool step();

  /// Runs all events with time <= deadline, then advances the clock to the
  /// deadline even if the queue drained earlier. Never executes an event
  /// past the deadline.
  void run_until(TimeNs deadline);

  /// Runs until the event queue is empty.
  void run_all();

  /// Number of scheduled-and-not-yet-fired, not-cancelled events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed — useful as a work/progress metric in tests.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Total cancel() calls that hit a live event (fired/unknown ids not
  /// counted) — observability for the proc dump.
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

  /// Current heap length. The heap holds live events only, so outside a
  /// same-instant batch this equals pending().
  [[nodiscard]] std::size_t heap_depth() const { return heap_.size(); }

  /// Hook invoked after every executed event, with the clock still at the
  /// event's time — the attachment point for invariant checkers, which want
  /// to observe the system exactly at event boundaries (never mid-callback).
  /// One unset-branch per event when unused; pass nullptr to detach.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }

 private:
  // 24-byte POD heap entry; the callback lives in slots_[slot].
  struct Entry {
    TimeNs at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;  // re-checked for entries popped into a batch
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool armed = false;
  };

  /// heap_pos_ value of a slot whose entry is not in the heap (free, or
  /// popped into a batch and awaiting execution).
  static constexpr std::uint32_t kOffHeap = 0xFFFFFFFFu;

  /// True once the entry's event was cancelled (or fired) after it was
  /// popped into a batch.
  [[nodiscard]] bool stale(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen != e.gen || !s.armed;
  }

  /// Takes a free slot (reusing the most recently freed one) or grows the
  /// pool.
  std::uint32_t acquire_slot();

  /// Arms the slot whose callback was just constructed and pushes its heap
  /// entry for time `at`.
  EventId arm(std::uint32_t idx, TimeNs at);

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }

  // 4-ary min-heap on (at, seq): shallower than a binary heap and the four
  // children share a cache line pair, so sifts touch less memory — the heap
  // is the single hottest data structure at fleet scale.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Removes the heap entry at position i: the last entry takes its place
  /// and is sifted whichever way restores the heap order.
  void remove_at(std::size_t i);

  Entry pop_entry() {
    const Entry e = heap_.front();
    remove_at(0);
    return e;
  }

  /// Destroys the slot's callback and returns the slot to the free list.
  /// The caller has already disarmed it (and bumped its generation).
  void release(Slot& s, std::uint32_t slot_idx);

  void exec(Entry e);

  TimeNs now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> heap_pos_;  ///< slot -> heap index or kOffHeap
  std::vector<Entry> batch_;  ///< same-timestamp dispatch scratch
  // deque: slots never relocate when the pool grows mid-callback.
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Callback post_event_hook_;
};

}  // namespace progmp::sim
