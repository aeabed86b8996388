// The scheduler abstraction: trigger events (Fig 4), the execution context
// with the environment model of §3.1 (SUBFLOWS, Q, QU, RQ), and the deferred
// action queue of §4.1.
//
// Both the native ("C") reference schedulers and the three ProgMP execution
// environments program against SchedulerContext, so overhead comparisons
// (Fig 9) measure exactly the runtime difference.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/check.hpp"
#include "core/time.hpp"
#include "core/trace.hpp"
#include "mptcp/packet_queue.hpp"
#include "mptcp/skb.hpp"

namespace progmp::mptcp {

/// Why the scheduler is being executed (the calling model of Fig 4).
enum class TriggerKind {
  kDataPushed,      ///< new packets arrived in Q from the application
  kAck,             ///< a (subflow or data) ACK arrived
  kRto,             ///< a retransmission timer fired
  kReinject,        ///< a suspected loss queued a packet into RQ
  kSubflowAdded,    ///< path manager established a new subflow
  kSubflowClosed,   ///< a subflow closed or failed
  kRegisterSet,     ///< the application changed a scheduler register
  kTsqFreed,        ///< TSQ budget freed (packet left the local qdisc)
  kWindowUpdate,    ///< the receiver reopened its window
  kConnStall,       ///< the watchdog declared a meta-level stall and wants
                    ///< the scheduler to look at the queues again
  kRwndLimited,     ///< the sender is blocked on a zero receive window with
                    ///< nothing in flight (§3.4's rwnd-limited signal); the
                    ///< persist timer starts probing
  kMemPressure,     ///< the host's receive-memory pool is under pressure
                    ///< (exhausted or shedding); redundant schedulers should
                    ///< back off — every duplicate copy they send lands in a
                    ///< buffer the pool can no longer grow
  kFallback,        ///< middlebox interference forced an RFC 8684-style
                    ///< fallback to single-path operation; the subflow slot
                    ///< is the elected survivor. The installed spec keeps
                    ///< running but sees exactly one established subflow
                    ///< from here on (R93 reads the fallback state).
};

struct Trigger {
  TriggerKind kind = TriggerKind::kDataPushed;
  int subflow_slot = -1;  ///< originating subflow where applicable
};

/// Read-only snapshot of one subflow's properties, refreshed before every
/// scheduler execution. These are exactly the DSL's subflow properties
/// (Table 1) plus the derived rate signals used by TAP (§5.4).
struct SubflowInfo {
  int slot = -1;            ///< stable index into the connection's slot table
  bool is_backup = false;
  bool preferred = true;  ///< application preference (cheap vs metered path)
  bool established = false;
  bool tsq_throttled = false;
  bool lossy = false;       ///< in loss recovery (fast recovery or post-RTO)
  std::int64_t cwnd = 0;             ///< congestion window (segments)
  std::int64_t skbs_in_flight = 0;   ///< transmitted, unacked (segments)
  std::int64_t queued = 0;           ///< scheduled, not yet transmitted
  TimeNs rtt{0};        ///< smoothed RTT
  TimeNs rtt_var{0};
  TimeNs min_rtt{0};
  TimeNs last_rtt{0};
  std::int64_t mss = 0;
  double delivery_rate_bps = 0.0;  ///< observed goodput, bytes/sec
  double capacity_bps = 0.0;       ///< cwnd * mss / srtt, bytes/sec
  TimeNs established_at{0};
  TimeNs last_tx_at{0};

  /// The default scheduler's availability test: room in the congestion
  /// window, not throttled, not in loss recovery.
  [[nodiscard]] bool cwnd_free() const {
    return cwnd > skbs_in_flight + queued;
  }
};
// Built once per subflow per execution: the snapshot must stay a plain copy.
static_assert(std::is_trivially_copyable_v<SubflowInfo>);

// QueueId lives in mptcp/packet_queue.hpp (re-exported by the include
// above): the queue layer owns the id -> queue mapping.

// ---- Environment-maintained registers ---------------------------------------
// The top of the R1..R99 register file is reserved for values the runtime
// maintains on the connection's behalf — specs read them like any register
// (e.g. `IF R92 > R1 THEN ...`), writes to them are silently ignored. The
// per-connection register file itself has MptcpConnection::kNumRegisters
// (8) entries, so the overlay can never collide with an application-owned
// register.

/// R91: receive-memory pressure level of the owning host's pool (0 = no
/// pressure; otherwise the episode count of the current pressure period).
inline constexpr int kEnvRegMemPressure = 90;
/// R92: the receiver's D-SACK-style duplicate count — segments that arrived
/// as redundant copies of already-received meta data. A redundant scheduler
/// watching this register sees exactly how many of its copies were wasted.
inline constexpr int kEnvRegDsackDups = 91;
/// R93: the connection's RFC 8684 fallback state (0 = native multipath,
/// 1 = fallback transition in progress, 2 = pinned to single-path
/// operation after middlebox interference). A spec can stop scheduling
/// redundancy, flip strategies or surface the degradation to the app.
inline constexpr int kEnvRegFallback = 92;
/// R94: the quarantine state of this connection's installed program
/// (0 = active, 1 = quarantined — the default scheduler is standing in,
/// 2 = probation — reinstated, but the next fault re-quarantines). A spec
/// that reads 2 knows it is on its last chance and can throttle whatever
/// made it fault; co-hosted specs read 0 throughout.
inline constexpr int kEnvRegQuarantine = 93;

/// Snapshot of the environment-register values, refreshed by the engine
/// before every scheduler execution.
struct EnvSignals {
  std::int64_t mem_pressure = 0;  ///< served as R91
  std::int64_t dsack_dups = 0;    ///< served as R92
  std::int64_t fallback = 0;      ///< served as R93
  std::int64_t quarantine = 0;    ///< served as R94
};

// ---- Runtime faults ---------------------------------------------------------

/// Structured classification of scheduler-program runtime faults. The kinds
/// are stable identifiers: fault scoring (api::SpecQuarantine), metrics
/// labels, and the kSchedFault trace payload key on the enum value, never on
/// a rendered string — and the fault hot path allocates nothing.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kBudgetExhausted,  ///< per-execution instruction budget exhausted
  kPcViolation,      ///< program counter left the program
  kStackViolation,   ///< stack load/store outside the frame
  kHelperViolation,  ///< helper called with an argument the verifier should
                     ///< have ruled out (defense-in-depth VM check)
  kOther,            ///< execution environment reported an unclassified fault
};

/// Stable short name for metrics labels and proc lines ("budget", "pc", ...).
const char* fault_kind_name(FaultKind kind);

/// Statistics the runtime keeps per scheduler instance (exposed through the
/// proc-style API, §4.1).
struct SchedulerStats {
  /// Scheduler programs actually run (elided executions excluded).
  std::int64_t executions = 0;
  /// Executions the engine skipped because the scheduler's guard proved
  /// they would do nothing (Scheduler::may_act).
  std::int64_t elided = 0;
  std::int64_t pushes = 0;
  std::int64_t redundant_pushes = 0;  ///< pushes of already-sent packets
  std::int64_t null_pushes = 0;       ///< graceful no-ops (NULL packet/subflow)
  std::int64_t drops = 0;
  std::int64_t pops = 0;
  /// Times the engine hit the per-trigger execution bound and abandoned the
  /// re-posted push-until-blocked continuation of a trigger.
  std::int64_t trigger_drops = 0;
  /// Scheduler-program runtime faults (instruction-budget exhaustion, PC or
  /// stack violations). Each one is rolled back and replaced by a run of the
  /// built-in default scheduler — graceful failure (§3.3).
  std::int64_t sched_faults = 0;
};

/// Execution context handed to the scheduler. Exposes immutable snapshots of
/// the subflows and live views of the three queues; PUSH side effects are
/// collected into a deferred action queue applied by the engine afterwards,
/// while POP mutates the underlying queue immediately (visible side effect
/// semantics of §4.1).
class SchedulerContext {
 public:
  /// One deferred PUSH action.
  struct PushAction {
    int subflow_slot;
    SkbPtr skb;
  };

  SchedulerContext(TimeNs now, Trigger trigger,
                   std::span<const SubflowInfo> subflows, QueueBundle* queues,
                   std::int64_t* registers, int num_registers,
                   std::int64_t rwnd_free_bytes, SchedulerStats* stats,
                   Tracer* trace = nullptr,
                   std::uint64_t below_edge_bytes = 0)
      : now_(now),
        trigger_(trigger),
        subflows_(subflows),
        queues_(queues),
        registers_(registers),
        num_registers_(num_registers),
        rwnd_free_bytes_(rwnd_free_bytes),
        below_edge_bytes_(below_edge_bytes),
        stats_(stats),
        trace_(trace) {}

  /// Re-arms a long-lived context for the next execution: fresh trigger
  /// snapshot, cleared action and undo logs. The engine keeps one context per
  /// connection so the per-execution log capacity is reused instead of
  /// reallocated on every trigger.
  void reset(TimeNs now, Trigger trigger,
             std::span<const SubflowInfo> subflows,
             std::int64_t rwnd_free_bytes, std::uint64_t below_edge_bytes = 0) {
    now_ = now;
    trigger_ = trigger;
    subflows_ = subflows;
    rwnd_free_bytes_ = rwnd_free_bytes;
    below_edge_bytes_ = below_edge_bytes;
    actions_.clear();
    undo_log_.clear();
    dropped_ = false;
    popped_ = false;
    faulted_ = false;
    fault_kind_ = FaultKind::kNone;
    exec_backend_ = "unknown";
    exec_insns_ = 0;
  }

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] const Trigger& trigger() const { return trigger_; }

  // ---- Subflows -----------------------------------------------------------
  [[nodiscard]] std::span<const SubflowInfo> subflows() const {
    return subflows_;
  }

  // ---- Queues -------------------------------------------------------------
  [[nodiscard]] const PacketQueue& queue(QueueId id) const {
    return queues_->get(id);
  }

  /// Removes and returns the packet at `index` of the given queue (the
  /// augmented queue allows POPs from the middle, §4.1). Returns nullptr if
  /// out of range.
  SkbPtr pop_at(QueueId id, std::size_t index);

  /// POP of the queue front; nullptr when empty.
  SkbPtr pop(QueueId id) { return pop_at(id, 0); }

  // ---- Actions ------------------------------------------------------------
  /// Defers a PUSH of `skb` onto the subflow in `slot`. NULL skb or invalid
  /// slot is a counted no-op — graceful failure by design (§3.3).
  void push(int slot, const SkbPtr& skb);

  /// Removes the packet from all queues without transmitting it.
  void drop(const SkbPtr& skb);

  /// The owning reference for a packet the current execution reached
  /// through a queue (nullptr for nullptr or an unknown packet). Such a
  /// packet is either still queued — found in O(1) through its intrusive
  /// queue slot — or it left its queue during this execution through POP
  /// or DROP, whose undo log holds it. Lets execution environments carry
  /// borrowed `const Skb*` handles and touch the refcount only when an
  /// action needs ownership.
  [[nodiscard]] const SkbPtr& owner(const Skb* skb) const;

  [[nodiscard]] const std::vector<PushAction>& actions() const {
    return actions_;
  }
  [[nodiscard]] bool performed_action() const {
    return !actions_.empty() || dropped_ || popped_;
  }

  // ---- Registers ----------------------------------------------------------
  [[nodiscard]] std::int64_t reg(int i) const {
    if (i == kEnvRegMemPressure) return env_.mem_pressure;
    if (i == kEnvRegDsackDups) return env_.dsack_dups;
    if (i == kEnvRegFallback) return env_.fallback;
    if (i == kEnvRegQuarantine) return env_.quarantine;
    return (i >= 0 && i < num_registers_) ? registers_[i] : 0;
  }
  void set_reg(int i, std::int64_t v) {
    if (i == kEnvRegMemPressure || i == kEnvRegDsackDups ||
        i == kEnvRegFallback || i == kEnvRegQuarantine) {
      return;
    }
    if (i >= 0 && i < num_registers_) registers_[i] = v;
  }
  [[nodiscard]] int num_registers() const { return num_registers_; }

  /// Installs the environment-register snapshot (R91–R94) for this
  /// execution; the engine refreshes it before every scheduler run.
  void set_env_signals(const EnvSignals& env) { env_ = env; }

  // ---- Misc ---------------------------------------------------------------
  /// Whether the receiver's advertised window can accommodate `skb`
  /// (HAS_WINDOW_FOR, §3.3). Window accounting is at the meta level, so the
  /// subflow argument of the DSL call does not change the outcome here.
  /// A packet entirely below the transmitted right edge is a retransmission
  /// and always fits, exactly like plain TCP (and like the engine's own
  /// transmit gate) — a fallback harvest returns such packets to Q, and the
  /// fresh-data budget must not wedge them. The engine only arms the
  /// exemption (below_edge_bytes > 0) with the fallback machinery enabled.
  [[nodiscard]] bool has_window_for(const Skb* skb) const {
    if (skb == nullptr) return false;
    if (skb->byte_offset + static_cast<std::uint64_t>(skb->size) <=
        below_edge_bytes_) {
      return true;
    }
    return skb->size <= rwnd_free_bytes_;
  }

  [[nodiscard]] SchedulerStats& stats() { return *stats_; }
  [[nodiscard]] Tracer* tracer() const { return trace_; }

  /// Execution-cost report from the runtime: which environment ran this
  /// execution and how many instructions/steps it retired. The engine folds
  /// it into the sched_exec_end trace event and the metrics histograms.
  void note_exec(const char* backend, std::int64_t insns) {
    exec_backend_ = backend;
    exec_insns_ = insns;
  }
  [[nodiscard]] const char* exec_backend() const { return exec_backend_; }
  [[nodiscard]] std::int64_t exec_insns() const { return exec_insns_; }

  // ---- Runtime faults -----------------------------------------------------
  /// Reported by a ProgMP execution environment when the program died at
  /// runtime (budget exhaustion, PC/stack violation). The engine rolls the
  /// execution's effects back and substitutes the default scheduler.
  void note_fault(FaultKind kind) {
    faulted_ = true;
    fault_kind_ = kind;
  }
  [[nodiscard]] bool faulted() const { return faulted_; }
  [[nodiscard]] FaultKind fault_kind() const { return fault_kind_; }

  /// Undoes every visible side effect of this execution, newest first:
  /// popped and dropped packets return to the exact queue positions they
  /// left (flags restored), dropped packets are un-dropped, and the
  /// deferred PUSH actions are discarded. Afterwards the context is clean
  /// for a fallback run.
  void rollback();

 private:
  TimeNs now_;
  Trigger trigger_;
  std::span<const SubflowInfo> subflows_;
  QueueBundle* queues_;
  std::int64_t* registers_;
  int num_registers_;
  EnvSignals env_;
  std::int64_t rwnd_free_bytes_;
  std::uint64_t below_edge_bytes_ = 0;
  SchedulerStats* stats_;
  Tracer* trace_;

  std::vector<PushAction> actions_;
  bool dropped_ = false;
  bool popped_ = false;
  const char* exec_backend_ = "unknown";
  std::int64_t exec_insns_ = 0;

  bool faulted_ = false;
  FaultKind fault_kind_ = FaultKind::kNone;

  /// Undo log for rollback(), in action order: every POP and DROP of this
  /// execution with the logical position the packet held in Q, QU and RQ
  /// (indexed by QueueId) just before it; -1 where it left no queue.
  struct UndoRecord {
    SkbPtr skb;
    bool drop;
    std::array<std::int64_t, 3> pos;
  };
  std::vector<UndoRecord> undo_log_;
};

/// The built-in default scheduler (MinRTT with backup semantics), callable on
/// a bare context: reinjections first on the lowest-RTT available non-backup
/// subflow that has not carried the packet, then fresh data on the lowest-RTT
/// available subflow; backup subflows only while no non-backup subflow is
/// established. Shared by sched::make_native_minrtt() and the engine's
/// scheduler-fault fallback, so both are one implementation.
void run_default_minrtt(SchedulerContext& ctx);

/// A scheduler: one execution per trigger, reading and acting through the
/// context. Implementations: native C++ schedulers (sched/native.hpp) and
/// the ProgMP program runner (runtime/program.hpp).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Executes one scheduling round.
  virtual void schedule(SchedulerContext& ctx) = 0;

  /// Human-readable identifier (for stats and bench tables).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Execution guard: false only when schedule() provably does nothing on
  /// this state — no push (not even a counted null push), pop, drop,
  /// register write, PRINT or fault — so the engine may skip it. Native
  /// schedulers keep the default: they may always act.
  [[nodiscard]] virtual bool may_act(
      std::span<const SubflowInfo> /*subflows*/,
      const QueueBundle& /*queues*/) const {
    return true;
  }
};

}  // namespace progmp::mptcp
