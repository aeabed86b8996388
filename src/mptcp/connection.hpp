// The MPTCP connection: meta socket, scheduler engine and path management.
//
// Owns the three meta-level queues (Q, QU, RQ), the subflows with their
// network paths, the receiver model, the scheduler registers, and the
// trigger loop of Fig 4: every relevant event (data pushed, ACK, RTO,
// reinjection, subflow lifecycle, register writes, freed TSQ budget) runs
// the installed scheduler; executions that performed actions are repeated
// until the scheduler blocks (bounded), matching the kernel's
// push-until-blocked behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/trace.hpp"
#include "mptcp/path_health.hpp"
#include "mptcp/receiver.hpp"
#include "mptcp/scheduler.hpp"
#include "mptcp/skb.hpp"
#include "mptcp/subflow.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tcp/congestion.hpp"

namespace progmp::mptcp {

enum class CcKind { kReno, kLia, kCubic };

/// RFC 8684 §3.7-shaped fallback lifecycle (served to specs as R93).
/// Native: full multipath operation. FallbackPending: interference was
/// detected and the connection is mid-transition (abandoning subflows,
/// harvesting their in-flight data). SinglePath: pinned to the elected
/// survivor — abandoned subflows are closed for good, new subflow joins are
/// refused, and the installed spec keeps running against a one-subflow set.
enum class FallbackState : int {
  kNative = 0,
  kFallbackPending = 1,
  kSinglePath = 2,
};

class MptcpConnection {
 public:
  /// Everything needed to bring up one subflow and its network path. Two
  /// binding modes:
  ///  * `path_id` empty (default): the connection creates a private NetPath
  ///    from `forward`/`reverse` — the original single-tenant behaviour,
  ///    bit-identical at the same seed.
  ///  * `path_id` set: the subflow binds to the named shared path of
  ///    Config::network; `forward`/`reverse` are ignored and the subflow
  ///    contends with every other flow on that path's links.
  struct SubflowSpec {
    SubflowSender::Config sender;
    sim::Link::Config forward;   ///< data direction (private-path mode)
    sim::Link::Config reverse;   ///< ACK direction (private-path mode)
    std::string path_id;         ///< shared path reference (shared mode)
  };

  struct Config {
    std::vector<SubflowSpec> subflows;
    Receiver::Config receiver;
    CcKind cc = CcKind::kReno;
    /// Shared topology for subflow specs that reference a path by id.
    /// Must outlive the connection; may stay null when every spec inlines a
    /// private link pair (the single-tenant default).
    sim::Network* network = nullptr;
    /// Identity of this connection inside a multi-connection host: stamped
    /// onto every trace event and exported metric series (-1 = untagged).
    int conn_id = -1;
    /// Weight in the host receive-memory pool's fair-share and shed
    /// decisions (higher = larger share, shed later). Ignored standalone.
    int recv_priority = 1;
    /// Bound on scheduler executions per external trigger (defensive cap on
    /// the push-until-blocked loop). Generous: schedulers that compensate
    /// whole flights (§5.3) legitimately act many times per trigger.
    int max_executions_per_trigger = 512;
    /// Records every engine/subflow/receiver event into the connection
    /// tracer. Off by default: emission is a single branch per event site.
    bool trace_enabled = false;
    /// Ring capacity of the tracer (events kept; older ones overwritten).
    std::size_t trace_capacity = Tracer::kDefaultCapacity;

    // ---- Resilience ---------------------------------------------------------
    /// Consecutive RTOs (no intervening ACK progress) after which a subflow
    /// declares itself dead; the connection hands it to every subflow it
    /// creates. 0 disables death detection — the seed behaviour (a dead
    /// path backs off forever), bit-identical at the same seed. A failed
    /// subflow comes back only through the PathHealthMonitor: after
    /// PathHealthMonitor::kProbeRequiredAcks probes came back with sane RTT
    /// samples. A forward-link up-transition merely restarts the probe
    /// schedule.
    int rto_death_threshold = 0;

    // ---- Path health (PathHealthMonitor) -----------------------------------
    /// When positive, an established subflow with nothing queued or in
    /// flight is probed every `keepalive_idle`;
    /// PathHealthMonitor::kKeepaliveMisses consecutive unanswered keepalives
    /// declare it dead. Detects silent blackouts on idle paths (e.g. an
    /// unused backup), which otherwise surface only when the scheduler needs
    /// the path. 0 = off (default).
    TimeNs keepalive_idle{0};

    // ---- Connection watchdog ------------------------------------------------
    /// When positive, the connection polls for meta-level stalls: delivered
    /// bytes making no progress for `stall_timeout` while packets are
    /// outstanding (Q/QU/RQ non-empty), at least one subflow is established
    /// and the receive window is open. A stall traces `conn_stall`, bumps
    /// `conn.stalls`, force-reinjects the oldest in-flight packet into RQ
    /// (the §3.3 rescue lifted into infrastructure, for wedges a custom
    /// scheduler never resolves on its own) and re-triggers the scheduler.
    /// 0 = off (default).
    TimeNs stall_timeout{0};

    // ---- Middlebox-interference fallback (RFC 8684 §3.7) --------------------
    /// Arms the fallback state machine: receiver-side detection (DSS
    /// checksum validation + mapping-loss reporting; implies
    /// receiver.dss_checksum) and sender-side ACK-option-strip detection
    /// feed enter_fallback(), which elects a surviving subflow, abandons
    /// the rest (harvesting their in-flight data into RQ) and pins the
    /// connection to single-path operation. Off = seed behaviour: a naive
    /// stack that wedges or delivers corrupt data under interference.
    bool middlebox_fallback = false;
  };

  /// Called for every segment delivered in order to the receiving
  /// application: (meta_seq, size, delivery time).
  using DeliverFn =
      std::function<void(std::uint64_t meta_seq, std::int32_t size, TimeNs at)>;

  MptcpConnection(sim::Simulator& sim, Config cfg, Rng rng);

  // ---- Application interface (wrapped by api::ProgmpSocket) ---------------
  /// Installs the scheduler for this connection (per-connection choice,
  /// §3.2). Must be set before the first write.
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);
  [[nodiscard]] Scheduler* scheduler() { return scheduler_.get(); }

  // ---- Quarantine (host-driven spec containment) --------------------------
  /// Observer for scheduler runtime faults, called after the engine rolled
  /// the faulting execution back (and ran the fallback). A Host uses it to
  /// feed per-program fault scoring; the quarantine decision comes back via
  /// quarantine_scheduler().
  using FaultObserver = std::function<void(FaultKind, TriggerKind)>;
  void set_fault_observer(FaultObserver fn) {
    fault_observer_ = std::move(fn);
  }

  /// Demotes the installed scheduler to the built-in default: the original
  /// instance is parked (not destroyed — a shared program cache entry and
  /// its registers survive) and every trigger runs run_default_minrtt until
  /// reinstate_scheduler(). The caller (Host) owns the policy and emits the
  /// kSpecQuarantine/kSpecReinstate trace events with the scoring payload.
  /// No-op if already quarantined or no scheduler installed.
  void quarantine_scheduler();
  /// Restores the parked scheduler. No-op unless quarantined.
  void reinstate_scheduler();
  [[nodiscard]] bool scheduler_quarantined() const {
    return quarantined_original_ != nullptr;
  }
  /// Quarantine state served to specs as R94 (0 active, 1 quarantined,
  /// 2 probation); owned by the host's SpecQuarantine manager.
  void set_quarantine_signal(std::int64_t state) {
    quarantine_signal_ = state;
  }
  [[nodiscard]] std::int64_t quarantine_signal() const {
    return quarantine_signal_;
  }

  /// Pushes `bytes` of application data into the sending queue Q, split
  /// into MSS-sized packets carrying `props`. Triggers the scheduler.
  void write(std::int64_t bytes, const SkbProps& props = {});

  /// Size of the application register file (R1..R8).
  static constexpr int kNumRegisters = 8;
  /// Sets a scheduler register (application -> scheduler signalling, §3.2).
  void set_register(int idx, std::int64_t value);
  [[nodiscard]] std::int64_t get_register(int idx) const;

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  // ---- Path manager --------------------------------------------------------
  /// Establishes an additional subflow at the current time (e.g. the LTE
  /// leg of a handover). Returns its slot.
  int add_subflow(const SubflowSpec& spec);

  /// Closes/fails a subflow; its unsent and unacked packets move to RQ and
  /// the scheduler is triggered — packets must not be lost (§3.3).
  void close_subflow(int slot);

  /// Declares a subflow dead after a path failure (called automatically when
  /// the consecutive-RTO death threshold fires, or manually by tests/apps).
  /// Stranded packets move to RQ and the scheduler reschedules them on the
  /// survivors; the subflow stays revivable.
  void fail_subflow(int slot);

  /// Revives a failed subflow: fresh sequence space on both ends, slow-start
  /// restart, and a kSubflowAdded trigger so the scheduler sees it again.
  /// No-op unless the subflow is in the failed state. Called by the
  /// PathHealthMonitor once the path answered enough sane probes.
  void revive_subflow(int slot);

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// TEST ONLY: makes fail_subflow() drop the dead subflow's stranded
  /// packets instead of reinjecting them into RQ — a deliberately broken
  /// build that the invariant checker's no-stranded-packets check must
  /// catch (chaos-soak self-test). Never set outside tests.
  void set_test_drop_failed_subflow_orphans(bool on) {
    test_drop_failed_subflow_orphans_ = on;
  }

  // ---- Introspection -------------------------------------------------------
  [[nodiscard]] int subflow_count() const {
    return static_cast<int>(subflows_.size());
  }
  [[nodiscard]] SubflowSender& subflow(int slot) {
    return *subflows_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const SubflowSender& subflow(int slot) const {
    return *subflows_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] Receiver& receiver() { return *receiver_; }
  [[nodiscard]] const Receiver& receiver() const { return *receiver_; }

  // ---- Host receive-memory pool interface ----------------------------------
  /// Applies a pool grant (or reclaim/shed demotion) to the receiver's
  /// buffer cap. `shed` marks the change as a shed-policy demotion (or, with
  /// a growing grant, a restoration) and traces kMemShed accordingly.
  void set_recv_buf_grant(std::int64_t bytes, bool shed = false);
  /// Host pool pressure broadcast: records the level (0 = cleared), traces
  /// kMemPressure and fires TriggerKind::kMemPressure so the scheduler can
  /// react (e.g. a redundant spec backing off its duplicate copies).
  void signal_mem_pressure(std::int64_t level);
  /// Last broadcast pressure level — served to specs as register R91.
  [[nodiscard]] std::int64_t mem_pressure_level() const {
    return mem_pressure_level_;
  }
  [[nodiscard]] sim::NetPath& path(int slot) {
    return *paths_[static_cast<std::size_t>(slot)];
  }
  /// Identity inside a multi-connection host (-1 when standalone).
  [[nodiscard]] int conn_id() const { return cfg_.conn_id; }

  [[nodiscard]] std::int64_t delivered_bytes() const {
    return delivered_bytes_;
  }
  [[nodiscard]] std::int64_t written_bytes() const { return written_bytes_; }
  [[nodiscard]] std::size_t q_len() const { return queues_.q.size(); }
  [[nodiscard]] std::size_t qu_len() const { return queues_.qu.size(); }
  [[nodiscard]] std::size_t rq_len() const { return queues_.rq.size(); }

  // ---- Invariant-checker introspection (read-only queue views) ------------
  [[nodiscard]] const PacketQueue& sending_queue() const { return queues_.q; }
  [[nodiscard]] const PacketQueue& inflight_queue() const {
    return queues_.qu;
  }
  [[nodiscard]] const PacketQueue& reinjection_queue() const {
    return queues_.rq;
  }
  /// Written, not yet cumulatively acked packets in meta_seq order: entry i
  /// carries meta_seq meta_una() + i.
  [[nodiscard]] const std::deque<SkbPtr>& unacked() const { return unacked_; }
  [[nodiscard]] std::uint64_t meta_una() const { return meta_una_; }
  [[nodiscard]] std::uint64_t next_meta_seq() const { return next_meta_seq_; }
  /// Bytes in flight at the meta level — the QU byte aggregate, maintained
  /// incrementally by the queue layer.
  [[nodiscard]] std::int64_t qu_bytes() const { return queues_.qu.bytes(); }
  [[nodiscard]] std::int64_t rwnd_bytes() const { return rwnd_; }
  [[nodiscard]] std::uint64_t meta_una_bytes() const { return meta_una_bytes_; }
  [[nodiscard]] std::uint64_t right_edge_bytes() const {
    return right_edge_bytes_;
  }

  // ---- Receive window -----------------------------------------------------
  // App-read window updates travel as pure ACKs on the reverse link of the
  // carrier subflow (carrier_slot()), where they queue, pay serialization
  // and die in blackouts or drops like anything else on the wire. The RFC
  // 9293 §3.8.6.1 persist timer covers the loss: when the advertised window
  // cannot fit the next packet, nothing is in flight (so no RTO is armed)
  // and data is waiting, the window is probed on the carrier on an
  // exponential backoff (kPersistInterval doubling up to
  // kPersistIntervalMax). The probe's pure-ACK echo carries the live
  // window. Each blocked episode raises TriggerKind::kRwndLimited once.

  /// Zero-window probes the persist timer put on the wire.
  [[nodiscard]] std::int64_t zero_window_probes() const {
    return zero_window_probes_;
  }
  /// Window updates put on a reverse link / that survived it. Every update
  /// the receiver emits is routed onto the carrier's reverse link.
  [[nodiscard]] std::int64_t wnd_updates_routed() const {
    return receiver_->window_updates_emitted();
  }
  [[nodiscard]] std::int64_t wnd_updates_delivered() const {
    return wnd_updates_delivered_;
  }
  /// Whether the persist timer is currently armed (sender rwnd-blocked).
  [[nodiscard]] bool persist_armed() const { return persist_armed_; }
  /// Persist-probe spacing: the first probe fires kPersistInterval after
  /// arming, each later one doubles the gap up to kPersistIntervalMax.
  static constexpr TimeNs kPersistInterval = milliseconds(200);
  static constexpr TimeNs kPersistIntervalMax = seconds(2);

  // ---- Fallback introspection ---------------------------------------------
  [[nodiscard]] FallbackState fallback_state() const { return fallback_state_; }
  /// Slot of the elected surviving subflow (-1 before any fallback).
  [[nodiscard]] int fallback_survivor() const { return fallback_survivor_; }
  /// Completed Native -> SinglePath transitions (0 or 1 per connection).
  [[nodiscard]] std::int64_t fallbacks() const { return fallbacks_; }
  /// Stripped-option pure ACKs the sender side detected.
  [[nodiscard]] std::int64_t ack_tampered_acks() const {
    return ack_tampered_acks_;
  }
  /// add_subflow() calls refused because the connection is pinned to
  /// single-path operation.
  [[nodiscard]] std::int64_t fallback_rejected_joins() const {
    return fallback_rejected_joins_;
  }

  // ---- Path health / watchdog introspection -------------------------------
  [[nodiscard]] const PathHealthMonitor& path_health() const {
    return health_;
  }
  /// Meta-level stalls the watchdog declared / packets it force-reinjected.
  [[nodiscard]] std::int64_t stalls() const { return stalls_; }
  [[nodiscard]] std::int64_t stall_rescues() const { return stall_rescues_; }
  [[nodiscard]] const SchedulerStats& scheduler_stats() const {
    return sched_stats_;
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Connection-wide event tracer (see core/trace.hpp). Enable via
  /// Config::trace_enabled or tracer().set_enabled(true).
  [[nodiscard]] Tracer& tracer() { return trace_; }
  [[nodiscard]] const Tracer& tracer() const { return trace_; }

  /// Per-connection metrics registry. Counters mirroring SchedulerStats and
  /// per-subflow state are refreshed by refresh_metrics(); the engine keeps
  /// the execution histograms up to date live.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// Syncs the registry's counters/gauges with the authoritative stats
  /// (SchedulerStats, subflow stats, queue depths) — called before a dump.
  void refresh_metrics();

  /// Execution environment that ran the most recent scheduler execution
  /// ("ebpf", "native", ...), for the proc dump.
  [[nodiscard]] const char* last_exec_backend() const {
    return last_exec_backend_;
  }

  /// Sum of payload bytes sent on the wire across subflows (incl.
  /// retransmissions and redundant copies) — the transmission-overhead
  /// metric of §5.1/§5.3.
  [[nodiscard]] std::int64_t wire_bytes_sent() const;

  /// Fires the scheduler manually (used by tests and the playground).
  void trigger(Trigger t);

 private:
  int create_subflow(const SubflowSpec& spec);
  void schedule_watchdog_poll();
  void watchdog_poll();
  /// Up/down observer for the forward (data) link of `slot`: an
  /// up-transition restarts the slot's revival probe schedule.
  void on_path_state(int slot, bool up);
  std::unique_ptr<tcp::CongestionControl> make_cc();
  void reinject_orphans(const std::vector<SkbPtr>& orphans);
  void run_engine();
  bool run_scheduler_once(Trigger t);
  void apply_actions(const SchedulerContext& ctx);
  void handle_meta_ack(std::uint64_t meta_ack, std::int64_t rwnd,
                       std::int64_t wnd_stamp);
  void handle_loss_suspected(int slot, const SkbPtr& skb);
  void detach_everywhere(const SkbPtr& skb);
  /// The subflow that carries window updates and persist probes: the first
  /// established one, else slot 0.
  [[nodiscard]] int carrier_slot() const;
  /// Sends an app-read window update to the sender side as a pure ACK on
  /// the carrier's reverse link.
  void deliver_window_update(std::int64_t wnd_stamp, std::int64_t rwnd);
  void apply_window_update(std::int64_t wnd_stamp, std::int64_t rwnd);
  /// RFC 9293 §3.10.7.4 (WL1/WL2) staleness guard, keyed on the receiver's
  /// emission-order stamp: only a strictly newer advertisement may change
  /// the window view. Ordering by cumulative ack alone is not enough — on
  /// asymmetric paths a slow subflow's ACK arrives with a fresher meta_ack
  /// but an older window snapshot than the window updates it raced,
  /// and letting it win wedges the sender on a long-reopened window.
  void apply_window(std::int64_t wnd_stamp, std::int64_t rwnd);
  /// Receiver reported an unusable data-level mapping (stripped DSS option
  /// or checksum failure): requeue the skb — the subflow level ACKed the
  /// bytes, so nothing else will retransmit them — then fall back.
  void on_mapping_failure(int slot, std::uint64_t meta_seq,
                          MappingFailure cause);
  /// The RFC 8684 §3.7 transition: elect a survivor (prefer a non-tampered,
  /// non-backup, lowest-srtt established subflow), abandon everything else
  /// and pin the connection to single-path operation. No-op unless
  /// Config::middlebox_fallback is on and the state is still Native.
  void enter_fallback(int bad_slot, MappingFailure cause);
  /// close()-style teardown used by the fallback transition: harvest +
  /// sent-mask clearing (like fail_subflow — whatever was on the abandoned
  /// wire is as good as gone) + RQ reinjection, persist-chain cancellation
  /// and a kSubflowClosed trigger. The subflow ends up kClosed: not
  /// revivable, per the single-path pin.
  void abandon_subflow(int slot);
  /// Cancels an armed zero-window persist-probe chain (epoch bump). Called
  /// whenever a subflow ceases to exist (close/fail/abandon) so no probe
  /// rides a dead subflow; maybe_arm_persist() re-arms a fresh chain on a
  /// surviving subflow at the next engine-drain boundary if still blocked.
  void cancel_persist_chain();
  /// True when data is waiting, nothing is in flight anywhere, and the
  /// advertised window cannot fit the next packet — the persist condition.
  [[nodiscard]] bool rwnd_blocked() const;
  /// Arms or cancels the persist timer to match rwnd_blocked(); called at
  /// every engine-drain boundary.
  void maybe_arm_persist();
  void schedule_persist_probe(std::uint64_t epoch);
  void send_zero_window_probe(int slot);

  sim::Simulator& sim_;
  Config cfg_;
  Rng rng_;

  std::unique_ptr<Receiver> receiver_;
  /// Per-slot path binding. Shared paths are owned by Config::network;
  /// private ones live in owned_paths_. Either way the pointer is stable for
  /// the connection's lifetime.
  std::vector<sim::NetPath*> paths_;
  std::vector<std::unique_ptr<sim::NetPath>> owned_paths_;
  std::vector<std::unique_ptr<SubflowSender>> subflows_;
  std::shared_ptr<tcp::LiaCoupling> lia_group_;
  /// Revival prober and idle-keepalive engine. Idle unless a subflow fails
  /// or Config::keepalive_idle is set: it schedules no event before then.
  PathHealthMonitor health_{sim_, *this};

  // ---- Watchdog state -----------------------------------------------------
  std::int64_t wd_last_delivered_ = 0;
  TimeNs wd_last_progress_at_{0};
  std::int64_t stalls_ = 0;
  std::int64_t stall_rescues_ = 0;

  /// TEST ONLY — see set_test_drop_failed_subflow_orphans().
  bool test_drop_failed_subflow_orphans_ = false;

  // ---- Persist (zero-window probe) state ----------------------------------
  bool persist_armed_ = false;
  int persist_backoff_ = 1;  ///< interval multiplier; doubles per probe
  /// Bumped to cancel a pending probe chain (window opened, carrier gone).
  std::uint64_t persist_epoch_ = 0;
  std::int64_t zero_window_probes_ = 0;
  std::int64_t wnd_updates_delivered_ = 0;

  /// Last host pool pressure broadcast (0 = no pressure); see
  /// signal_mem_pressure().
  std::int64_t mem_pressure_level_ = 0;

  // ---- Fallback state -----------------------------------------------------
  FallbackState fallback_state_ = FallbackState::kNative;
  int fallback_survivor_ = -1;
  std::int64_t fallbacks_ = 0;
  std::int64_t ack_tampered_acks_ = 0;
  std::int64_t fallback_rejected_joins_ = 0;

  std::unique_ptr<Scheduler> scheduler_;
  SchedulerStats sched_stats_;
  /// Per-FaultKind runtime-fault counts (index = FaultKind value).
  std::array<std::int64_t, 6> fault_counts_{};
  FaultObserver fault_observer_;
  /// Parked original while the default scheduler stands in (quarantine).
  std::unique_ptr<Scheduler> quarantined_original_;
  std::int64_t quarantine_signal_ = 0;  ///< served to specs as R94

  Tracer trace_;
  MetricsRegistry metrics_;
  /// Live execution histograms (stable pointers into metrics_).
  MetricHistogram* hist_insns_per_exec_ = nullptr;
  MetricHistogram* hist_execs_per_trigger_ = nullptr;
  MetricHistogram* hist_pushes_per_exec_ = nullptr;
  const char* last_exec_backend_ = "none";

  /// The three meta-level queues (Q, QU, RQ) as PacketQueues;
  /// the bundle is the single QueueId -> queue mapping shared with the
  /// scheduler context.
  QueueBundle queues_;
  /// Seq-indexed ring over [meta_una_, next_meta_seq_): write() assigns
  /// meta_seqs densely and appends, the cumulative meta ACK pops the front.
  std::deque<SkbPtr> unacked_;

  std::array<std::int64_t, kNumRegisters> registers_{};

  /// Per-execution scratch, reused across scheduler runs so the hot trigger
  /// path performs no allocations: the subflow snapshot vector and the
  /// long-lived scheduler context (reset() re-arms it per execution).
  std::vector<SubflowInfo> infos_;
  std::optional<SchedulerContext> sched_ctx_;

  std::uint64_t next_meta_seq_ = 0;
  std::uint64_t next_byte_offset_ = 0;
  std::uint64_t meta_una_ = 0;        ///< cumulative data-level ACK
  std::uint64_t meta_una_bytes_ = 0;  ///< byte offset of the data-level ACK
  std::uint64_t right_edge_bytes_ = 0;  ///< highest transmitted byte + 1
  std::int64_t rwnd_ = 0;             ///< last advertised receive window
  std::int64_t wnd_stamp_ = 0;        ///< emission stamp rwnd_ came from
  std::int64_t written_bytes_ = 0;
  std::int64_t delivered_bytes_ = 0;

  DeliverFn on_deliver_;

  bool in_engine_ = false;
  std::deque<Trigger> pending_;

  /// Lifetime token for simulator events scheduled by the connection.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace progmp::mptcp
