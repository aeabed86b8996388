// Measurement rig of the repo benchmark: host clocks and memory, an exact
// log-linear latency histogram, the span recorder of the traced run, the
// timing Scheduler decorator and the closed-loop flow source.
//
// Everything here sits outside the simulator and reaches it only through
// public calls: Simulator::set_post_event_hook for per-event spans, a
// mptcp::Scheduler decorator installed with set_scheduler for per-execution
// spans, and MptcpConnection::write/set_on_deliver for the flow source. The
// program's own tracer and metrics registry stay off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/scheduler.hpp"
#include "sim/simulator.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

using progmp::TimeNs;

/// Host monotonic clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cheap host timestamp for the per-event and per-execution spans of the
/// traced run: the TSC where there is one (half the cost of a steady_clock
/// read on a VM), converted to ns by SpanLog's calibration against
/// steady_clock over the run.
inline std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(now_ns());
#endif
}

/// Current resident set size of this process, in KB.
std::int64_t rss_kb();
/// Peak resident set size of this process, in KB.
std::int64_t peak_rss_kb();

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double p);

/// Exact-count histogram of non-negative integers with log-linear buckets
/// (32 per power of two, so a reported percentile is within ~3 % of the
/// true sample). Millions of samples cost a fixed 10 KB.
class Histogram {
 public:
  void add(std::int64_t v);
  [[nodiscard]] std::int64_t max() const { return max_; }
  /// Representative value of the bucket holding the p-th percentile.
  [[nodiscard]] double percentile(double p) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kOctaves = 42;
  static int bucket(std::int64_t v);
  static double bucket_mid(int b);

  std::array<std::int64_t, kSub * kOctaves> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t max_ = 0;
};

/// Scheduler execution environments, as reported per backend.
enum Backend : int { kInterpreter = 0, kCompiled, kEbpf, kNative, kBackends };
const char* backend_label(int b);

/// One recorded span. Event spans carry their event index in `event`; a
/// scheduler-execution span carries the index of the event that caused it
/// in `parent` and the connection id in `conn`. Setup spans have neither.
/// Setup spans are in ns; run spans are in ticks() until written out.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t event = -1;
  std::int64_t parent = -1;
  int conn = -1;
};

/// Span recorder and exact per-layer totals.
///
/// Setup spans (one per public setup call) are always kept: there are a few
/// thousand. Run spans exist only in a traced run: every executed event is
/// one span (from the previous post-event hook, or the start of the
/// run_until slice, to its own hook) and every scheduler execution is a
/// child span of the event in progress. Run spans go to a bounded buffer
/// that keeps every `stride`-th event with its children and doubles the
/// stride when full; the totals below count every span exactly. Run-span
/// times are taken in ticks() and reported in ns.
class SpanLog {
 public:
  static constexpr std::size_t kRunSpanCapacity = 1 << 16;

  explicit SpanLog(bool traced);

  [[nodiscard]] bool traced() const { return traced_; }

  /// Times one public setup call and records it as a span.
  template <class F>
  decltype(auto) setup(const char* name, int conn, F&& f) {
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      std::forward<F>(f)();
      setup_.push_back({name, t0, now_ns(), -1, -1, conn});
    } else {
      decltype(auto) r = std::forward<F>(f)();
      setup_.push_back({name, t0, now_ns(), -1, -1, conn});
      return r;
    }
  }
  /// Durations (ns) of every setup span named `name`.
  [[nodiscard]] std::vector<double> setup_ns(const char* name) const;

  /// Installs the post-event hook (traced runs only) and starts the
  /// tick calibration.
  void attach(progmp::sim::Simulator& sim);
  /// Ends the tick calibration; call once the run is over.
  void finish();
  /// Marks the start of a run_until slice: the next event's span starts
  /// here rather than at the previous hook.
  void begin_slice() { mark_ = ticks(); }
  void on_exec(int backend, int conn, std::uint64_t t0, std::uint64_t t1,
               std::int64_t insns, bool useful, bool faulted);

  struct BackendTotals {
    std::int64_t execs = 0;
    std::int64_t ticks = 0;
    std::int64_t insns = 0;
    std::int64_t useful = 0;
    std::int64_t faults = 0;
    Histogram exec_ticks;
  };
  [[nodiscard]] const BackendTotals& backend(int b) const {
    return backends_[static_cast<std::size_t>(b)];
  }
  /// Converts a tick count (or a tick percentile) to ns.
  [[nodiscard]] double ns(double t) const { return t * ns_per_tick_; }
  [[nodiscard]] std::int64_t events() const { return events_; }
  [[nodiscard]] std::int64_t event_ticks_total() const { return event_ticks_; }
  [[nodiscard]] const Histogram& event_ticks() const { return event_hist_; }
  [[nodiscard]] std::int64_t run_spans_kept() const {
    return static_cast<std::int64_t>(run_.size());
  }
  [[nodiscard]] std::int64_t stride() const { return stride_; }

  /// Writes every kept span as one JSON object per line; start times are
  /// relative to `origin_ns`. Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path, std::int64_t origin_ns) const;

 private:
  void on_event();
  void keep(const Span& s);

  bool traced_;
  std::vector<Span> setup_;
  std::vector<Span> run_;
  std::int64_t stride_ = 1;  ///< a power of two
  std::uint64_t mark_ = 0;
  std::int64_t events_ = 0;
  std::int64_t event_ticks_ = 0;
  std::uint64_t calib_ticks_ = 0;
  std::int64_t calib_ns_ = 0;
  double ns_per_tick_ = 1.0;
  Histogram event_hist_;
  std::array<BackendTotals, kBackends> backends_{};
};

/// Scheduler decorator of the traced run: forwards every execution to the
/// wrapped scheduler (the shared program ProgmpApi::find returns, or a
/// native scheduler) and records it as a span. It reads the context only
/// after the wrapped execution returns, so the simulation is unchanged.
class TimedScheduler final : public progmp::mptcp::Scheduler {
 public:
  TimedScheduler(std::shared_ptr<progmp::mptcp::Scheduler> inner, int backend,
                 int conn, SpanLog& log)
      : inner_(std::move(inner)), backend_(backend), conn_(conn), log_(log) {}

  void schedule(progmp::mptcp::SchedulerContext& ctx) override {
    const std::uint64_t t0 = ticks();
    inner_->schedule(ctx);
    const std::uint64_t t1 = ticks();
    log_.on_exec(backend_, conn_, t0, t1, ctx.exec_insns(),
                 ctx.performed_action() && !ctx.faulted(), ctx.faulted());
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<progmp::mptcp::Scheduler> inner_;
  int backend_;
  int conn_;
  SpanLog& log_;
};

/// Closed-loop application: back-to-back flows on one connection, each of a
/// size drawn uniformly from [min_bytes, max_bytes], separated by
/// exponentially distributed think gaps. Data is written in 64 KB chunks
/// while Q holds fewer than 128 packets, like apps::BulkSource. A flow
/// completes when its last byte is delivered in order; its completion time
/// runs from the moment the flow was due.
class FlowSource {
 public:
  struct Options {
    std::int64_t min_bytes = 64 * 1024;
    std::int64_t max_bytes = 64 * 1024;
    TimeNs mean_gap{0};
    int max_flows = 1;
    /// Raise R2 with a flow's last write, clear it at the next flow's
    /// start (the end-of-flow signal of the compensating specs).
    bool signal_flow_end = false;
  };

  FlowSource(progmp::sim::Simulator& sim, progmp::mptcp::MptcpConnection& conn,
             progmp::Rng rng, Options opts);
  FlowSource(const FlowSource&) = delete;
  FlowSource& operator=(const FlowSource&) = delete;

  /// Arms the first flow at absolute simulated time `at`.
  void start_at(TimeNs at);

  /// Completion times of finished flows, in ms.
  [[nodiscard]] const std::vector<double>& fct_ms() const { return fct_ms_; }
  /// Whether a flow is in progress, and since when.
  [[nodiscard]] bool in_flow() const { return in_flow_; }
  [[nodiscard]] TimeNs flow_started() const { return flow_started_; }

 private:
  void start_flow();
  void top_up();
  void on_delivered(std::int32_t size);

  progmp::sim::Simulator& sim_;
  progmp::mptcp::MptcpConnection& conn_;
  progmp::Rng rng_;
  Options opts_;
  int flows_started_ = 0;
  bool in_flow_ = false;
  TimeNs flow_started_{0};
  std::int64_t to_write_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t target_ = 0;
  std::vector<double> fct_ms_;
};

}  // namespace perfbench
