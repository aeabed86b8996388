#include "api/progmp_api.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "mptcp/path_health.hpp"
#include "sched/specs.hpp"

namespace progmp::api {
namespace {

/// Thin per-connection instance sharing the compiled program image — the
/// paper's cheap "instantiation" on top of a loaded scheduler.
class SchedulerInstance final : public mptcp::Scheduler {
 public:
  explicit SchedulerInstance(std::shared_ptr<rt::ProgmpProgram> program)
      : program_(std::move(program)) {}

  void schedule(mptcp::SchedulerContext& ctx) override {
    program_->schedule(ctx);
  }
  [[nodiscard]] std::string name() const override { return program_->name(); }

 private:
  std::shared_ptr<rt::ProgmpProgram> program_;
};

/// [min..max] meta_seq over `queue`; [0..0] when empty.
std::pair<std::uint64_t, std::uint64_t> seq_span(
    const mptcp::PacketQueue& queue) {
  if (queue.empty()) return {0, 0};
  std::uint64_t lo = queue.front()->meta_seq;
  std::uint64_t hi = lo;
  for (const mptcp::SkbPtr& skb : queue) {
    lo = std::min(lo, skb->meta_seq);
    hi = std::max(hi, skb->meta_seq);
  }
  return {lo, hi};
}

std::int64_t count_flow_end(const mptcp::PacketQueue& queue) {
  std::int64_t n = 0;
  for (const mptcp::SkbPtr& skb : queue) n += skb->props.flow_end ? 1 : 0;
  return n;
}

}  // namespace

bool ProgmpApi::load_scheduler(std::string_view spec, const std::string& name,
                               std::string* error) {
  rt::ProgmpProgram::LoadOptions options;
  options.backend = default_backend_;
  return load_scheduler(spec, name, options, error);
}

bool ProgmpApi::load_scheduler(std::string_view spec, const std::string& name,
                               const rt::ProgmpProgram::LoadOptions& options,
                               std::string* error) {
  DiagSink diags;
  auto program = rt::ProgmpProgram::load(spec, name, options, diags);
  if (program == nullptr) {
    if (error != nullptr) *error = diags.str();
    return false;
  }
  loaded_[name] = std::shared_ptr<rt::ProgmpProgram>(std::move(program));
  return true;
}

bool ProgmpApi::load_builtin(const std::string& name, std::string* error) {
  const auto spec = sched::specs::find_spec(name);
  if (!spec.has_value()) {
    if (error != nullptr) *error = "unknown built-in scheduler '" + name + "'";
    return false;
  }
  return load_scheduler(spec->source, name, error);
}

bool ProgmpApi::set_scheduler(mptcp::MptcpConnection& conn,
                              const std::string& name, std::string* error) {
  auto it = loaded_.find(name);
  if (it == loaded_.end()) {
    if (error != nullptr) {
      *error = "scheduler '" + name + "' has not been loaded";
    }
    return false;
  }
  conn.set_scheduler(std::make_unique<SchedulerInstance>(it->second));
  return true;
}

std::shared_ptr<rt::ProgmpProgram> ProgmpApi::find(
    const std::string& name) const {
  auto it = loaded_.find(name);
  return it == loaded_.end() ? nullptr : it->second;
}

std::string ProgmpApi::proc_stats(mptcp::MptcpConnection& conn) {
  std::string out;
  char buf[256];
  const mptcp::SchedulerStats& st = conn.scheduler_stats();
  std::snprintf(buf, sizeof buf,
                "scheduler: %s\nexecutions: %lld\npushes: %lld "
                "(redundant: %lld, null: %lld)\npops: %lld\ndrops: %lld\n",
                conn.scheduler() ? conn.scheduler()->name().c_str() : "(none)",
                static_cast<long long>(st.executions),
                static_cast<long long>(st.pushes),
                static_cast<long long>(st.redundant_pushes),
                static_cast<long long>(st.null_pushes),
                static_cast<long long>(st.pops),
                static_cast<long long>(st.drops));
  out += buf;
  std::snprintf(buf, sizeof buf, "Q: %zu  QU: %zu  RQ: %zu\n", conn.q_len(),
                conn.qu_len(), conn.rq_len());
  out += buf;
  const mptcp::PacketQueue& q = conn.sending_queue();
  const mptcp::PacketQueue& qu = conn.inflight_queue();
  const mptcp::PacketQueue& rq = conn.reinjection_queue();
  std::snprintf(buf, sizeof buf,
                "queue bytes: Q=%lld QU=%lld RQ=%lld\n",
                static_cast<long long>(q.bytes()),
                static_cast<long long>(qu.bytes()),
                static_cast<long long>(rq.bytes()));
  out += buf;
  // Walked on demand: nothing on the hot path reads these.
  const auto [q_lo, q_hi] = seq_span(q);
  const auto [qu_lo, qu_hi] = seq_span(qu);
  std::int64_t qu_sent = 0;
  for (const mptcp::SkbPtr& skb : qu) qu_sent += skb->sent_mask != 0 ? 1 : 0;
  std::snprintf(buf, sizeof buf,
                "queue seq: Q=[%llu..%llu] QU=[%llu..%llu] qu_sent=%lld "
                "flow_end=%lld\n",
                static_cast<unsigned long long>(q_lo),
                static_cast<unsigned long long>(q_hi),
                static_cast<unsigned long long>(qu_lo),
                static_cast<unsigned long long>(qu_hi),
                static_cast<long long>(qu_sent),
                static_cast<long long>(count_flow_end(q) + count_flow_end(qu) +
                                       count_flow_end(rq)));
  out += buf;
  const TimeNs now = conn.simulator().now();
  for (int slot = 0; slot < conn.subflow_count(); ++slot) {
    mptcp::SubflowSender& sbf = conn.subflow(slot);
    const mptcp::SubflowInfo info = sbf.info(now);
    const char* state = "";
    switch (sbf.state()) {
      case mptcp::SubflowSender::State::kEstablished:
        break;
      case mptcp::SubflowSender::State::kFailed:
        state = " [failed]";
        break;
      case mptcp::SubflowSender::State::kClosed:
        state = " [closed]";
        break;
    }
    std::snprintf(
        buf, sizeof buf,
        "subflow %d (%s)%s%s: rtt=%s cwnd=%lld inflight=%lld queued=%lld "
        "rate=%.0fB/s\n",
        slot, sbf.config().name.c_str(), info.is_backup ? " [backup]" : "", state,
        info.rtt.str().c_str(), static_cast<long long>(info.cwnd),
        static_cast<long long>(info.skbs_in_flight),
        static_cast<long long>(info.queued), info.delivery_rate_bps);
    out += buf;
    const mptcp::SubflowSender::Stats& ss = sbf.stats();
    if (ss.deaths > 0 || ss.revivals > 0) {
      std::snprintf(buf, sizeof buf, "  deaths=%lld revivals=%lld\n",
                    static_cast<long long>(ss.deaths),
                    static_cast<long long>(ss.revivals));
      out += buf;
    }
  }
  return out;
}

std::string ProgmpApi::proc_dump(mptcp::MptcpConnection& conn) {
  std::string out = proc_stats(conn);
  char buf[384];
  const mptcp::SchedulerStats& st = conn.scheduler_stats();
  std::snprintf(buf, sizeof buf,
                "trigger_drops: %lld\nsched_faults: %lld\nbackend: %s\n",
                static_cast<long long>(st.trigger_drops),
                static_cast<long long>(st.sched_faults),
                conn.last_exec_backend());
  out += buf;
  const mptcp::MptcpConnection::Config& cc = conn.config();
  std::snprintf(buf, sizeof buf, "resilience: rto_death_threshold=%d\n",
                cc.rto_death_threshold);
  out += buf;
  // Only rendered once the host's quarantine manager has touched this
  // connection — quarantine-off dumps stay byte-identical to the seed.
  if (conn.scheduler_quarantined() || conn.quarantine_signal() != 0) {
    std::snprintf(buf, sizeof buf, "quarantine: parked=%s signal=%lld\n",
                  conn.scheduler_quarantined() ? "yes" : "no",
                  static_cast<long long>(conn.quarantine_signal()));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "path_health: keepalive_idle=%s stall_timeout=%s\n",
                cc.keepalive_idle.str().c_str(),
                cc.stall_timeout.str().c_str());
  out += buf;
  out += conn.path_health().proc_dump();
  const mptcp::Receiver& rx = conn.receiver();
  std::snprintf(buf, sizeof buf,
                "rwnd: probes=%lld persist_armed=%s updates_routed=%lld "
                "recv_buf_drops=%lld dups_net=%lld dups_dsack=%lld "
                "buf_target=%lld buf_limit=%lld autotune=%s\n",
                static_cast<long long>(conn.zero_window_probes()),
                conn.persist_armed() ? "yes" : "no",
                static_cast<long long>(conn.wnd_updates_routed()),
                static_cast<long long>(rx.recv_buf_drops()),
                static_cast<long long>(rx.network_dup_segments()),
                static_cast<long long>(rx.dsack_dup_segments()),
                static_cast<long long>(rx.recv_buf_target()),
                static_cast<long long>(rx.recv_buf_limit()),
                rx.config().autotune ? "on" : "off");
  out += buf;
  {
    const char* state = "native";
    if (conn.fallback_state() == mptcp::FallbackState::kFallbackPending) {
      state = "pending";
    } else if (conn.fallback_state() == mptcp::FallbackState::kSinglePath) {
      state = "single_path";
    }
    std::snprintf(buf, sizeof buf,
                  "fallback: state=%s detection=%s survivor=%d fallbacks=%lld "
                  "mapping_lost=%lld csum_fails=%lld ack_tampered=%lld "
                  "rejected_joins=%lld\n",
                  state, rx.config().dss_checksum ? "on" : "off",
                  conn.fallback_survivor(),
                  static_cast<long long>(conn.fallbacks()),
                  static_cast<long long>(rx.mapping_lost_segments()),
                  static_cast<long long>(rx.csum_fail_segments()),
                  static_cast<long long>(conn.ack_tampered_acks()),
                  static_cast<long long>(conn.fallback_rejected_joins()));
    out += buf;
  }
  if (conn.stalls() > 0 || conn.stall_rescues() > 0) {
    std::snprintf(buf, sizeof buf, "watchdog: stalls=%lld rescues=%lld\n",
                  static_cast<long long>(conn.stalls()),
                  static_cast<long long>(conn.stall_rescues()));
    out += buf;
  }
  const Tracer& trace = conn.tracer();
  std::snprintf(buf, sizeof buf,
                "trace: %s emitted=%llu overwritten=%llu capacity=%zu\n",
                trace.enabled() ? "on" : "off",
                static_cast<unsigned long long>(trace.total_emitted()),
                static_cast<unsigned long long>(trace.overwritten()),
                trace.capacity());
  out += buf;
  conn.refresh_metrics();
  out += "-- metrics --\n";
  out += conn.metrics().proc_dump();
  return out;
}

void ProgmpApi::set_trace_sink(mptcp::MptcpConnection& conn,
                               Tracer::Sink sink) {
  conn.tracer().set_enabled(true);
  conn.tracer().set_sink(std::move(sink));
}

}  // namespace progmp::api
