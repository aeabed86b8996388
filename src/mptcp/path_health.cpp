#include "mptcp/path_health.hpp"

#include <algorithm>

#include "core/metrics.hpp"
#include "mptcp/connection.hpp"

namespace progmp::mptcp {

PathHealthMonitor::PathHealthMonitor(sim::Simulator& sim,
                                     MptcpConnection& conn)
    : sim_(sim), conn_(conn) {}

void PathHealthMonitor::on_subflow_attached(int s) {
  if (attached(s)) return;
  PROGMP_CHECK(s == static_cast<int>(slots_.size()));
  slots_.emplace_back();
  Slot& st = slots_.back();
  st.baseline_rtt = conn_.path(s).base_rtt();
  if (conn_.subflow(s).state() == SubflowSender::State::kEstablished) {
    start_keepalive(s);
  }
}

void PathHealthMonitor::on_subflow_failed(int s) {
  if (!attached(s)) return;
  Slot& st = slot(s);
  ++st.chain;  // kill the keepalive timer
  st.keepalive_outstanding = false;
  st.keepalive_miss_streak = 0;
  start_probing(s);
}

void PathHealthMonitor::on_subflow_revived(int s) {
  if (!attached(s)) return;
  stop_probing(s);
  start_keepalive(s);
}

void PathHealthMonitor::on_subflow_closed(int s) {
  Slot& st = slot(s);
  st.probing = false;
  ++st.epoch;
  ++st.chain;
  st.keepalive_outstanding = false;
  st.keepalive_miss_streak = 0;
}

void PathHealthMonitor::on_link_restored(int s) {
  // The restore is a hint, not proof: probe right now and re-tighten the
  // exponential schedule so the required-acks proof completes in ~K RTTs.
  if (slot(s).probing) restart_schedule_now(s);
}

void PathHealthMonitor::start_probing(int s) {
  Slot& st = slot(s);
  if (st.probing) return;
  st.probing = true;
  ++st.epoch;
  ++st.chain;
  st.sane_streak = 0;
  st.interval = kProbeInterval;
  schedule_probe(s, st.interval);
}

void PathHealthMonitor::stop_probing(int s) {
  Slot& st = slot(s);
  if (!st.probing) return;
  st.probing = false;
  ++st.epoch;
  ++st.chain;
  st.sane_streak = 0;
}

void PathHealthMonitor::restart_schedule_now(int s) {
  Slot& st = slot(s);
  if (!st.probing) return;
  ++st.chain;
  st.interval = kProbeInterval;
  schedule_probe(s, TimeNs{0});
}

void PathHealthMonitor::schedule_probe(int s, TimeNs delay) {
  Slot& st = slot(s);
  const std::uint64_t chain = st.chain;
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(delay, [this, guard, s, chain] {
    if (guard.expired()) return;
    Slot& cur = slot(s);
    if (!cur.probing || cur.chain != chain) return;
    send_probe(s, /*keepalive=*/false);
    cur.interval = std::min(cur.interval * 2, kProbeIntervalMax);
    schedule_probe(s, cur.interval);
  });
}

void PathHealthMonitor::send_probe(int s, bool keepalive) {
  Slot& st = slot(s);
  ++(keepalive ? st.slot_stats.keepalives_sent : st.slot_stats.probes_sent);
  conn_.tracer().emit(TraceEventType::kProbeSent, sim_.now(), s,
                      keepalive ? 1 : 0);
  const std::uint32_t epoch = st.epoch;
  const TimeNs sent_at = sim_.now();
  std::weak_ptr<int> guard{alive_};
  conn_.path(s).forward.send(
      kProbeWireBytes, nullptr,
      [this, guard, s, epoch, sent_at, keepalive] {
        if (guard.expired()) return;
        // The far end echoes every probe immediately as a pure ACK.
        conn_.path(s).reverse.send(
            SubflowSender::kAckBytes, nullptr,
            [this, guard, s, epoch, sent_at, keepalive] {
              if (guard.expired()) return;
              on_probe_ack(s, epoch, sent_at, keepalive);
            });
      });
}

void PathHealthMonitor::on_probe_ack(int s, std::uint32_t epoch,
                                     TimeNs sent_at, bool keepalive) {
  Slot& st = slot(s);
  if (epoch != st.epoch) return;  // the slot changed state since this probe
  const TimeNs now = sim_.now();
  const TimeNs rtt = now - sent_at;
  const bool sane = rtt <= sane_rtt_ceiling(s);
  ++st.slot_stats.probe_acks;
  st.slot_stats.last_probe_rtt = rtt;
  st.last_probe_ack_at = now;
  st.keepalive_outstanding = false;
  st.keepalive_miss_streak = 0;
  conn_.tracer().emit(TraceEventType::kProbeAcked, now, s, sane ? 1 : 0,
                      rtt.ns(), keepalive ? 1 : 0);
  if (!st.probing) return;
  if (!sane) {
    // The path exists but crawls — an overloaded or half-healed path must
    // not be re-admitted on latency the scheduler would refuse to use.
    ++st.slot_stats.insane_acks;
    st.sane_streak = 0;
    return;
  }
  if (++st.sane_streak >= kProbeRequiredAcks) {
    stop_probing(s);
    conn_.revive_subflow(s);
    return;
  }
  // One sane echo in hand: collect the rest of the proof at RTT cadence
  // instead of waiting out the exponential schedule.
  restart_schedule_now(s);
}

void PathHealthMonitor::start_keepalive(int s) {
  Slot& st = slot(s);
  ++st.chain;  // cancels any pending keepalive timer, old cadence or not
  st.keepalive_outstanding = false;
  st.keepalive_miss_streak = 0;
  if (conn_.config().keepalive_idle <= TimeNs{0}) return;
  schedule_keepalive(s);
}

void PathHealthMonitor::schedule_keepalive(int s) {
  Slot& st = slot(s);
  const std::uint64_t chain = st.chain;
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(conn_.config().keepalive_idle, [this, guard, s, chain] {
    if (guard.expired()) return;
    if (slot(s).chain != chain) return;
    keepalive_tick(s);
  });
}

void PathHealthMonitor::keepalive_tick(int s) {
  Slot& st = slot(s);
  SubflowSender& sbf = conn_.subflow(s);
  if (!sbf.established()) return;  // chain bump on fail normally covers this
  const TimeNs now = sim_.now();
  const TimeNs idle_since =
      std::max(sbf.last_tx_at(), st.last_probe_ack_at);
  // Idle means nothing queued, nothing in flight and no recent activity —
  // data in flight carries its own liveness signal (ACKs / RTO), and an
  // active subflow must not pay keepalive overhead.
  const bool idle = sbf.in_flight() == 0 && sbf.queued() == 0 &&
                    now - idle_since >= conn_.config().keepalive_idle;
  if (idle) {
    if (st.keepalive_outstanding) {
      st.keepalive_outstanding = false;
      if (++st.keepalive_miss_streak >= kKeepaliveMisses) {
        // A silently-black idle path: no RTO will ever fire for it (nothing
        // is in flight), so the keepalive is the only detector. Declare the
        // death through the normal path — harvest, reinjection, scheduler
        // trigger and revival probing.
        ++st.slot_stats.keepalive_deaths;
        conn_.fail_subflow(s);
        return;  // on_subflow_failed bumped the chain; no reschedule
      }
    }
    send_probe(s, /*keepalive=*/true);
    st.keepalive_outstanding = true;
  } else {
    st.keepalive_outstanding = false;
    st.keepalive_miss_streak = 0;
  }
  schedule_keepalive(s);
}

TimeNs PathHealthMonitor::sane_rtt_ceiling(int s) const {
  const Slot& st = slots_[static_cast<std::size_t>(s)];
  const TimeNs base =
      st.baseline_rtt > TimeNs{0} ? st.baseline_rtt : conn_.path(s).base_rtt();
  return std::max(base * 4, milliseconds(200));
}

void PathHealthMonitor::refresh_metrics(MetricsRegistry& m) const {
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    const Slot& st = slots_[static_cast<std::size_t>(s)];
    const std::string p = "sbf" + std::to_string(s) + ".";
    *m.counter(p + "probes_sent") = st.slot_stats.probes_sent;
    *m.counter(p + "keepalives_sent") = st.slot_stats.keepalives_sent;
    *m.counter(p + "probe_acks") = st.slot_stats.probe_acks;
    *m.counter(p + "probe_insane_acks") = st.slot_stats.insane_acks;
    *m.counter(p + "keepalive_deaths") = st.slot_stats.keepalive_deaths;
    *m.gauge(p + "probing") = st.probing ? 1 : 0;
    *m.gauge(p + "last_probe_rtt_us") = st.slot_stats.last_probe_rtt.us();
  }
}

std::string PathHealthMonitor::proc_dump() const {
  std::string out;
  char buf[224];
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    const Slot& st = slots_[static_cast<std::size_t>(s)];
    std::snprintf(
        buf, sizeof buf,
        "path_health: sbf%d probing=%s probes=%lld keepalives=%lld "
        "acks=%lld insane=%lld keepalive_deaths=%lld last_rtt_us=%lld\n",
        s, st.probing ? "yes" : "no",
        static_cast<long long>(st.slot_stats.probes_sent),
        static_cast<long long>(st.slot_stats.keepalives_sent),
        static_cast<long long>(st.slot_stats.probe_acks),
        static_cast<long long>(st.slot_stats.insane_acks),
        static_cast<long long>(st.slot_stats.keepalive_deaths),
        static_cast<long long>(st.slot_stats.last_probe_rtt.us()));
    out += buf;
  }
  return out;
}

}  // namespace progmp::mptcp
