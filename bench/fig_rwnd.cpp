// The receive window under a lost window update.
//
// Part 1, the zero-window outage: a sender fills the receive buffer exactly
// (the final ACK advertises rwnd=0), the reverse path blacks out before the
// slow reader's first window update escapes, and more data is written.
// Every window update dies on the downed link and the receiver has no
// reason to send another one — the deadlock RFC 9293 §3.8.6.1 exists to
// prevent. The persist timer keeps probing on exponential backoff; the
// first echo after the heal reopens the window and the transfer completes
// with bounded recovery latency.
//
// Part 2, buffer pressure: goodput of a transfer over a 40 Mbit/s, 40 ms
// RTT path as recv_buf sweeps 32 KB -> 1 MB. Small buffers pin goodput at
// ~rwnd/RTT; once rwnd exceeds the bandwidth-delay product (200 KB) the
// line rate takes over.
#include <cstdio>
#include <vector>

#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "sim/simulator.hpp"

namespace progmp::bench {
namespace {

constexpr std::int64_t kBuf = 20 * 1400;  // 28 000 B receive buffer

struct OutageResult {
  std::int64_t written = 0;
  std::int64_t delivered = 0;
  std::int64_t probes = 0;
  std::int64_t rwnd = 0;
  TimeNs last_delivery{0};
  std::vector<TimeNs> probe_times;
};

OutageResult run_outage() {
  sim::Simulator sim;
  auto cfg = apps::single_path_config({});
  cfg.receiver.recv_buf_bytes = kBuf;
  cfg.receiver.app_read_bytes_per_sec = 20'000;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 16;
  mptcp::MptcpConnection conn(sim, cfg, Rng(21));
  conn.set_scheduler(load_builtin("minrtt"));

  conn.write(kBuf);
  sim.schedule_at(milliseconds(50), [&] { conn.path(0).reverse.set_down(); });
  sim.schedule_at(milliseconds(150), [&] { conn.write(kBuf); });
  sim.schedule_at(seconds(3), [&] { conn.path(0).reverse.set_up(); });
  sim.run_until(seconds(30));

  OutageResult r;
  r.written = conn.written_bytes();
  r.delivered = conn.delivered_bytes();
  r.probes = conn.zero_window_probes();
  r.rwnd = conn.rwnd_bytes();
  const auto& deliveries = conn.receiver().deliveries();
  if (!deliveries.empty()) r.last_delivery = deliveries.back().at;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kZeroWindowProbe) r.probe_times.push_back(e.at);
  }
  return r;
}

struct GoodputPoint {
  std::int64_t recv_buf = 0;
  double goodput = 0.0;  // delivered B/s over the steady-state window
};

GoodputPoint run_goodput(std::int64_t recv_buf) {
  sim::Simulator sim;
  auto cfg = apps::single_path_config({/*rate_mbps=*/40,
                                       /*one_way_delay=*/milliseconds(20)});
  cfg.receiver.recv_buf_bytes = recv_buf;
  mptcp::MptcpConnection conn(sim, cfg, Rng(7));
  conn.set_scheduler(load_builtin("minrtt"));

  conn.write(64'000'000);
  sim.run_until(seconds(2));
  const std::int64_t at_warmup = conn.delivered_bytes();
  sim.run_until(seconds(10));
  GoodputPoint p;
  p.recv_buf = recv_buf;
  p.goodput = static_cast<double>(conn.delivered_bytes() - at_warmup) / 8.0;
  return p;
}

}  // namespace
}  // namespace progmp::bench

int main() {
  using namespace progmp;
  using namespace progmp::bench;

  print_header(
      "Receive window — lost window updates and the persist timer",
      "RFC 9293 §3.8.6.1 via §4.1's failure handling: window updates die "
      "on a downed reverse link and only zero-window probing reopens the "
      "window");

  const OutageResult probed = run_outage();

  Table table({"window updates", "persist timer", "delivered/written",
               "sender rwnd at end", "probes", "last delivery"});
  table.add_row({"subflow 0 reverse link", "on",
                 std::to_string(probed.delivered) + "/" +
                     std::to_string(probed.written),
                 std::to_string(probed.rwnd) + " B",
                 std::to_string(probed.probes), probed.last_delivery.str()});
  std::printf("%s", table.str().c_str());

  std::printf("\nZero-window probe schedule (reverse path dead [50ms, 3s)):\n");
  for (std::size_t i = 0; i < probed.probe_times.size(); ++i) {
    const TimeNs gap = i == 0 ? TimeNs{0}
                              : probed.probe_times[i] - probed.probe_times[i - 1];
    std::printf("  probe %zu at %-9s gap %s\n", i + 1,
                probed.probe_times[i].str().c_str(),
                i == 0 ? "-" : gap.str().c_str());
  }

  std::printf("\nBuffer pressure: 40 Mbit/s, 40 ms RTT (BDP = 200 KB):\n");
  std::vector<GoodputPoint> curve;
  for (std::int64_t kb : {32, 64, 128, 256, 512, 1024}) {
    curve.push_back(run_goodput(kb * 1024));
    const GoodputPoint& p = curve.back();
    const double window_bound = static_cast<double>(p.recv_buf) / 0.040;
    std::printf("  recv_buf %5lld KB  goodput %6.2f MB/s  (rwnd/RTT bound %6.2f MB/s)\n",
                (long long)(p.recv_buf / 1024), mbps(p.goodput),
                mbps(window_bound));
  }

  std::printf("\nShape checks vs the model:\n");
  bool ok = true;
  ok &= check_shape(
      "zero-window probing recovers the whole transfer after the heal",
      probed.delivered == probed.written && probed.probes > 0);
  ok &= check_shape(
      "recovery latency is bounded by the probe cadence (last delivery "
      "within kPersistIntervalMax + 2 s of the heal at t=3 s)",
      probed.last_delivery > seconds(3) &&
          probed.last_delivery < seconds(3 + 2 + 2));
  bool backoff_ok = probed.probe_times.size() >= 4;
  for (std::size_t i = 2; backoff_ok && i + 1 < 4 && i + 1 < probed.probe_times.size(); ++i) {
    const double prev =
        static_cast<double>((probed.probe_times[i] - probed.probe_times[i - 1]).ns());
    const double next =
        static_cast<double>((probed.probe_times[i + 1] - probed.probe_times[i]).ns());
    backoff_ok = next > 1.5 * prev && next < 2.5 * prev;
  }
  ok &= check_shape("probe gaps back off exponentially (x2) before the cap",
                    backoff_ok);
  bool monotone = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    monotone = monotone && curve[i].goodput >= curve[i - 1].goodput * 0.95;
  }
  ok &= check_shape("goodput grows monotonically with the receive buffer",
                    monotone);
  const GoodputPoint& small = curve.front();   // 32 KB << BDP
  const GoodputPoint& large = curve.back();    // 1 MB >> BDP
  const double small_bound = static_cast<double>(small.recv_buf) / 0.040;
  ok &= check_shape(
      "a buffer far below the BDP is window-limited near rwnd/RTT "
      "(within [50%, 120%] of the bound)",
      small.goodput > 0.5 * small_bound && small.goodput < 1.2 * small_bound);
  ok &= check_shape(
      "a buffer far above the BDP reaches >= 80% of the 5 MB/s line rate",
      large.goodput >= 0.8 * 5'000'000);
  return ok ? 0 : 1;
}
