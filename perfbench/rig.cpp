#include "rig.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t rss_kb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE) / 1024;
}

std::int64_t peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KB on Linux
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

// ---- Histogram --------------------------------------------------------------

int Histogram::bucket(std::int64_t v) {
  if (v < kSub) return static_cast<int>(std::max<std::int64_t>(v, 0));
  const int top = std::bit_width(static_cast<std::uint64_t>(v)) - 1;  // >= 5
  const int shift = top - 5;
  const int sub = static_cast<int>((v >> shift) & (kSub - 1));
  return std::min((shift + 1) * kSub + sub, kSub * kOctaves - 1);
}

double Histogram::bucket_mid(int b) {
  if (b < kSub) return b;
  const int shift = b / kSub - 1;
  const std::int64_t lo = (std::int64_t{kSub} + b % kSub) << shift;
  return static_cast<double>(lo) + static_cast<double>(std::int64_t{1} << shift) / 2.0;
}

void Histogram::add(std::int64_t v) {
  ++buckets_[static_cast<std::size_t>(bucket(v))];
  ++count_;
  max_ = std::max(max_, v);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return std::min(bucket_mid(static_cast<int>(b)), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

const char* backend_label(int b) {
  static constexpr const char* kNames[] = {"interpreter", "compiled", "ebpf",
                                           "native"};
  return kNames[b];
}

// ---- SpanLog ----------------------------------------------------------------

SpanLog::SpanLog(bool traced) : traced_(traced) {
  if (traced_) run_.reserve(kRunSpanCapacity);
}

std::vector<double> SpanLog::setup_ns(const char* name) const {
  std::vector<double> out;
  for (const Span& s : setup_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

void SpanLog::attach(progmp::sim::Simulator& sim) {
  if (!traced_) return;
  calib_ticks_ = ticks();
  calib_ns_ = now_ns();
  sim.set_post_event_hook([this] { on_event(); });
}

void SpanLog::finish() {
  if (!traced_) return;
  const std::uint64_t dt = ticks() - calib_ticks_;
  if (dt > 0) ns_per_tick_ = static_cast<double>(now_ns() - calib_ns_) / static_cast<double>(dt);
}

void SpanLog::on_event() {
  const std::uint64_t t = ticks();
  const auto d = static_cast<std::int64_t>(t - mark_);
  event_ticks_ += d;
  event_hist_.add(d);
  if ((events_ & (stride_ - 1)) == 0) {
    keep({"sim.event", static_cast<std::int64_t>(mark_), static_cast<std::int64_t>(t),
          events_, -1, -1});
  }
  ++events_;
  mark_ = t;
}

void SpanLog::on_exec(int backend, int conn, std::uint64_t t0, std::uint64_t t1,
                      std::int64_t insns, bool useful, bool faulted) {
  BackendTotals& b = backends_[static_cast<std::size_t>(backend)];
  const auto d = static_cast<std::int64_t>(t1 - t0);
  ++b.execs;
  b.ticks += d;
  b.insns += insns;
  b.useful += useful ? 1 : 0;
  b.faults += faulted ? 1 : 0;
  b.exec_ticks.add(d);
  // The event in progress is the next one the hook will count.
  if ((events_ & (stride_ - 1)) == 0) {
    static constexpr const char* kNames[] = {
        "runtime.exec.interpreter", "runtime.exec.compiled",
        "runtime.exec.ebpf", "runtime.exec.native"};
    keep({kNames[backend], static_cast<std::int64_t>(t0),
          static_cast<std::int64_t>(t1), -1, events_, conn});
  }
}

void SpanLog::keep(const Span& s) {
  if (run_.size() == kRunSpanCapacity) {
    stride_ *= 2;
    std::erase_if(run_, [this](const Span& k) {
      return ((k.event >= 0 ? k.event : k.parent) & (stride_ - 1)) != 0;
    });
    const std::int64_t ev = s.event >= 0 ? s.event : s.parent;
    if ((ev & (stride_ - 1)) != 0) return;
  }
  run_.push_back(s);
}

bool SpanLog::write_jsonl(const std::string& path,
                          std::int64_t origin_ns) const {
  std::ofstream out(path);
  if (!out) return false;
  // Run spans are in ticks: map them onto the steady clock.
  auto to_ns = [&](std::int64_t t) {
    return calib_ns_ + static_cast<std::int64_t>(
                           ns(static_cast<double>(t - static_cast<std::int64_t>(calib_ticks_))));
  };
  auto write = [&](const Span& s) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns - origin_ns << ",\"dur_ns\":" << s.end_ns - s.start_ns;
    if (s.event >= 0) out << ",\"event\":" << s.event;
    if (s.parent >= 0) out << ",\"parent\":" << s.parent;
    if (s.conn >= 0) out << ",\"conn\":" << s.conn;
    out << "}\n";
  };
  for (const Span& s : setup_) write(s);
  for (Span s : run_) {
    s.start_ns = to_ns(s.start_ns);
    s.end_ns = to_ns(s.end_ns);
    write(s);
  }
  return static_cast<bool>(out);
}

// ---- FlowSource -------------------------------------------------------------

FlowSource::FlowSource(progmp::sim::Simulator& sim,
                       progmp::mptcp::MptcpConnection& conn, progmp::Rng rng,
                       Options opts)
    : sim_(sim), conn_(conn), rng_(rng), opts_(opts) {}

void FlowSource::start_at(TimeNs at) {
  conn_.set_on_deliver([this](std::uint64_t, std::int32_t size, TimeNs) {
    on_delivered(size);
  });
  sim_.schedule_at(at, [this] { start_flow(); });
}

void FlowSource::start_flow() {
  ++flows_started_;
  in_flow_ = true;
  flow_started_ = sim_.now();
  to_write_ = opts_.min_bytes +
              static_cast<std::int64_t>(rng_.next_below(
                  static_cast<std::uint64_t>(opts_.max_bytes - opts_.min_bytes) + 1));
  target_ = delivered_ + to_write_;
  if (opts_.signal_flow_end) conn_.set_register(1, 0);
  top_up();
}

void FlowSource::top_up() {
  constexpr std::int64_t kChunk = 64 * 1024;
  constexpr std::size_t kMaxQueuePackets = 128;
  while (to_write_ > 0 && conn_.q_len() < kMaxQueuePackets) {
    const std::int64_t chunk = std::min(kChunk, to_write_);
    to_write_ -= chunk;
    conn_.write(chunk);
    if (to_write_ == 0 && opts_.signal_flow_end) conn_.set_register(1, 1);
  }
}

void FlowSource::on_delivered(std::int32_t size) {
  delivered_ += size;
  top_up();
  if (!in_flow_ || delivered_ < target_) return;
  in_flow_ = false;
  fct_ms_.push_back(static_cast<double>((sim_.now() - flow_started_).ns()) / 1e6);
  if (flows_started_ >= opts_.max_flows) return;
  const double u = rng_.next_double();
  const auto gap = static_cast<std::int64_t>(
      -std::log1p(-u) * static_cast<double>(opts_.mean_gap.ns()));
  sim_.schedule_after(TimeNs{gap}, [this] { start_flow(); });
}

}  // namespace perfbench
