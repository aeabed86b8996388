#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/diag.hpp"
#include "lang/analyzer.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "mptcp/skb_pool.hpp"
#include "rig.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"
#include "runtime/program.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using progmp::milliseconds;
using progmp::Rng;
using progmp::seconds;
namespace api = progmp::api;
namespace apps = progmp::apps;
namespace mptcp = progmp::mptcp;
namespace rt = progmp::rt;
namespace sim = progmp::sim;

/// Queue depths, heap depth and the failure verdicts are read at this many
/// evenly spaced slices of run_until.
constexpr int kSlices = 100;

int backend_of(rt::Backend b) {
  switch (b) {
    case rt::Backend::kInterpreter:
      return kInterpreter;
    case rt::Backend::kCompiled:
      return kCompiled;
    case rt::Backend::kEbpf:
      return kEbpf;
  }
  return kEbpf;
}

/// One attempted connection.
struct ConnSlot {
  mptcp::MptcpConnection* conn = nullptr;  ///< null when refused
  TimeNs start{0};
  FlowSource* flows = nullptr;  ///< the connection's flow source, if any
  bool judged = false;
  bool failed = false;
};

/// Everything one repetition owns. Member order is destruction order in
/// reverse: applications go first, then connections, then the simulator.
struct Bench {
  explicit Bench(const Params& p) : params(p), log(p.traced) {}

  const Params& params;
  SpanLog log;
  sim::Simulator sim;
  api::ProgmpApi api;
  std::unique_ptr<api::Host> host;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> own_conns;
  std::vector<ConnSlot> conns;
  std::vector<std::unique_ptr<FlowSource>> flows;
  std::vector<std::unique_ptr<apps::BulkSource>> bulks;
  std::vector<std::unique_ptr<apps::CbrSource>> cbrs;

  TimeNs horizon{0};
  /// A connection that has delivered nothing this long after its start has
  /// failed.
  TimeNs grace = seconds(3);

  std::int64_t rss_before_open_kb = 0;
  std::int64_t rss_after_open_kb = 0;
  /// Loaded program names per backend (for specialisation counts).
  std::vector<std::string> loaded;
  /// Load-pipeline stage totals (ns), traced runs only.
  std::map<std::string, std::int64_t> stage_ns;

  // Peaks read at the slices.
  std::size_t q_peak = 0, qu_peak = 0, rq_peak = 0, heap_peak = 0,
              pending_peak = 0;
  std::int64_t ooo_peak = 0;
  std::int64_t heap_sum = 0, stale_sum = 0;
};

// ---- Set-up helpers -----------------------------------------------------------

/// Times each load-pipeline stage of `source` as a separate call (the same
/// calls, in the same order, that rt::ProgmpProgram::load makes).
void time_load_pipeline(Bench& b, std::string_view source) {
  auto stage = [&](const char* name, auto&& f) {
    const std::int64_t t0 = now_ns();
    decltype(auto) r = f();
    b.stage_ns[name] += now_ns() - t0;
    return r;
  };
  progmp::DiagSink diags;
  stage("lang.lex_us", [&] { return progmp::lang::lex(source, diags); });
  progmp::lang::Program ast = stage(
      "lang.parse_us", [&] { return progmp::lang::parse(source, "split", diags); });
  stage("lang.analyze_us", [&] { return progmp::lang::analyze(ast, diags); });
  rt::IrProgram ir = stage("runtime.lower_us", [&] { return rt::lower(ast); });
  ir = stage("runtime.optimize_us", [&] { return rt::optimize(std::move(ir)); });
  rt::ebpf::CompileResult compiled =
      stage("runtime.ebpf_compile_us", [&] { return rt::ebpf::compile(ir); });
  rt::ebpf::VerifyOptions vopts =
      rt::ProgmpProgram::LoadOptions{}.verify;
  vopts.absint_options.exec_budget = rt::ProgmpProgram::LoadOptions{}.exec_budget;
  stage("runtime.verify_us",
        [&] { return rt::ebpf::verify(compiled.code, vopts); });
}

/// Loads built-in `spec` for `backend` under "<spec>/<backend>".
std::string load(Bench& b, const std::string& spec, rt::Backend backend) {
  const std::string name = spec + "/" + rt::backend_name(backend);
  static constexpr const char* kSpans[] = {"api.load.interpreter",
                                           "api.load.compiled", "api.load.ebpf"};
  const auto found = progmp::sched::specs::find_spec(spec);
  PROGMP_CHECK(found.has_value());
  rt::ProgmpProgram::LoadOptions opts;
  opts.backend = backend;
  std::string error;
  const bool ok = b.log.setup(kSpans[backend_of(backend)], -1, [&] {
    return b.api.load_scheduler(found->source, name, opts, &error);
  });
  if (!ok) {
    std::fprintf(stderr, "load %s: %s\n", name.c_str(), error.c_str());
    std::exit(3);
  }
  b.loaded.push_back(name);
  return name;
}

/// Opens one connection on the host and, in a traced run, wraps its
/// scheduler in the timing decorator.
ConnSlot& open(Bench& b, mptcp::MptcpConnection::Config cfg,
               const std::string& sched, int backend, TimeNs start,
               const Rng* rng = nullptr) {
  std::string error;
  mptcp::MptcpConnection* conn = b.log.setup("api.open_connection", -1, [&] {
    return rng != nullptr ? b.host->open_connection(std::move(cfg), sched, *rng,
                                                    &error)
                          : b.host->open_connection(std::move(cfg), sched, &error);
  });
  ConnSlot slot;
  slot.conn = conn;
  slot.start = start;
  if (conn == nullptr) {
    slot.judged = true;
    slot.failed = true;
  } else if (b.log.traced()) {
    conn->set_scheduler(std::make_unique<TimedScheduler>(
        b.api.find(sched), backend, conn->conn_id(), b.log));
  }
  b.conns.push_back(slot);
  return b.conns.back();
}

void add_flows(Bench& b, ConnSlot& slot, Rng rng, FlowSource::Options opts) {
  b.flows.push_back(
      std::make_unique<FlowSource>(b.sim, *slot.conn, rng, opts));
  FlowSource& d = *b.flows.back();
  slot.flows = &d;
  b.log.setup("apps.arm", slot.conn->conn_id(), [&] { d.start_at(slot.start); });
}

sim::Link::Config link(std::int64_t mbps, TimeNs one_way,
                       std::int64_t queue_kb) {
  sim::Link::Config cfg;
  cfg.rate_bps = mbps * 1'000'000;
  cfg.delay = one_way;
  cfg.queue_limit_bytes = queue_kb * 1024;
  return cfg;
}

/// `n` arrival times: the order statistics of n uniform draws on
/// [0, window), i.e. a Poisson process conditioned on n arrivals.
std::vector<TimeNs> arrivals(Rng& rng, int n, TimeNs window) {
  std::vector<TimeNs> at(static_cast<std::size_t>(n));
  for (TimeNs& t : at) {
    t = TimeNs{static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(window.ns())))};
  }
  std::sort(at.begin(), at.end());
  return at;
}

// ---- fleet_bulk ---------------------------------------------------------------
//
// Users behind small shared cells: a seeded permutation puts kUsersPerCell
// users in each cell, and the users of a cell share its WiFi AP path and its
// LTE cell path, so total capacity grows with the user count. Each user
// downloads one kObjectBytes object with minrtt on the eBPF backend,
// starting at a seeded open-loop arrival time. The LTE subflow is a backup,
// as in apps::fleet_user_config.

constexpr int kFleetUsers = 256;
constexpr int kUsersPerCell = 8;
constexpr std::int64_t kObjectBytes = 1024 * 1024;

void setup_fleet_bulk(Bench& b) {
  const int users = b.params.users > 0 ? b.params.users : kFleetUsers;
  const int cells = (users + kUsersPerCell - 1) / kUsersPerCell;
  const TimeNs window = seconds(1);
  b.horizon = seconds(8);

  const std::string sched = load(b, "minrtt", rt::Backend::kEbpf);
  b.host = std::make_unique<api::Host>(b.sim, b.api, Rng(b.params.seed));
  for (int c = 0; c < cells; ++c) {
    const std::string ap = "ap" + std::to_string(c);
    const std::string cell = "cell" + std::to_string(c);
    b.log.setup("sim.add_path", -1, [&] {
      b.host->network().add_path(ap, link(kUsersPerCell * 6, milliseconds(5), 128),
                                 link(1000, milliseconds(5), 1024));
      b.host->network().add_path(cell,
                                 link(kUsersPerCell * 12, milliseconds(20), 512),
                                 link(1000, milliseconds(20), 1024));
    });
  }

  Rng rng(b.params.seed ^ 0xF1EE7B01u);
  const std::vector<TimeNs> start = arrivals(rng, users, window);
  // A seeded permutation puts exactly kUsersPerCell users in each cell.
  std::vector<int> cell_of(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    const auto j = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(u) + 1));
    cell_of[static_cast<std::size_t>(u)] = cell_of[j];
    cell_of[j] = u;
  }
  b.rss_before_open_kb = rss_kb();
  for (int u = 0; u < users; ++u) {
    mptcp::MptcpConnection::Config cfg = apps::fleet_user_config();
    const int c = cell_of[static_cast<std::size_t>(u)] % cells;
    cfg.subflows[0].path_id = "ap" + std::to_string(c);
    cfg.subflows[1].path_id = "cell" + std::to_string(c);
    ConnSlot& slot = open(b, std::move(cfg), sched, kEbpf,
                          start[static_cast<std::size_t>(u)]);
    if (slot.conn == nullptr) continue;
    FlowSource::Options opts;
    opts.min_bytes = opts.max_bytes = kObjectBytes;
    opts.max_flows = 1;
    add_flows(b, slot, rng.fork(), opts);
  }
  b.rss_after_open_kb = rss_kb();
}

// ---- short_flows --------------------------------------------------------------
//
// Two-subflow connections over 2 % loss with seeded per-path RTTs, each
// running closed-loop back-to-back flows of 32-256 KB with think gaps, on
// the native MinRTT installed with set_scheduler: the ProgMP runtime is
// bypassed.

constexpr int kShortConns = 64;

void setup_short_flows(Bench& b) {
  b.horizon = seconds(15);
  Rng rng(b.params.seed ^ 0x5F10A5u);
  const std::vector<TimeNs> start = arrivals(rng, kShortConns, seconds(1));
  b.rss_before_open_kb = rss_kb();
  for (int i = 0; i < kShortConns; ++i) {
    mptcp::MptcpConnection::Config cfg;
    for (int s = 0; s < 2; ++s) {
      apps::PathSpec path;
      path.rate_mbps = 20;
      path.one_way_delay = milliseconds(5 + static_cast<std::int64_t>(rng.next_below(36)));
      path.loss = 0.02;
      path.queue_kb = 128;
      cfg.subflows.push_back(apps::make_subflow("sbf" + std::to_string(s), path));
    }
    cfg.conn_id = i;
    const Rng conn_rng = rng.fork();
    mptcp::MptcpConnection* conn = b.log.setup("api.open_connection", -1, [&] {
      b.own_conns.push_back(
          std::make_unique<mptcp::MptcpConnection>(b.sim, cfg, conn_rng));
      mptcp::MptcpConnection& c = *b.own_conns.back();
      std::unique_ptr<mptcp::Scheduler> native = progmp::sched::make_native_minrtt();
      if (b.log.traced()) {
        native = std::make_unique<TimedScheduler>(std::move(native), kNative, i, b.log);
      }
      c.set_scheduler(std::move(native));
      return &c;
    });
    ConnSlot slot;
    slot.conn = conn;
    slot.start = start[static_cast<std::size_t>(i)];
    b.conns.push_back(slot);
    FlowSource::Options opts;
    opts.min_bytes = 32 * 1024;
    opts.max_bytes = 256 * 1024;
    opts.mean_gap = milliseconds(100);
    opts.max_flows = 1 << 30;
    add_flows(b, b.conns.back(), rng.fork(), opts);
  }
  b.rss_after_open_kb = rss_kb();
}

// ---- spec_zoo -----------------------------------------------------------------
//
// The §5 scheduler library, each spec on its paper scenario and application,
// instantiated once per backend with identical connection seeds.

enum class Scenario { kLossy, kHetero, kMobile, kMobileBackup };
enum class App { kBulk, kCbr, kFlows, kFlowsR2 };

struct ZooEntry {
  const char* spec;
  Scenario scenario;
  App app;
  /// Connections per backend. Short-flow specs get more: a flow moves far
  /// fewer bytes than a bulk or CBR connection, and the completion-time
  /// tail needs samples.
  int conns;
  int reg = 0;  ///< register preset (1-based), 0 = none
  std::int64_t reg_value = 0;
};

constexpr ZooEntry kZoo[] = {
    {"minrtt", Scenario::kMobile, App::kBulk, 1},
    {"roundrobin", Scenario::kLossy, App::kBulk, 1},
    {"redundant", Scenario::kLossy, App::kFlows, 3},
    {"opportunistic_redundant", Scenario::kLossy, App::kFlows, 3},
    {"redundant_if_no_q", Scenario::kLossy, App::kFlows, 3},
    {"compensating", Scenario::kHetero, App::kFlowsR2, 3},
    {"selective_compensation", Scenario::kHetero, App::kFlowsR2, 3},
    {"tap", Scenario::kMobile, App::kCbr, 1},
    {"target_rtt", Scenario::kMobile, App::kCbr, 1, 3, 50'000},
    {"probing", Scenario::kMobile, App::kCbr, 1, 7, 100},
    {"backup_redundant", Scenario::kMobileBackup, App::kBulk, 1},
    {"opportunistic_retransmit", Scenario::kHetero, App::kBulk, 1},
};
constexpr rt::Backend kZooBackends[] = {
    rt::Backend::kInterpreter, rt::Backend::kCompiled, rt::Backend::kEbpf};

mptcp::MptcpConnection::Config zoo_config(Scenario s) {
  switch (s) {
    case Scenario::kLossy:
      return apps::lossy_config(0.02);
    case Scenario::kHetero:
      return apps::heterogeneous_config(4);
    case Scenario::kMobile:
      return apps::mobile_config(/*lte_backup_flag=*/false);
    case Scenario::kMobileBackup:
      return apps::mobile_config(/*lte_backup_flag=*/true);
  }
  return {};
}

void setup_spec_zoo(Bench& b) {
  b.horizon = seconds(3);
  b.grace = seconds(2);
  std::vector<std::array<std::string, 3>> names;
  for (const ZooEntry& z : kZoo) {
    std::array<std::string, 3> per;
    for (int i = 0; i < 3; ++i) per[static_cast<std::size_t>(i)] = load(b, z.spec, kZooBackends[i]);
    names.push_back(per);
  }
  b.host = std::make_unique<api::Host>(b.sim, b.api, Rng(b.params.seed));
  Rng rng(b.params.seed ^ 0x200C0DEu);
  b.rss_before_open_kb = rss_kb();
  // Connection (spec, k) gets the same start time and seeds on every
  // backend, so the three runs of a spec must agree exactly.
  for (std::size_t s = 0; s < std::size(kZoo); ++s) {
    const ZooEntry& z = kZoo[s];
    for (int k = 0; k < z.conns; ++k) {
      const TimeNs start{static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(milliseconds(500).ns())))};
      const Rng conn_rng = rng.fork();
      const Rng app_rng = rng.fork();
      for (int i = 0; i < 3; ++i) {
        ConnSlot& slot = open(b, zoo_config(z.scenario), names[s][static_cast<std::size_t>(i)],
                              backend_of(kZooBackends[i]), start, &conn_rng);
        if (slot.conn == nullptr) continue;
        mptcp::MptcpConnection& conn = *slot.conn;
        if (z.reg > 0) api::ProgmpApi::set_register(conn, z.reg, z.reg_value);
        switch (z.app) {
          case App::kBulk: {
            apps::BulkSource::Options o;
            o.total_bytes = 8 * 1024 * 1024;
            b.bulks.push_back(std::make_unique<apps::BulkSource>(b.sim, conn, o));
            apps::BulkSource* src = b.bulks.back().get();
            b.log.setup("apps.arm", conn.conn_id(), [&] {
              b.sim.schedule_at(start, [src] { src->start(); });
            });
            break;
          }
          case App::kCbr: {
            apps::CbrSource::Options o;
            o.schedule = {{TimeNs{0}, 1'000'000},
                          {seconds(1), 3'000'000},
                          {seconds(2), 1'500'000}};
            o.duration = b.horizon - start;
            o.target_register = 1;
            b.cbrs.push_back(std::make_unique<apps::CbrSource>(b.sim, conn, o));
            apps::CbrSource* src = b.cbrs.back().get();
            b.log.setup("apps.arm", conn.conn_id(), [&] {
              b.sim.schedule_at(start, [src] { src->start(); });
            });
            break;
          }
          case App::kFlows:
          case App::kFlowsR2: {
            FlowSource::Options o;
            o.min_bytes = 32 * 1024;
            o.max_bytes = 256 * 1024;
            o.mean_gap = milliseconds(100);
            o.max_flows = 1 << 30;
            o.signal_flow_end = z.app == App::kFlowsR2;
            add_flows(b, slot, app_rng, o);
            break;
          }
        }
      }
    }
  }
  b.rss_after_open_kb = rss_kb();
}

/// Connection k of spec s on backend i is opened right after the same
/// connection on backend i - 1. Records the disagreements between backends.
void check_zoo_equivalence(const Bench& b, Result& r) {
  std::size_t base = 0;
  for (std::size_t s = 0; s < std::size(kZoo); ++s) {
    for (int k = 0; k < kZoo[s].conns; ++k, base += 3) {
      const mptcp::MptcpConnection* ref = b.conns[base].conn;
      for (std::size_t i = 1; i < 3; ++i) {
        const mptcp::MptcpConnection* c = b.conns[base + i].conn;
        if (ref == nullptr || c == nullptr) {
          r.errors.push_back(std::string("spec_zoo: refused connection for ") + kZoo[s].spec);
          continue;
        }
        const mptcp::SchedulerStats& x = ref->scheduler_stats();
        const mptcp::SchedulerStats& y = c->scheduler_stats();
        if (ref->delivered_bytes() != c->delivered_bytes() ||
            ref->written_bytes() != c->written_bytes() ||
            x.executions != y.executions || x.pushes != y.pushes ||
            x.redundant_pushes != y.redundant_pushes ||
            x.null_pushes != y.null_pushes || x.drops != y.drops ||
            x.pops != y.pops || x.sched_faults != y.sched_faults) {
          char buf[256];
          std::snprintf(buf, sizeof buf,
                        "spec_zoo: %s conn %d: %s and %s disagree "
                        "(delivered %lld vs %lld, pushes %lld vs %lld)",
                        kZoo[s].spec, k, rt::backend_name(kZooBackends[0]),
                        rt::backend_name(kZooBackends[i]),
                        static_cast<long long>(ref->delivered_bytes()),
                        static_cast<long long>(c->delivered_bytes()),
                        static_cast<long long>(x.pushes),
                        static_cast<long long>(y.pushes));
          r.errors.emplace_back(buf);
        }
      }
    }
  }
}

// ---- Run and collection ---------------------------------------------------------

void sample(Bench& b) {
  const TimeNs now = b.sim.now();
  for (ConnSlot& slot : b.conns) {
    if (slot.conn == nullptr) continue;
    const mptcp::MptcpConnection& c = *slot.conn;
    b.q_peak = std::max(b.q_peak, c.q_len());
    b.qu_peak = std::max(b.qu_peak, c.qu_len());
    b.rq_peak = std::max(b.rq_peak, c.rq_len());
    b.ooo_peak = std::max(b.ooo_peak, c.receiver().ooo_bytes());
    if (!slot.judged && slot.start + b.grace <= now) {
      slot.judged = true;
      slot.failed = c.delivered_bytes() == 0;
    }
  }
  b.heap_peak = std::max(b.heap_peak, b.sim.heap_depth());
  b.pending_peak = std::max(b.pending_peak, b.sim.pending());
  b.heap_sum += static_cast<std::int64_t>(b.sim.heap_depth());
  b.stale_sum += static_cast<std::int64_t>(b.sim.heap_depth() - b.sim.pending());
}

double run(Bench& b) {
  b.log.attach(b.sim);
  std::int64_t run_ns = 0;
  for (int k = 1; k <= kSlices; ++k) {
    b.log.begin_slice();
    const std::int64_t t0 = now_ns();
    b.sim.run_until(TimeNs{b.horizon.ns() / kSlices * k});
    run_ns += now_ns() - t0;
    sample(b);
  }
  b.sim.set_post_event_hook(nullptr);
  b.log.finish();
  return static_cast<double>(run_ns) / 1e9;
}

std::uint64_t fnv(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void add(Result& r, std::string name, double value, std::string unit) {
  r.layers.push_back({std::move(name), value, std::move(unit)});
}

void collect(Bench& b, Result& r) {
  r.horizon_s = b.horizon.sec();
  r.events = b.sim.executed();
  r.digest = fnv(0xcbf29ce484222325ULL, static_cast<std::int64_t>(r.events));
  r.conns_attempted = static_cast<int>(b.conns.size());

  for (ConnSlot& slot : b.conns) {
    if (!slot.judged) {  // started too late to judge at a slice
      slot.judged = true;
      slot.failed = slot.conn == nullptr || slot.conn->delivered_bytes() == 0;
    }
    r.conns_failed += slot.failed ? 1 : 0;
    const std::int64_t delivered =
        slot.conn != nullptr ? slot.conn->delivered_bytes() : 0;
    const std::int64_t written = slot.conn != nullptr ? slot.conn->written_bytes() : 0;
    r.digest = fnv(fnv(r.digest, written), delivered);
    if (delivered > written) {
      r.errors.push_back("connection " + std::to_string(&slot - b.conns.data()) +
                         " delivered " + std::to_string(delivered) +
                         " B of " + std::to_string(written) + " B written");
    }
    r.delivered_bytes += delivered;
    r.written_bytes += written;
    r.conn_delivered.push_back(delivered);
    const double active_s = (b.horizon - slot.start).sec();
    r.conn_mbps.push_back(active_s > 0 ? static_cast<double>(delivered) * 8 / active_s / 1e6
                                       : 0.0);
    if (slot.flows != nullptr) {
      const std::vector<double>& done = slot.flows->fct_ms();
      r.fct_ms.insert(r.fct_ms.end(), done.begin(), done.end());
      // A flow still open this long at the horizon enters at its age, a
      // lower bound on its completion time; younger open flows are left out.
      if (slot.flows->in_flow() &&
          b.horizon - slot.flows->flow_started() >= b.grace) {
        r.fct_ms.push_back(
            static_cast<double>((b.horizon - slot.flows->flow_started()).ns()) / 1e6);
        ++r.fct_censored;
      }
    }
  }
  for (double ms : r.fct_ms) r.digest = fnv(r.digest, std::llround(ms * 1e6));
  r.rss_kb_per_conn = static_cast<double>(rss_kb() - b.rss_before_open_kb) /
                      static_cast<double>(std::max(1, r.conns_attempted));

  // ---- api ----
  const SpanLog& log = b.log;
  auto sum_us = [&](const char* name) {
    double total = 0;
    for (double ns : log.setup_ns(name)) total += ns;
    return total / 1e3;
  };
  add(r, "api.load_us.interpreter", sum_us("api.load.interpreter"), "us");
  add(r, "api.load_us.compiled", sum_us("api.load.compiled"), "us");
  add(r, "api.load_us.ebpf", sum_us("api.load.ebpf"), "us");
  const std::vector<double> opens = log.setup_ns("api.open_connection");
  add(r, "api.open_conn_us_p50", percentile(opens, 50) / 1e3, "us");
  add(r, "api.open_conn_us_p99", percentile(opens, 99) / 1e3, "us");
  add(r, "api.open_conn_count", static_cast<double>(opens.size()), "count");
  add(r, "api.setup_rss_kb_per_conn",
      static_cast<double>(b.rss_after_open_kb - b.rss_before_open_kb) /
          std::max(1, r.conns_attempted),
      "KB");

  // ---- lang / runtime load pipeline (traced runs time it) ----
  for (const char* stage : {"lang.lex_us", "lang.parse_us", "lang.analyze_us",
                            "runtime.lower_us", "runtime.optimize_us",
                            "runtime.ebpf_compile_us", "runtime.verify_us"}) {
    const auto it = b.stage_ns.find(stage);
    add(r, stage, it == b.stage_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e3,
        "us");
  }
  std::int64_t specializations = 0;
  for (const std::string& name : b.loaded) {
    specializations += static_cast<std::int64_t>(b.api.find(name)->specialized_variants());
  }
  add(r, "runtime.specializations", static_cast<double>(specializations), "count");

  // ---- runtime per backend (traced) ----
  double exec_ns = 0, exec_max = 0;
  std::int64_t execs = 0, useful = 0;
  for (int be = 0; be < kBackends; ++be) {
    const SpanLog::BackendTotals& t = log.backend(be);
    const std::string suffix = std::string(".") + backend_label(be);
    const double ns = log.ns(static_cast<double>(t.ticks));
    exec_ns += ns;
    execs += t.execs;
    useful += t.useful;
    exec_max = std::max(exec_max, log.ns(static_cast<double>(t.exec_ticks.max())));
    add(r, "runtime.execs" + suffix, static_cast<double>(t.execs), "count");
    add(r, "runtime.exec_ns_p50" + suffix, log.ns(t.exec_ticks.percentile(50)), "ns");
    add(r, "runtime.exec_ns_p99" + suffix, log.ns(t.exec_ticks.percentile(99)), "ns");
    add(r, "runtime.insns_per_exec" + suffix,
        t.execs > 0 ? static_cast<double>(t.insns) / static_cast<double>(t.execs) : 0,
        "insns");
    add(r, "runtime.ns_per_insn" + suffix,
        t.insns > 0 ? ns / static_cast<double>(t.insns) : 0,
        "ns");
    add(r, "runtime.share" + suffix,
        r.run_s > 0 ? ns / 1e9 / r.run_s : 0, "ratio");
  }
  add(r, "runtime.exec_ns_max", exec_max, "ns");
  add(r, "runtime.useful_execs", static_cast<double>(useful), "count");
  add(r, "runtime.useful_ratio",
      execs > 0 ? static_cast<double>(useful) / static_cast<double>(execs) : 0,
      "ratio");
  std::int64_t faults = 0, redundant = 0, sched_execs = 0;
  for (const ConnSlot& slot : b.conns) {
    if (slot.conn == nullptr) continue;
    faults += slot.conn->scheduler_stats().sched_faults;
    redundant += slot.conn->scheduler_stats().redundant_pushes;
    sched_execs += slot.conn->scheduler_stats().executions;
  }
  add(r, "runtime.faults", static_cast<double>(faults), "count");

  // ---- sim event core ----
  add(r, "sim.events", static_cast<double>(r.events), "count");
  const double event_ns = log.ns(static_cast<double>(log.event_ticks_total()));
  add(r, "sim.ns_per_event",
      log.events() > 0 ? event_ns / static_cast<double>(log.events()) : 0, "ns");
  add(r, "sim.event_ns_p50", log.ns(log.event_ticks().percentile(50)), "ns");
  add(r, "sim.event_ns_p99", log.ns(log.event_ticks().percentile(99)), "ns");
  const double sim_self_ns = event_ns - exec_ns;
  add(r, "sim.self_ns_per_event",
      log.events() > 0 ? sim_self_ns / static_cast<double>(log.events()) : 0, "ns");
  add(r, "sim.cancels", static_cast<double>(b.sim.cancelled()), "count");
  add(r, "sim.heap_depth_peak", static_cast<double>(b.heap_peak), "entries");
  add(r, "sim.pending_peak", static_cast<double>(b.pending_peak), "entries");
  add(r, "sim.stale_ratio",
      b.heap_sum > 0 ? static_cast<double>(b.stale_sum) / static_cast<double>(b.heap_sum) : 0,
      "ratio");

  // ---- links (data direction; every path once) ----
  std::set<sim::NetPath*> paths;
  for (const ConnSlot& slot : b.conns) {
    if (slot.conn == nullptr) continue;
    for (int s = 0; s < slot.conn->subflow_count(); ++s) paths.insert(&slot.conn->path(s));
  }
  std::int64_t pkts = 0, drops_queue = 0, drops_loss = 0, drops_other = 0,
               queue_peak = 0;
  for (sim::NetPath* p : paths) {
    const sim::Link::Stats& st = p->forward.stats();
    pkts += st.packets_sent + st.drops_queue + st.drops_down;
    drops_queue += st.drops_queue;
    drops_loss += st.drops_loss + st.drops_burst;
    drops_other += st.drops_down;
    queue_peak = std::max(queue_peak, st.max_queued_bytes);
  }
  add(r, "sim.link.pkts", static_cast<double>(pkts), "count");
  add(r, "sim.link.drops_queue", static_cast<double>(drops_queue), "count");
  add(r, "sim.link.drops_loss", static_cast<double>(drops_loss), "count");
  add(r, "sim.link.drop_ratio",
      pkts > 0 ? static_cast<double>(drops_queue + drops_loss + drops_other) /
                     static_cast<double>(pkts)
               : 0,
      "ratio");
  add(r, "sim.link.queue_peak_kb", static_cast<double>(queue_peak) / 1024, "KB");

  // ---- subflow TCP ----
  std::int64_t sent = 0, retx = 0, fast = 0, rtos = 0;
  for (const ConnSlot& slot : b.conns) {
    if (slot.conn == nullptr) continue;
    for (int s = 0; s < slot.conn->subflow_count(); ++s) {
      const mptcp::SubflowSender::Stats& st = slot.conn->subflow(s).stats();
      sent += st.segments_sent;
      retx += st.segments_retransmitted;
      fast += st.fast_retransmits;
      rtos += st.rtos;
    }
  }
  add(r, "tcp.segments_sent", static_cast<double>(sent), "count");
  add(r, "tcp.retransmits", static_cast<double>(retx), "count");
  add(r, "tcp.fast_retransmits", static_cast<double>(fast), "count");
  add(r, "tcp.rtos", static_cast<double>(rtos), "count");
  add(r, "tcp.retx_ratio",
      sent + retx > 0 ? static_cast<double>(retx) / static_cast<double>(sent + retx) : 0,
      "ratio");

  // ---- meta socket, skb pool, receiver ----
  std::int64_t dups = 0;
  for (const ConnSlot& slot : b.conns) {
    if (slot.conn != nullptr) dups += slot.conn->receiver().duplicate_segments();
  }
  const mptcp::SkbPoolStats pool = mptcp::skb_pool_stats();
  add(r, "mptcp.q_peak", static_cast<double>(b.q_peak), "pkts");
  add(r, "mptcp.qu_peak", static_cast<double>(b.qu_peak), "pkts");
  add(r, "mptcp.rq_peak", static_cast<double>(b.rq_peak), "pkts");
  add(r, "mptcp.sched_executions", static_cast<double>(sched_execs), "count");
  add(r, "mptcp.redundant_pushes", static_cast<double>(redundant), "count");
  add(r, "mptcp.skb_pool.peak_live", static_cast<double>(pool.peak_live_chunks), "count");
  add(r, "mptcp.skb_pool.carved", static_cast<double>(pool.chunks_carved), "count");
  add(r, "mptcp.skb_pool.recycled", static_cast<double>(pool.chunks_recycled), "count");
  add(r, "mptcp.skb_pool.slabs", static_cast<double>(pool.slabs), "count");
  add(r, "mptcp.recv.dup_segments", static_cast<double>(dups), "count");
  add(r, "mptcp.recv.ooo_peak_bytes", static_cast<double>(b.ooo_peak), "bytes");

  // ---- layer self times of the traced run ----
  const double runtime_s = exec_ns / 1e9;
  add(r, "layer.sim.self_s", sim_self_ns / 1e9, "s");
  add(r, "layer.runtime.self_s", runtime_s, "s");
  add(r, "layer.unattributed_s",
      log.traced() ? r.run_s - event_ns / 1e9 : 0, "s");
  add(r, "trace.spans_kept", static_cast<double>(log.run_spans_kept()), "count");
  add(r, "trace.span_stride", static_cast<double>(log.stride()), "events");
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "fleet_bulk" || name == "spec_zoo" || name == "short_flows";
}

Result run_workload(const Params& p) {
  Result r;
  Bench b(p);
  const std::int64_t t0 = now_ns();
  if (p.workload == "fleet_bulk") {
    setup_fleet_bulk(b);
  } else if (p.workload == "spec_zoo") {
    setup_spec_zoo(b);
  } else {
    setup_short_flows(b);
  }
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  r.run_s = run(b);
  r.peak_rss_kb = peak_rss_kb();

  // Attribution work happens after everything end-to-end is measured.
  if (p.traced) {
    std::set<std::string> specs;
    for (const std::string& name : b.loaded) specs.insert(name.substr(0, name.find('/')));
    for (const std::string& spec : specs) {
      time_load_pipeline(b, progmp::sched::specs::find_spec(spec)->source);
    }
  }
  collect(b, r);
  if (p.workload == "spec_zoo") check_zoo_equivalence(b, r);
  if (p.traced && !p.spans_out.empty() && !b.log.write_jsonl(p.spans_out, t0)) {
    r.errors.push_back("cannot write spans to " + p.spans_out);
  }
  return r;
}

}  // namespace perfbench
