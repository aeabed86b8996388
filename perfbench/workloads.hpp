// The three workloads of the repo benchmark and the result of one
// repetition. See NOTES.md for why each workload exists and which layer
// metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Params {
  std::string workload;  ///< fleet_bulk | spec_zoo | short_flows
  std::uint64_t seed = 1;
  bool traced = false;
  /// fleet_bulk user count (0 = the workload's fixed size).
  int users = 0;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

/// One repetition: a fresh set-up and one run to the workload's horizon.
struct Result {
  // ---- Host-side (wall clock, memory) ----
  double setup_s = 0;
  double run_s = 0;
  std::int64_t peak_rss_kb = 0;
  double rss_kb_per_conn = 0;

  // ---- Simulated (deterministic for a seed) ----
  double horizon_s = 0;
  int conns_attempted = 0;
  int conns_failed = 0;
  /// Per attempted connection: delivered bytes, and goodput in Mbps over
  /// the time from its start to the horizon.
  std::vector<std::int64_t> conn_delivered;
  std::vector<double> conn_mbps;
  /// Flow completion times (ms), including the censored ones.
  std::vector<double> fct_ms;
  std::int64_t fct_censored = 0;
  std::int64_t delivered_bytes = 0;
  std::int64_t written_bytes = 0;
  std::uint64_t events = 0;
  /// FNV-1a over events executed, every connection's written and
  /// delivered bytes and every flow completion time: equal digests mean the
  /// same simulation.
  std::uint64_t digest = 0;

  /// Failed output checks; empty when every check passed.
  std::vector<std::string> errors;
  /// Per-layer metrics in report order: name, value, unit.
  struct Layer {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Layer> layers;
};

/// Builds, runs and checks one repetition of `p.workload`.
Result run_workload(const Params& p);

/// Whether `name` is a workload this benchmark knows.
bool known_workload(const std::string& name);

}  // namespace perfbench
