// One repetition of a benchmark workload: set up, run to the horizon,
// check the outputs and print the measurements as one JSON object.
//
//   perfbench --workload fleet_bulk|spec_zoo|short_flows --seed N
//             [--traced 0|1] [--users N] [--spans-out FILE]
//
// perfbench/run.py repeats this for the requested measuring time and
// aggregates the repetitions; see NOTES.md.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_bulk|spec_zoo|short_flows "
               "--seed N [--traced 0|1] [--users N] [--spans-out FILE]\n");
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

template <class T>
void print_array(const char* key, const std::vector<T>& values,
                 const char* format) {
  std::printf(",\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) std::printf(",");
    std::printf(format, values[i]);
  }
  std::printf("]");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Params p;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      p.workload = value;
    } else if (arg == "--seed") {
      p.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--traced") {
      p.traced = std::strcmp(value, "1") == 0;
    } else if (arg == "--users") {
      p.users = std::atoi(value);
    } else if (arg == "--spans-out") {
      p.spans_out = value;
    } else {
      usage();
    }
  }
  if (!have_seed || !perfbench::known_workload(p.workload)) usage();

  const perfbench::Result r = perfbench::run_workload(p);

  std::printf("{\"workload\":%s,\"seed\":%" PRIu64 ",\"traced\":%d",
              json_string(p.workload).c_str(), p.seed, p.traced ? 1 : 0);
  std::printf(",\"setup_s\":%.9f,\"run_s\":%.9f,\"peak_rss_kb\":%" PRId64
              ",\"rss_kb_per_conn\":%.6f",
              r.setup_s, r.run_s, r.peak_rss_kb, r.rss_kb_per_conn);
  std::printf(",\"horizon_s\":%.9g,\"conns_attempted\":%d,\"conns_failed\":%d",
              r.horizon_s, r.conns_attempted, r.conns_failed);
  print_array("conn_delivered", r.conn_delivered, "%" PRId64);
  print_array("conn_mbps", r.conn_mbps, "%.9g");
  print_array("fct_ms", r.fct_ms, "%.9g");
  std::printf(",\"fct_censored\":%" PRId64, r.fct_censored);
  std::printf(",\"delivered_bytes\":%" PRId64 ",\"written_bytes\":%" PRId64
              ",\"events\":%" PRIu64 ",\"digest\":\"%016" PRIx64 "\"",
              r.delivered_bytes, r.written_bytes, r.events, r.digest);
  std::printf(",\"errors\":[");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s%s", i > 0 ? "," : "", json_string(r.errors[i]).c_str());
  }
  std::printf("],\"layers\":[");
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    std::printf("%s[%s,%.9g,%s]", i > 0 ? "," : "",
                json_string(r.layers[i].name).c_str(), r.layers[i].value,
                json_string(r.layers[i].unit).c_str());
  }
  std::printf("]}\n");
  return 0;
}
