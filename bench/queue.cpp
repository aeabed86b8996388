// Queue-layer micro-benchmark: std::deque<SkbPtr> (the pre-refactor
// representation) vs the PacketQueue ring, over the operations the
// scheduler hot path actually performs — FIFO push/pop churn, full scans
// reading packet fields (the FILTER/SUM chains of §3.1), predicate scans
// that also test per-subflow sent-on state (the redundancy filter
// !SENT_ON(sbf)), mid-queue erase (data-level ACK detach) and membership
// lookup. Both representations read packet fields through the SkbPtr, as
// the scheduler runtime does.
//
// Emits a JSON file (default BENCH_queue.json) with one row per
// (operation, representation, queue size) so EXPERIMENTS.md and the CI
// perf annotations can cite exact numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "mptcp/packet_queue.hpp"
#include "mptcp/skb.hpp"

namespace progmp::bench {
namespace {

using mptcp::PacketQueue;
using mptcp::QueueId;
using mptcp::Skb;
using mptcp::SkbPtr;

using Clock = std::chrono::steady_clock;

std::vector<SkbPtr> make_pool(std::size_t n, Rng& rng) {
  std::vector<SkbPtr> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto skb = std::make_shared<Skb>();
    skb->meta_seq = i + 1;
    skb->size = static_cast<std::int32_t>(rng.next_range(100, 1400));
    skb->props.flow_end = rng.chance(0.05);
    if (rng.chance(0.5)) skb->mark_sent_on(static_cast<int>(i % 4), TimeNs{0});
    pool.push_back(std::move(skb));
  }
  return pool;
}

void reset_membership(const std::vector<SkbPtr>& pool) {
  for (const auto& skb : pool) {
    skb->in_q = skb->in_qu = skb->in_rq = false;
  }
}

struct Row {
  std::string op;
  std::string repr;
  std::size_t entries = 0;
  double ns_per_op = 0;
};

/// Measures `body(iterations)` and returns ns per elementary operation,
/// where one call to body performs `ops_per_iter` of them.
template <typename Fn>
double time_ns_per_op(int iterations, double ops_per_iter, Fn body) {
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) body();
  const auto end = Clock::now();
  const double total_ns =
      std::chrono::duration<double, std::nano>(end - start).count();
  return total_ns / (iterations * ops_per_iter);
}

// Sink that defeats dead-code elimination without atomics on the hot path.
volatile std::int64_t g_sink = 0;

// ---- push+pop churn: fill to n, then drain -------------------------------

double churn_deque(const std::vector<SkbPtr>& pool, int iterations) {
  return time_ns_per_op(iterations, 2.0 * static_cast<double>(pool.size()),
                        [&] {
                          std::deque<SkbPtr> q;
                          for (const auto& skb : pool) q.push_back(skb);
                          std::int64_t acc = 0;
                          while (!q.empty()) {
                            acc += q.front()->size;
                            q.pop_front();
                          }
                          g_sink = g_sink + acc;
                        });
}

double churn_packet_queue(const std::vector<SkbPtr>& pool, int iterations) {
  PacketQueue q(QueueId::kQ);
  return time_ns_per_op(iterations, 2.0 * static_cast<double>(pool.size()),
                        [&] {
                          for (const auto& skb : pool) q.push_back(skb);
                          std::int64_t acc = 0;
                          while (!q.empty()) {
                            acc += q.front()->size;
                            q.pop_front();
                          }
                          g_sink = g_sink + acc;
                        });
}

// ---- full scan: SUM(p => p.SIZE) over a populated queue ------------------

double scan_deque(const std::vector<SkbPtr>& pool, int iterations) {
  std::deque<SkbPtr> q(pool.begin(), pool.end());
  return time_ns_per_op(iterations, static_cast<double>(pool.size()), [&] {
    std::int64_t acc = 0;
    for (const auto& skb : q) acc += skb->size;
    g_sink = g_sink + acc;
  });
}

double scan_packet_queue(const std::vector<SkbPtr>& pool, int iterations) {
  PacketQueue q(QueueId::kQ);
  for (const auto& skb : pool) q.push_back(skb);
  return time_ns_per_op(iterations, static_cast<double>(pool.size()), [&] {
    std::int64_t acc = 0;
    for (const SkbPtr& skb : q) acc += skb->size;
    g_sink = g_sink + acc;
  });
}

// ---- filter scan: COUNT(p => p.SIZE > 700 AND !p.SENT_ON(2)) -------------

double filter_deque(const std::vector<SkbPtr>& pool, int iterations) {
  std::deque<SkbPtr> q(pool.begin(), pool.end());
  return time_ns_per_op(iterations, static_cast<double>(pool.size()), [&] {
    std::int64_t count = 0;
    for (const auto& skb : q) {
      if (skb->size > 700 && !skb->sent_on(2)) ++count;
    }
    g_sink = g_sink + count;
  });
}

double filter_packet_queue(const std::vector<SkbPtr>& pool, int iterations) {
  PacketQueue q(QueueId::kQ);
  for (const auto& skb : pool) q.push_back(skb);
  return time_ns_per_op(iterations, static_cast<double>(pool.size()), [&] {
    std::int64_t count = 0;
    for (const SkbPtr& skb : q) {
      if (skb->size > 700 && !skb->sent_on(2)) ++count;
    }
    g_sink = g_sink + count;
  });
}

// ---- mid-queue erase: detach every 7th packet (data-level ACK) -----------

double erase_deque(const std::vector<SkbPtr>& pool, int iterations) {
  // Erase by value lookup, as the pre-refactor detach did (std::find).
  const std::size_t victims = pool.size() / 7 + 1;
  return time_ns_per_op(iterations, static_cast<double>(victims), [&] {
    std::deque<SkbPtr> q(pool.begin(), pool.end());
    for (std::size_t i = 0; i < pool.size(); i += 7) {
      const Skb* target = pool[i].get();
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->get() == target) {
          q.erase(it);
          break;
        }
      }
    }
    g_sink = g_sink + static_cast<std::int64_t>(q.size());
  });
}

double erase_packet_queue(const std::vector<SkbPtr>& pool, int iterations) {
  const std::size_t victims = pool.size() / 7 + 1;
  PacketQueue q(QueueId::kQ);
  return time_ns_per_op(iterations, static_cast<double>(victims), [&] {
    reset_membership(pool);
    for (const auto& skb : pool) q.push_back(skb);
    for (std::size_t i = 0; i < pool.size(); i += 7) {
      q.erase(pool[i].get());
    }
    g_sink = g_sink + static_cast<std::int64_t>(q.size());
    q.clear();
  });
}

// ---- membership lookup: index of every 7th packet ------------------------

double index_deque(const std::vector<SkbPtr>& pool, int iterations) {
  const std::size_t victims = pool.size() / 7 + 1;
  std::deque<SkbPtr> q(pool.begin(), pool.end());
  return time_ns_per_op(iterations, static_cast<double>(victims), [&] {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < pool.size(); i += 7) {
      acc += std::find(q.begin(), q.end(), pool[i]) - q.begin();
    }
    g_sink = g_sink + acc;
  });
}

double index_packet_queue(const std::vector<SkbPtr>& pool, int iterations) {
  const std::size_t victims = pool.size() / 7 + 1;
  PacketQueue q(QueueId::kQ);
  for (const auto& skb : pool) q.push_back(skb);
  return time_ns_per_op(iterations, static_cast<double>(victims), [&] {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < pool.size(); i += 7) {
      acc += q.index_of(pool[i].get());
    }
    g_sink = g_sink + acc;
  });
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"bench\": \"queue\",\n  \"schema\": 1,\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"repr\": \"%s\", \"entries\": %zu, "
                 "\"ns_per_op\": %.2f}%s\n",
                 r.op.c_str(), r.repr.c_str(), r.entries, r.ns_per_op,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace progmp::bench

int main(int argc, char** argv) {
  using namespace progmp;
  using namespace progmp::bench;

  std::string out = "BENCH_queue.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out file.json]\n", argv[0]);
      return 2;
    }
  }

  print_header(
      "queue layer — std::deque<SkbPtr> vs PacketQueue ring",
      "§3.1/§4.1: specs scan Q/QU/RQ on every trigger; the queue "
      "representation is the fleet-scale hot path");

  const std::size_t sizes[] = {1'024, 4'096, 16'384, 65'536};
  std::vector<Row> rows;
  Rng rng(42);

  struct Op {
    const char* name;
    double (*deque_fn)(const std::vector<progmp::mptcp::SkbPtr>&, int);
    double (*pq_fn)(const std::vector<progmp::mptcp::SkbPtr>&, int);
  };
  const Op ops[] = {
      {"push_pop", churn_deque, churn_packet_queue},
      {"scan_sum", scan_deque, scan_packet_queue},
      {"filter_sent_on", filter_deque, filter_packet_queue},
      {"erase_mid", erase_deque, erase_packet_queue},
      {"index_of", index_deque, index_packet_queue},
  };

  Table table({"op", "entries", "deque ns/op", "ring ns/op", "speedup"});
  bool index_ok = false;
  for (const std::size_t n : sizes) {
    const auto pool = make_pool(n, rng);
    // Keep total work roughly constant across sizes.
    const int iters = static_cast<int>(4'000'000 / n) + 1;
    for (const Op& op : ops) {
      reset_membership(pool);
      const double dq = op.deque_fn(pool, iters);
      reset_membership(pool);
      const double pq = op.pq_fn(pool, iters);
      rows.push_back({op.name, "deque", n, dq});
      rows.push_back({op.name, "packet_queue", n, pq});
      table.add_row({op.name, std::to_string(n), Table::num(dq, 2),
                     Table::num(pq, 2), Table::num(dq / pq, 2) + "x"});
      // The intrusive index is what the ring is kept for: membership lookup
      // (detach on data-level ACK, DROP) must beat a linear search.
      if (n == 65'536 && std::strcmp(op.name, "index_of") == 0) {
        index_ok = pq < dq;
      }
    }
  }
  std::printf("%s", table.str().c_str());

  const bool ok = check_shape(
      "ring index_of beats a linear std::find over the deque at 64k entries",
      index_ok);

  write_json(out, rows);
  std::printf("  wrote %s\n", out.c_str());
  return ok ? 0 : 1;
}
