#include "sim/network.hpp"

#include <cstdio>

namespace progmp::sim {

NetPath& Network::add_path(const std::string& id, Link::Config forward,
                           Link::Config reverse) {
  PROGMP_CHECK_MSG(!id.empty(), "path id must not be empty");
  PROGMP_CHECK_MSG(!has_path(id), "duplicate path id");
  paths_.push_back(
      {id, std::make_unique<NetPath>(sim_, forward, reverse, rng_.fork())});
  NetPath& p = *paths_.back().path;
  if (trace_ != nullptr) {
    p.forward.set_tracer(trace_, /*slot=*/-1, /*direction=*/0);
    p.reverse.set_tracer(trace_, /*slot=*/-1, /*direction=*/1);
  }
  return p;
}

const Network::Entry* Network::find_entry(const std::string& id) const {
  for (const Entry& e : paths_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

NetPath* Network::find_path(const std::string& id) {
  const Entry* e = find_entry(id);
  return e == nullptr ? nullptr : e->path.get();
}

NetPath& Network::path(const std::string& id) {
  NetPath* p = find_path(id);
  PROGMP_CHECK_MSG(p != nullptr, "unknown path id");
  return *p;
}

bool Network::has_path(const std::string& id) const {
  return find_entry(id) != nullptr;
}

std::vector<std::string> Network::path_ids() const {
  std::vector<std::string> ids;
  ids.reserve(paths_.size());
  for (const Entry& e : paths_) ids.push_back(e.id);
  return ids;
}

void Network::set_down(const std::string& id) {
  NetPath& p = path(id);
  p.forward.set_down();
  p.reverse.set_down();
}

void Network::set_up(const std::string& id) {
  NetPath& p = path(id);
  // Reverse first so ACKs flow by the time forward-link observers (revival
  // probing) react — the same ordering FaultInjector uses for blackouts.
  p.reverse.set_up();
  p.forward.set_up();
}

void Network::set_tracer(Tracer* trace) {
  trace_ = trace;
  for (const Entry& e : paths_) {
    e.path->forward.set_tracer(trace_, /*slot=*/-1, /*direction=*/0);
    e.path->reverse.set_tracer(trace_, /*slot=*/-1, /*direction=*/1);
  }
}

std::string Network::proc_dump() const {
  std::string out;
  char buf[256];
  for (const Entry& e : paths_) {
    const auto dir = [&](const char* label, const Link& link) {
      const Link::Stats& s = link.stats();
      std::snprintf(buf, sizeof buf,
                    "  %s: %s queued=%lld max_queued=%lld sent=%lld "
                    "delivered=%lld drops(queue=%lld loss=%lld burst=%lld "
                    "down=%lld)\n",
                    label, link.is_up() ? "up" : "DOWN",
                    static_cast<long long>(link.queued_bytes()),
                    static_cast<long long>(s.max_queued_bytes),
                    static_cast<long long>(s.packets_sent),
                    static_cast<long long>(s.packets_delivered),
                    static_cast<long long>(s.drops_queue),
                    static_cast<long long>(s.drops_loss),
                    static_cast<long long>(s.drops_burst),
                    static_cast<long long>(s.drops_down));
      out += buf;
      // Middlebox interference is rare enough that an unconditional column
      // would be noise; surface it only on paths that saw (or can see) it.
      if (link.tamper_enabled() || s.tampered_stripped > 0 ||
          s.tampered_corrupted > 0) {
        std::snprintf(buf, sizeof buf,
                      "    tamper: %s stripped=%lld corrupted=%lld\n",
                      link.tamper_enabled() ? "armed" : "idle",
                      static_cast<long long>(s.tampered_stripped),
                      static_cast<long long>(s.tampered_corrupted));
        out += buf;
      }
    };
    out += "path " + e.id + ":\n";
    dir("fwd", e.path->forward);
    dir("rev", e.path->reverse);
  }
  return out;
}

}  // namespace progmp::sim
