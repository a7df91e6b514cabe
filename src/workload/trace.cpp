#include "workload/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <set>

#include "common/ensure.h"

namespace geored::wl {

Trace::Trace(std::vector<TraceEvent> events) : events_(std::move(events)) {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    GEORED_ENSURE(events_[i - 1].time_ms <= events_[i].time_ms,
                  "trace events must be time-ordered");
  }
}

void Trace::append(const TraceEvent& event) {
  GEORED_ENSURE(events_.empty() || events_.back().time_ms <= event.time_ms,
                "trace events must be appended in time order");
  events_.push_back(event);
}

void Trace::save(std::ostream& os) const {
  os << "geored-trace-v1 " << events_.size() << '\n';
  for (const auto& event : events_) {
    os << event.time_ms << ' ' << event.client << ' ' << event.object << ' ' << event.bytes
       << ' ' << (event.is_write ? 'w' : 'r') << '\n';
  }
}

Trace Trace::load(std::istream& is) {
  std::string magic;
  std::size_t count = 0;
  GEORED_ENSURE(static_cast<bool>(is >> magic >> count), "malformed trace header");
  GEORED_ENSURE(magic == "geored-trace-v1", "unknown trace format: " + magic);
  std::vector<TraceEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent event;
    char kind = 0;
    GEORED_ENSURE(static_cast<bool>(is >> event.time_ms >> event.client >> event.object >>
                                    event.bytes >> kind),
                  "malformed trace event");
    GEORED_ENSURE(kind == 'r' || kind == 'w', "trace event kind must be r or w");
    event.is_write = kind == 'w';
    events.push_back(event);
  }
  return Trace(std::move(events));
}

Trace Trace::scaled(double factor) const {
  GEORED_ENSURE(factor > 0.0, "time scale factor must be positive");
  std::vector<TraceEvent> events = events_;
  for (auto& event : events) event.time_ms *= factor;
  return Trace(std::move(events));
}

Trace Trace::merged(const Trace& a, const Trace& b) {
  std::vector<TraceEvent> events;
  events.reserve(a.size() + b.size());
  std::merge(a.events_.begin(), a.events_.end(), b.events_.begin(), b.events_.end(),
             std::back_inserter(events),
             [](const TraceEvent& x, const TraceEvent& y) { return x.time_ms < y.time_ms; });
  return Trace(std::move(events));
}

Trace::Stats Trace::stats() const {
  Stats stats;
  stats.events = events_.size();
  stats.duration_ms = duration_ms();
  std::set<std::uint32_t> clients;
  std::set<std::uint64_t> objects;
  std::size_t writes = 0;
  for (const auto& event : events_) {
    clients.insert(event.client);
    objects.insert(event.object);
    writes += event.is_write;
  }
  stats.distinct_clients = clients.size();
  stats.distinct_objects = objects.size();
  const auto events = static_cast<double>(events_.size());
  stats.write_fraction = events_.empty() ? 0.0 : static_cast<double>(writes) / events;
  return stats;
}

Trace generate_session_trace(const SessionTraceConfig& config, std::uint64_t seed) {
  GEORED_ENSURE(config.clients >= 1, "trace needs at least one client");
  GEORED_ENSURE(config.objects >= 1, "trace needs at least one object");
  GEORED_ENSURE(config.duration_ms > 0.0, "trace duration must be positive");
  GEORED_ENSURE(config.session_rate > 0.0, "session rate must be positive");
  GEORED_ENSURE(config.mean_requests_per_session >= 1.0,
                "sessions must issue at least one request on average");
  GEORED_ENSURE(config.mean_think_time_ms >= 0.0, "think time must be non-negative");
  GEORED_ENSURE(config.write_fraction >= 0.0 && config.write_fraction <= 1.0,
                "write fraction must be a probability");
  GEORED_ENSURE(config.min_bytes <= config.max_bytes, "byte range must be ordered");

  Rng rng(seed);
  const ZipfSampler popularity(config.objects, config.zipf_exponent);
  // Popularity ranks are shuffled onto object ids so hot objects are not
  // always the low ids.
  const auto rank_to_object = rng.permutation(config.objects);

  std::vector<TraceEvent> events;
  for (std::uint32_t client = 0; client < config.clients; ++client) {
    Rng client_rng = rng.fork(client);
    double t = 0.0;
    while (true) {
      t += client_rng.exponential(config.session_rate);  // next session start
      if (t >= config.duration_ms) break;
      const auto requests =
          1 + client_rng.poisson(config.mean_requests_per_session - 1.0);
      double when = t;
      for (std::uint64_t q = 0; q < requests && when < config.duration_ms; ++q) {
        TraceEvent event;
        event.time_ms = when;
        event.client = client;
        event.object = rank_to_object[popularity.sample(client_rng)];
        event.bytes = static_cast<std::uint32_t>(
            client_rng.integer(config.min_bytes, config.max_bytes));
        event.is_write = client_rng.bernoulli(config.write_fraction);
        events.push_back(event);
        if (config.mean_think_time_ms > 0.0) {
          when += client_rng.exponential(1.0 / config.mean_think_time_ms);
        }
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time_ms < b.time_ms;
                   });
  return Trace(std::move(events));
}

}  // namespace geored::wl
