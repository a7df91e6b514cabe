#include "helpers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

Tail tail_percentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank_of = [n](int percentile) {
    const auto r = static_cast<std::size_t>(
        std::ceil(static_cast<double>(percentile) * static_cast<double>(n) / 100.0));
    return std::clamp<std::size_t>(r, 1, n);
  };
  int best = 50;
  for (int p = 99; p > 50; --p) {
    if (n - rank_of(p) >= 10) {
      best = p;
      break;
    }
  }
  const std::size_t rank = rank_of(best);
  tail.percentile = best;
  tail.value = samples[rank - 1];
  tail.above = n - rank;
  return tail;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

double Accounting::failed_fraction() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) / static_cast<double>(attempted);
}

void Accounting::merge(const Accounting& other) {
  attempted += other.attempted;
  completed += other.completed;
  rejected += other.rejected;
  lost += other.lost;
  unfinished += other.unfinished;
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_u64(std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  add_bytes(bytes, sizeof bytes);
}

void Digest::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

void Digest::add_string(const std::string& value) {
  add_u64(value.size());
  add_bytes(value.data(), value.size());
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(state_));
  return buffer;
}

void MetricSet::add(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  if (!valid_metric_name(name)) throw std::invalid_argument("invalid metric name: " + name);
  if (find(name) != nullptr) throw std::invalid_argument("duplicate metric: " + name);
  metrics_.push_back({name, value, unit, note});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    if (i > 0) out += ", ";
    out += json_string(metric.name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (!metric.note.empty()) out += ", \"note\": " + json_string(metric.note);
    out += "}";
  }
  return out + "}";
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.epoch = epoch_;
  span.start_ms = now_ms();
  spans_.push_back(span);
  const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t span) {
  if (!enabled_ || span == kNoParent) return;
  spans_[span].end_ms = now_ms();
  // Spans close in LIFO order (they are scopes); tolerate a mismatch by
  // popping down to this span.
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

std::vector<Tracer::LayerTotal> Tracer::totals() const {
  std::vector<LayerTotal> out(names_.size());
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) child_ms[span.parent] += span.end_ms - span.start_ms;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTotal& total = out[span.name];
    const double duration = span.end_ms - span.start_ms;
    ++total.spans;
    total.total_ms += duration;
    total.self_ms += duration - child_ms[i];
  }
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  return out;
}

Tracer::LayerTotal Tracer::total(const std::string& name) const {
  for (const auto& layer : totals()) {
    if (layer.name == name) return layer;
  }
  LayerTotal empty;
  empty.name = name;
  return empty;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(names_[span.name])
        << ", \"parent\": "
        << (span.parent == kNoParent ? std::string("null") : std::to_string(span.parent))
        << ", \"epoch\": " << span.epoch << ", \"start_ms\": " << json_number(span.start_ms)
        << ", \"end_ms\": " << json_number(span.end_ms) << "}\n";
  }
  return static_cast<bool>(out);
}

ReferenceRun run_reference_kernel() {
  constexpr std::size_t kPoints = 2048;
  constexpr std::size_t kCentres = 32;
  constexpr std::size_t kDim = 8;
  constexpr int kPasses = 6;
  // Logistic-map coordinates in (0, 1): fixed, and not foldable by the
  // compiler since the kernel reads them through a static vector.
  static const std::vector<double> points = [] {
    std::vector<double> values(kPoints * kDim);
    double x = 0.1;
    for (auto& value : values) {
      x = 3.7 * x * (1.0 - x);
      value = x;
    }
    return values;
  }();
  const double start = now_ms();
  double checksum = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kPoints; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_centre = 0;
      for (std::size_t c = 0; c < kCentres; ++c) {
        double d = 0.0;
        for (std::size_t k = 0; k < kDim; ++k) {
          const double t = points[i * kDim + k] - points[c * kDim + k];
          d += t * t;
        }
        if (d < best) {
          best = d;
          best_centre = c;
        }
      }
      checksum += best + static_cast<double>(best_centre);
    }
  }
  return {now_ms() - start, checksum};
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
