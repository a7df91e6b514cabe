// Helpers shared by every benchmark workload: percentile rules, metric
// naming, failure accounting, the determinism digest, and the span tracer.
// Nothing here reaches into the library; the workloads time the library's
// public calls from the outside.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in fractional milliseconds since an arbitrary origin.
inline double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch()).count();
}

/// Machine-speed reference: a fixed compute kernel of the benchmark's own (a
/// nearest-centre search of 2048 points over 32 centres in 8 dimensions, six
/// passes). Shared machines change speed by up to 1.7x for seconds to
/// minutes at a time, as other tenants come and go; the kernel slows down
/// with them, so a CPU-bound time measured next to it can be restated at a
/// fixed machine speed. `checksum` depends only on the kernel's inputs.
struct ReferenceRun {
  double ms = 0.0;
  double checksum = 0.0;
};
ReferenceRun run_reference_kernel();

/// CPU-bound times are reported at the speed of a machine on which the
/// reference kernel takes kReferenceMs (about its time on an idle 4-vCPU
/// x86-64 KVM guest).
inline constexpr double kReferenceMs = 1.25;

/// Factor that restates a time measured next to a reference run of
/// `reference_ms` at reference speed (times scale by it, rates divide).
inline double reference_scale(double reference_ms) {
  return reference_ms > 0.0 ? kReferenceMs / reference_ms : 1.0;
}

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty. Sorts a
/// copy, so callers may pass samples in any order.
double quantile(std::vector<double> samples, double q);

/// Same, over samples already sorted ascending.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// A tail statistic: the value at `percentile` (whole percent, nearest rank)
/// over `samples` samples, of which `above` lie strictly above that rank.
struct Tail {
  int percentile = 50;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t above = 0;
};

/// The highest whole percentile that still has at least ten samples above
/// its nearest rank, never below the median: with fewer than twenty samples
/// no percentile above p50 qualifies and the median is returned. Empty
/// input gives a zero Tail.
Tail tail_percentile(std::vector<double> samples);

/// A metric or workload name: 1..64 characters of [A-Za-z0-9_.-], starting
/// with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Requests attempted and how each one ended. Every attempt ends exactly
/// once: completed, rejected by admission, lost (no live replica), or never
/// completed by the end of the run.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  std::uint64_t unfinished = 0;

  std::uint64_t failed() const { return rejected + lost + unfinished; }
  double failed_fraction() const;
  /// attempted == completed + failed.
  bool balanced() const { return attempted == completed + failed(); }
  void merge(const Accounting& other);
};

/// FNV-1a over a stream of typed values: the determinism digest. Doubles are
/// hashed by bit pattern, so two digests agree only on bit-identical input.
class Digest {
 public:
  void add_u64(std::uint64_t value);
  void add_double(double value);
  void add_string(const std::string& value);
  std::uint64_t value() const { return state_; }
  std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One named metric with its unit; `note` carries context such as the
/// sample count behind a tail percentile.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Ordered metric list; rejects invalid and duplicate names.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal for `text` (quotes and escapes included).
std::string json_string(const std::string& text);

/// A double rendered with all its significant digits (%.17g), or null for
/// a non-finite value.
std::string json_number(double value);

/// In-memory span tracer. A span records one call into a library layer:
/// its name, start and end, the span open around it (its parent), and the
/// epoch it belongs to. Disabled tracers record nothing, so untraced runs
/// pay one branch per boundary. Spans are kept in memory and written out at
/// the end of a run.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::uint32_t parent = kNoParent;
    std::uint64_t epoch = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  /// Per-name totals: spans, summed duration and summed self time (duration
  /// minus the part covered by direct children).
  struct LayerTotal {
    std::string name;
    std::uint64_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }

  /// Opens a span; returns its index (or kNoParent when disabled).
  std::uint32_t begin(const char* name);
  void end(std::uint32_t span);

  /// RAII span around one scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), span_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t span_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::vector<LayerTotal> totals() const;
  /// Total for one name (zeros when it never ran).
  LayerTotal total(const std::string& name) const;
  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_;
  std::uint64_t epoch_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::uint32_t> open_;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
