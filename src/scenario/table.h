// Shared result-formatting helpers for experiment harnesses.
//
// Every experiment front-end — the scenario runner, the figure benches, the
// ablation binaries — renders the same three shapes: a titled setup header,
// a fixed-width numeric table (one row per x-value, one column per series),
// and PASS/FAIL shape checks. This header is the single home for those
// helpers plus the deterministic number formatting the scenario engine's
// jsonl output depends on; bench/bench_util.h forwards here so the legacy
// harnesses and the engine print through one implementation.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace geored::scenario {

inline void print_header(const std::string& title, const std::string& setup) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", setup.c_str());
  std::printf("==============================================================\n");
}

inline void print_row_header(const std::string& x_label,
                             const std::vector<std::string>& series) {
  std::printf("%-22s", x_label.c_str());
  for (const auto& name : series) std::printf("%18s", name.c_str());
  std::printf("\n");
}

inline void print_row(double x, const std::vector<double>& values) {
  std::printf("%-22.0f", x);
  for (const double v : values) std::printf("%18.2f", v);
  std::printf("\n");
}

/// Prints one `[PASS]`/`[FAIL]` shape check and returns `passed`, so a
/// harness can fold its checks into its exit status.
inline bool print_check(const std::string& description, bool passed) {
  std::printf("  [%s] %s\n", passed ? "PASS" : "FAIL", description.c_str());
  return passed;
}

/// Shortest round-trippable decimal rendering of `v` (printf %.10g): the
/// same bytes on every platform and thread count for the same double, which
/// is what makes scenario jsonl byte-reproducible. Not locale-sensitive.
inline std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", v);
  return std::string(buffer);
}

/// A plain-text table with per-column widths fitted to the content:
/// set_columns once, add_row repeatedly (cells pre-rendered as strings),
/// then to_string. Right-aligns every cell, two spaces between columns.
class TextTable {
 public:
  void set_columns(std::vector<std::string> names) {
    columns_ = std::move(names);
    widths_.assign(columns_.size(), 0);
    for (std::size_t c = 0; c < columns_.size(); ++c) widths_[c] = columns_[c].size();
  }

  void add_row(std::vector<std::string> cells) {
    for (std::size_t c = 0; c < cells.size() && c < widths_.size(); ++c) {
      if (cells[c].size() > widths_[c]) widths_[c] = cells[c].size();
    }
    rows_.push_back(std::move(cells));
  }

  std::string to_string() const {
    std::string out;
    append_row(out, columns_);
    for (const auto& row : rows_) append_row(out, row);
    return out;
  }

 private:
  void append_row(std::string& out, const std::vector<std::string>& cells) const {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out += "  ";
      const std::size_t width = c < widths_.size() ? widths_[c] : cells[c].size();
      for (std::size_t pad = cells[c].size(); pad < width; ++pad) out += ' ';
      out += cells[c];
    }
    out += '\n';
  }

  std::vector<std::string> columns_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace geored::scenario
