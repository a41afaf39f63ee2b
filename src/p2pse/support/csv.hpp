#pragma once
// Minimal CSV emission for the bench harness: every figure binary dumps its
// series as CSV (prefixed lines) so results can be re-plotted externally.

#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace p2pse::support {

/// RFC-4180 quoting: wraps fields containing commas, quotes or newlines.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Streams rows of a CSV table. Every line is prefixed with `line_prefix`
/// (the harness uses "# csv: " so the CSV coexists with human output).
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, std::string line_prefix = {});

  void header(const std::vector<std::string>& columns);
  void row(const std::vector<std::string>& fields);
  /// Convenience: numeric row, formatted with up to `precision` digits.
  void row(const std::vector<double>& values, int precision = 6);

 private:
  void write_line(const std::vector<std::string>& fields);
  std::ostream& out_;
  std::string prefix_;
};

/// Formats a double compactly (no trailing zeros beyond what's needed).
[[nodiscard]] std::string format_double(double value, int precision = 6);

}  // namespace p2pse::support
