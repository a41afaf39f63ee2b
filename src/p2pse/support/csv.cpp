#include "p2pse/support/csv.hpp"

#include <cmath>
#include <cstdio>

namespace p2pse::support {

std::string csv_escape(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(std::ostream& out, std::string line_prefix)
    : out_(out), prefix_(std::move(line_prefix)) {}

void CsvWriter::header(const std::vector<std::string>& columns) {
  write_line(columns);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  write_line(fields);
}

void CsvWriter::row(const std::vector<double>& values, int precision) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (const double v : values) fields.push_back(format_double(v, precision));
  row(fields);
}

void CsvWriter::write_line(const std::vector<std::string>& fields) {
  out_ << prefix_;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

std::string format_double(double value, int precision) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // Integers print without a decimal point.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, value);
  return buf;
}

}  // namespace p2pse::support
