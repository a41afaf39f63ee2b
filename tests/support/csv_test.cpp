#include "p2pse/support/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace p2pse::support {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesFieldsWithComma) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, QuotesNewlines) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"x", "y"});
  csv.row({std::vector<std::string>{"1", "2"}});
  EXPECT_EQ(out.str(), "x,y\n1,2\n");
}

TEST(CsvWriter, AppliesLinePrefix) {
  std::ostringstream out;
  CsvWriter csv(out, "# csv: ");
  csv.header({"a"});
  csv.row({std::vector<std::string>{"b"}});
  EXPECT_EQ(out.str(), "# csv: a\n# csv: b\n");
}

TEST(CsvWriter, NumericRowFormatting) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row(std::vector<double>{1.0, 2.5, 100000.0});
  EXPECT_EQ(out.str(), "1,2.5,100000\n");
}

TEST(FormatDouble, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(format_double(3.0), "3");
  EXPECT_EQ(format_double(-42.0), "-42");
  EXPECT_EQ(format_double(1000000.0), "1000000");
}

TEST(FormatDouble, FractionsKeepPrecision) {
  EXPECT_EQ(format_double(2.5), "2.5");
  EXPECT_EQ(format_double(0.125), "0.125");
}

TEST(FormatDouble, SpecialValues) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
}

}  // namespace
}  // namespace p2pse::support
