#include "p2pse/harness/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace p2pse::harness {
namespace {

FigureReport plot_report() {
  FigureReport r;
  r.id = "figX";
  r.title = "A Title";
  r.params = "nodes=10";
  r.notes = {"note one", "note two"};
  r.series.push_back(support::Series{"line", {1, 2, 3}, {4, 5, 6}, '*'});
  return r;
}

FigureReport table_report() {
  FigureReport r;
  r.id = "table1";
  r.title = "Overheads";
  r.table_columns = {"algo", "cost"};
  r.table_rows = {{"A", "10"}, {"B", "20"}};
  return r;
}

TEST(Report, PrintsHeaderTitleAndParams) {
  std::ostringstream out;
  print_report(out, plot_report());
  const std::string s = out.str();
  EXPECT_NE(s.find("== figX: A Title =="), std::string::npos);
  EXPECT_NE(s.find("nodes=10"), std::string::npos);
}

TEST(Report, PrintsNotes) {
  std::ostringstream out;
  print_report(out, plot_report());
  EXPECT_NE(out.str().find("- note one"), std::string::npos);
  EXPECT_NE(out.str().find("- note two"), std::string::npos);
}

TEST(Report, PlotModeEmitsCanvasAndCsv) {
  std::ostringstream out;
  print_report(out, plot_report());
  const std::string s = out.str();
  EXPECT_NE(s.find("legend:"), std::string::npos);
  EXPECT_NE(s.find("# csv: series,x,y"), std::string::npos);
  EXPECT_NE(s.find("# csv: line,1,4"), std::string::npos);
  EXPECT_NE(s.find("# csv: line,3,6"), std::string::npos);
}

TEST(Report, TableModeRendersAlignedColumns) {
  std::ostringstream out;
  print_report(out, table_report());
  const std::string s = out.str();
  EXPECT_NE(s.find("algo"), std::string::npos);
  EXPECT_NE(s.find("cost"), std::string::npos);
  EXPECT_NE(s.find("# csv: algo,cost"), std::string::npos);
  EXPECT_NE(s.find("# csv: A,10"), std::string::npos);
}

TEST(Report, CsvOnlyHelper) {
  std::ostringstream out;
  print_csv(out, table_report());
  EXPECT_EQ(out.str(), "# csv: algo,cost\n# csv: A,10\n# csv: B,20\n");
}

TEST(Report, CsvTruncatesToShortestAxis) {
  FigureReport r;
  r.series.push_back(support::Series{"s", {1, 2, 3}, {7}, '*'});
  std::ostringstream out;
  print_csv(out, r);
  EXPECT_EQ(out.str(), "# csv: series,x,y\n# csv: s,1,7\n");
}

TEST(Report, EmptyReportStillPrintsHeader) {
  FigureReport r;
  r.id = "empty";
  r.title = "Nothing";
  std::ostringstream out;
  print_report(out, r);
  EXPECT_NE(out.str().find("== empty: Nothing =="), std::string::npos);
}

}  // namespace
}  // namespace p2pse::harness
