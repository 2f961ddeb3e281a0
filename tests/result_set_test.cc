#include "sql/result_set.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace tsviz::sql {
namespace {

std::string Printf10g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void ExpectMatchesPrintf(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  ASSERT_EQ(ResultSet::CellToString(ResultSet::Cell(value)), Printf10g(value))
      << "bits 0x" << std::hex << bits;
}

// Double cells must render exactly as printf's "%.10g" does, bit pattern
// for bit pattern: uniform 64-bit patterns cover every exponent, sign and
// NaN payload.
TEST(ResultSetTest, DoubleCellsMatchPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20240611);
  for (int i = 0; i < 1000000; ++i) ExpectMatchesPrintf(FromBits(rng()));
}

TEST(ResultSetTest, DoubleCellsMatchPrintfOnEdgeValues) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5, 1e300, -1e-300,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
      -limits::quiet_NaN(), FromBits(0x7ff0000000000001ull),  // signaling
      FromBits(0xfff8000000000001ull)};
  // Where "%.10g" switches between fixed and exponent notation: exponent
  // -5 vs -4 at the small end, 10 digits at the large end, including the
  // values that only cross a boundary after rounding to 10 digits.
  for (double pivot : {1e-5, 1e-4, 9.9999999995e-5, 9.99999999949e-5, 1e9,
                       1e10, 9999999999.0, 9999999999.5, 9999999999.4999}) {
    double up = pivot;
    double down = pivot;
    for (int step = 0; step < 64; ++step) {
      values.push_back(up);
      values.push_back(-down);
      up = std::nextafter(up, limits::infinity());
      down = std::nextafter(down, 0.0);
    }
  }
  for (double value : values) ExpectMatchesPrintf(value);
}

TEST(ResultSetTest, IntegerCellsMatchToString) {
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{42},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ResultSet::CellToString(ResultSet::Cell(value)),
              std::to_string(value));
  }
}

TEST(ResultSetTest, CsvAndTableRenderCellsLikeCellToString) {
  ResultSet result({"a", "b", "c", "d"});
  result.AddRow({ResultSet::Cell(int64_t{-7}), ResultSet::Cell(0.1),
                 ResultSet::Cell(std::string("text")), ResultSet::Cell()});
  result.AddRow({ResultSet::Cell(std::numeric_limits<int64_t>::max()),
                 ResultSet::Cell(-1e-300), ResultSet::Cell(std::string()),
                 ResultSet::Cell(std::numeric_limits<double>::infinity())});
  EXPECT_EQ(result.ToCsv(),
            "a,b,c,d\n"
            "-7,0.1,text,null\n"
            "9223372036854775807,-1e-300,,inf\n");
  EXPECT_EQ(result.ToString(),
            "a                    b        c     d     \n"
            "-------------------  -------  ----  ----  \n"
            "-7                   0.1      text  null  \n"
            "9223372036854775807  -1e-300        inf   \n");
}

// Rows made on demand are built once, only when cells are read; shared CSV
// text is returned as is until a row change drops it.
TEST(ResultSetTest, OnDemandRowsAndSharedCsv) {
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return std::vector<ResultSet::Row>{{ResultSet::Cell(int64_t{1})},
                                       {ResultSet::Cell(int64_t{2})}};
  };
  ResultSet rendered({"n"}, 2, build);
  const std::string csv = rendered.ToCsv();
  EXPECT_EQ(csv, "n\n1\n2\n");
  EXPECT_EQ(builds, 1);

  // With shared text, ToCsv builds nothing; rows() builds once on demand.
  auto shared = std::make_shared<const std::string>(csv);
  ResultSet result({"n"}, 2, build, shared);
  EXPECT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.ToCsv(), csv);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(result.rows()[1][0], ResultSet::Cell(int64_t{2}));
  EXPECT_EQ(result.rows().size(), 2u);
  EXPECT_EQ(builds, 2);

  ResultSet truncated({"n"}, 2, build, shared);
  truncated.Truncate(2);  // keeps every row: the text still holds
  EXPECT_EQ(builds, 2);
  truncated.Truncate(1);
  EXPECT_EQ(truncated.ToCsv(), "n\n1\n");
  ResultSet appended({"n"}, 2, build, shared);
  appended.AddRow({ResultSet::Cell(int64_t{3})});
  EXPECT_EQ(appended.ToCsv(), "n\n1\n2\n3\n");
  EXPECT_EQ(builds, 4);
}

}  // namespace
}  // namespace tsviz::sql
