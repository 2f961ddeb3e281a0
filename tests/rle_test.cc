#include "encoding/rle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "encoding/page.h"
#include "test_util.h"

namespace tsviz {
namespace {

void ExpectRoundTrip(const std::vector<Value>& values) {
  const std::vector<Point> points = ValueColumn(values);
  std::string buf;
  ASSERT_OK(EncodeRle(points.data(), points.size(), &buf));
  std::vector<Point> decoded(values.size());
  ASSERT_OK(DecodeRle(buf, values.size(), decoded.data()));
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(decoded[i].v));
    } else {
      EXPECT_EQ(decoded[i].v, values[i]) << i;
    }
  }
}

TEST(RleTest, EmptyAndSingle) {
  ExpectRoundTrip({});
  ExpectRoundTrip({42.0});
}

TEST(RleTest, ConstantSeriesIsTiny) {
  std::vector<Value> values(100000, 7.25);
  const std::vector<Point> points = ValueColumn(values);
  std::string buf;
  ASSERT_OK(EncodeRle(points.data(), points.size(), &buf));
  EXPECT_LT(buf.size(), 16u);  // one run: varint length + 8 value bytes
  ExpectRoundTrip(values);
}

TEST(RleTest, AlternatingValuesDegradeGracefully) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 2);
  const std::vector<Point> points = ValueColumn(values);
  std::string buf;
  ASSERT_OK(EncodeRle(points.data(), points.size(), &buf));
  EXPECT_LE(buf.size(), 1000u * 9);
  ExpectRoundTrip(values);
}

TEST(RleTest, DistinguishesSignedZerosAndNaN) {
  // RLE compares bit patterns: +0.0 and -0.0 are distinct runs, and NaN
  // round-trips bit-exactly.
  ExpectRoundTrip({0.0, -0.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()});
}

TEST(RleTest, RandomRunsRoundTrip) {
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    std::vector<Value> values;
    while (values.size() < 2000) {
      double v = std::round(rng.Gaussian(0, 10));
      size_t run = static_cast<size_t>(rng.Uniform(1, 50));
      values.insert(values.end(), run, v);
    }
    ExpectRoundTrip(values);
  }
}

TEST(RleTest, CorruptRunLengthRejected) {
  const std::vector<Point> points = ValueColumn({1.0, 1.0, 1.0});
  std::string buf;
  ASSERT_OK(EncodeRle(points.data(), points.size(), &buf));
  std::vector<Point> decoded(3);
  // Claiming fewer values than the run holds must fail, not overflow.
  EXPECT_EQ(DecodeRle(buf, 2, decoded.data()).code(),
            StatusCode::kCorruption);
  // Truncated input fails too.
  EXPECT_FALSE(
      DecodeRle(std::string_view(buf).substr(0, 3), 3, decoded.data()).ok());
}

TEST(RlePageTest, PageRoundTripWithRleValues) {
  std::vector<Point> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back(Point{i * 10, static_cast<double>(i / 60)});
  }
  std::string blob;
  PageInfo info;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kRle, &blob, &info));
  std::vector<Point> decoded;
  ASSERT_OK(DecodePage(blob, &decoded));
  EXPECT_EQ(decoded, points);
  // 5 runs of 60 + compact timestamps: far below plain encoding.
  EXPECT_LT(blob.size(), 500u);
}

}  // namespace
}  // namespace tsviz
