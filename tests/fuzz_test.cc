// Failure-injection sweeps: random corruption anywhere in the on-disk state
// must surface as a Status error or clean recovery — never a crash, hang, or
// silent wrong answer that the checksums should have caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <tuple>

#include "common/random.h"
#include "encoding/gorilla.h"
#include "encoding/page.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "encoding/ts2diff.h"
#include "encoding/varint.h"
#include "m4/m4_udf.h"
#include "read/series_reader.h"
#include "storage/chunk_metadata.h"
#include "storage/wal.h"
#include "test_util.h"

namespace tsviz {
namespace {

namespace fs = std::filesystem;

StoreConfig TestConfig(const std::string& dir) {
  StoreConfig config;
  config.data_dir = dir;
  config.points_per_chunk = 50;
  config.memtable_flush_threshold = 50;
  config.encoding.page_size_points = 16;
  return config;
}

void FlipByteAt(const std::string& path, size_t pos, uint8_t mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(pos));
  char c;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(pos));
  c = static_cast<char>(c ^ mask);
  f.write(&c, 1);
}

// Builds a store, flips one random byte of the data file, and checks that
// every outcome is clean: open fails, or open succeeds and reads either
// fail or return data.
class DataFileFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataFileFuzz, SingleByteFlipNeverCrashes) {
  Rng rng(GetParam());
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                         TsStore::Open(TestConfig(dir.path())));
    ASSERT_OK(store->WriteAll(MakeLinearSeries(200, 0, 10)));
    ASSERT_OK(store->Flush());
    ASSERT_OK(store->DeleteRange(TimeRange(50, 120)));
  }
  std::string data_file = dir.path() + "/f1.tsdat";
  auto size = fs::file_size(data_file);
  for (int flip = 0; flip < 16; ++flip) {
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(size) - 1));
    uint8_t mask = static_cast<uint8_t>(rng.Uniform(1, 255));
    FlipByteAt(data_file, pos, mask);

    auto store = TsStore::Open(TestConfig(dir.path()));
    if (store.ok()) {
      // Metadata survived (flip hit the data region or was masked):
      // reading chunk data must fail cleanly or produce points.
      for (const ChunkHandle& handle : (*store)->chunks()) {
        LazyChunk chunk(handle, nullptr);
        auto points = chunk.ReadAllPoints();
        if (points.ok()) {
          EXPECT_EQ(points->size(), handle.meta->count);
        }
      }
      auto m4 = RunM4Udf(**store, M4Query{0, 2000, 8}, nullptr);
      (void)m4;  // any Status is fine; absence of UB is the assertion
      store->reset();
    }
    FlipByteAt(data_file, pos, mask);  // restore for the next round
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataFileFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

TEST(FuzzTest, GarbageModsFileRejected) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                         TsStore::Open(TestConfig(dir.path())));
    ASSERT_OK(store->WriteAll(MakeLinearSeries(50, 0, 10)));
  }
  {
    std::ofstream mods(dir.path() + "/deletes.mods", std::ios::binary);
    mods << "not a mods file at all";
  }
  EXPECT_EQ(TsStore::Open(TestConfig(dir.path())).status().code(),
            StatusCode::kCorruption);
}

TEST(FuzzTest, GarbageWalIsSkippedAsTornTail) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                         TsStore::Open(TestConfig(dir.path())));
    ASSERT_OK(store->WriteAll(MakeLinearSeries(50, 0, 10)));
    ASSERT_OK(store->Flush());
  }
  {
    std::ofstream wal(dir.path() + "/wal.log", std::ios::binary);
    std::string junk(300, '\x5a');
    wal.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  // The whole log reads as a torn tail: recovered store has an empty
  // memtable but intact flushed data.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  EXPECT_EQ(store->memtable_size(), 0u);
  EXPECT_EQ(store->TotalStoredPoints(), 50u);
}

// Random-bytes decoders: every parser must reject garbage via Status.
class RandomBytesFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBytesFuzz, ParsersRejectGarbage) {
  Rng rng(GetParam());
  std::string junk;
  size_t n = static_cast<size_t>(rng.Uniform(0, 500));
  for (size_t i = 0; i < n; ++i) {
    junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }

  {
    std::vector<Point> out;
    (void)DecodePage(junk, &out);  // must not crash
  }
  {
    std::string_view cursor = junk;
    (void)ChunkMetadata::Deserialize(&cursor);
  }
  {
    std::string_view cursor = junk;
    (void)StepRegressionModel::Deserialize(&cursor);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// A page's worth of points that drives every branch of every codec:
// irregular cadences (multi-byte delta-of-deltas), repeated values (Gorilla
// '0' and RLE runs), small steps (window reuse) and jumps (new windows).
std::vector<Point> CodecFuzzPoints() {
  Rng rng(77);
  std::vector<Point> points;
  Timestamp t = -5000;
  double v = 12.5;
  for (int i = 0; i < 96; ++i) {
    t += rng.Uniform(1, i % 7 == 0 ? 1000000 : 20);
    switch (rng.Uniform(0, 3)) {
      case 0:
        break;  // repeat
      case 1:
        v += 0.25;
        break;
      case 2:
        v = rng.Gaussian(0, 1e9);
        break;
      default:
        v = static_cast<double>(rng.Uniform(-3, 3));
    }
    points.push_back(Point{t, v});
  }
  return points;
}

// `bytes` copied into an exact-size heap block, so a sanitizer flags any
// read past its end (a std::string's spare capacity would hide it).
class ExactCopy {
 public:
  explicit ExactCopy(std::string_view bytes)
      : data_(new char[bytes.size()]), size_(bytes.size()) {
    if (size_ > 0) std::memcpy(data_.get(), bytes.data(), size_);
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  size_t size_;
};

// Decodes one column block into out[0..count).
using ColumnDecoder =
    std::function<Status(std::string_view, size_t, Point*)>;

struct ColumnCodec {
  const char* name;
  std::function<Status(const std::vector<Point>&, std::string*)> encode;
  ColumnDecoder decode;
  bool timestamps;  // decodes the t column (else the v column)
};

std::vector<ColumnCodec> ColumnCodecs() {
  return {
      {"ts2diff",
       [](const std::vector<Point>& p, std::string* dst) {
         return EncodeTs2Diff(p.data(), p.size(), dst);
       },
       [](std::string_view src, size_t n, Point* out) {
         return DecodeTs2Diff(&src, n, out);
       },
       true},
      {"plain_ts",
       [](const std::vector<Point>& p, std::string* dst) {
         return EncodePlainTimestamps(p.data(), p.size(), dst);
       },
       [](std::string_view src, size_t n, Point* out) {
         return DecodePlainTimestamps(&src, n, out);
       },
       true},
      {"gorilla",
       [](const std::vector<Point>& p, std::string* dst) {
         return EncodeGorilla(p.data(), p.size(), dst);
       },
       DecodeGorilla, false},
      {"rle",
       [](const std::vector<Point>& p, std::string* dst) {
         return EncodeRle(p.data(), p.size(), dst);
       },
       DecodeRle, false},
      {"plain_values",
       [](const std::vector<Point>& p, std::string* dst) {
         return EncodePlainValues(p.data(), p.size(), dst);
       },
       DecodePlainValues, false},
  };
}

// Every codec, every truncation length of its block: the decoder sees an
// exact-size buffer and must report a non-OK Status for every proper
// prefix and the original column for the whole block. This is where an
// over-read by the word-at-a-time loads would show.
TEST(CodecFuzz, TruncatedBlocksAtEveryByte) {
  const std::vector<Point> points = CodecFuzzPoints();
  for (const ColumnCodec& codec : ColumnCodecs()) {
    SCOPED_TRACE(codec.name);
    std::string block;
    ASSERT_OK(codec.encode(points, &block));
    for (size_t len = 0; len <= block.size(); ++len) {
      const ExactCopy copy(std::string_view(block).substr(0, len));
      std::vector<Point> out(points.size());
      const Status status = codec.decode(copy.view(), out.size(), out.data());
      if (len < block.size()) {
        EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes";
        continue;
      }
      ASSERT_OK(status);
      for (size_t i = 0; i < points.size(); ++i) {
        if (codec.timestamps) {
          ASSERT_EQ(out[i].t, points[i].t) << i;
        } else {
          ASSERT_EQ(std::memcmp(&out[i].v, &points[i].v, sizeof(double)), 0)
              << i;
        }
      }
    }
  }
}

class PageFuzz
    : public ::testing::TestWithParam<std::tuple<TsCodec, ValueCodec>> {
 protected:
  std::string EncodedPage() const {
    auto [ts_codec, value_codec] = GetParam();
    std::string blob;
    EXPECT_OK(EncodePage(points_.data(), points_.size(), ts_codec,
                         value_codec, &blob, nullptr));
    return blob;
  }

  // Decodes `bytes` from an exact-size copy after a sentinel point: the
  // result must be a non-OK Status that leaves the output untouched, or
  // exactly the original points.
  void ExpectCleanOutcome(std::string_view bytes) const {
    const ExactCopy copy(bytes);
    const Point sentinel{-1, -1.0};
    std::vector<Point> out = {sentinel};
    const Status status = DecodePage(copy.view(), &out);
    if (!status.ok()) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], sentinel);
      return;
    }
    ASSERT_EQ(out.size(), points_.size() + 1);
    EXPECT_TRUE(std::equal(points_.begin(), points_.end(), out.begin() + 1));
  }

  const std::vector<Point> points_ = CodecFuzzPoints();
};

TEST_P(PageFuzz, TruncatedAtEveryByte) {
  const std::string blob = EncodedPage();
  ExpectCleanOutcome(blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    SCOPED_TRACE(len);
    ExpectCleanOutcome(std::string_view(blob).substr(0, len));
  }
}

TEST_P(PageFuzz, EveryBitFlipped) {
  std::string blob = EncodedPage();
  for (size_t bit = 0; bit < blob.size() * 8; ++bit) {
    SCOPED_TRACE(bit);
    blob[bit / 8] = static_cast<char>(blob[bit / 8] ^ (0x80 >> (bit % 8)));
    ExpectCleanOutcome(blob);
    blob[bit / 8] = static_cast<char>(blob[bit / 8] ^ (0x80 >> (bit % 8)));
  }
}

// The checksum stops every flip above before a decoder runs. Re-sealing the
// page after each flip hands the damaged blocks to the decoders themselves:
// a flip there may decode to different but well-formed points, so the
// check is that decoding fails cleanly or yields a page that keeps the
// format's invariants.
TEST_P(PageFuzz, ResealedBitFlipsReachTheDecoders) {
  const std::string blob = EncodedPage();
  std::string body = blob.substr(0, blob.size() - 8);
  for (size_t bit = 0; bit < body.size() * 8; ++bit) {
    SCOPED_TRACE(bit);
    body[bit / 8] = static_cast<char>(body[bit / 8] ^ (0x80 >> (bit % 8)));
    std::string sealed = body;
    PutFixed64(&sealed, Fnv1a64(body));
    const ExactCopy copy(sealed);
    std::vector<Point> out;
    if (DecodePage(copy.view(), &out).ok()) {
      ASSERT_FALSE(out.empty());
      for (size_t i = 1; i < out.size(); ++i) {
        ASSERT_LT(out[i - 1].t, out[i].t) << i;
      }
    } else {
      EXPECT_TRUE(out.empty());
    }
    body[bit / 8] = static_cast<char>(body[bit / 8] ^ (0x80 >> (bit % 8)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, PageFuzz,
    ::testing::Values(std::make_tuple(TsCodec::kTs2Diff, ValueCodec::kGorilla),
                      std::make_tuple(TsCodec::kPlain, ValueCodec::kGorilla),
                      std::make_tuple(TsCodec::kTs2Diff, ValueCodec::kRle),
                      std::make_tuple(TsCodec::kTs2Diff, ValueCodec::kPlain)));

}  // namespace
}  // namespace tsviz
