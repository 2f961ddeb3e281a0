#include "encoding/bit_stream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "test_util.h"

namespace tsviz {
namespace {

TEST(BitStreamTest, SingleBits) {
  BitWriter writer;
  writer.WriteBit(true);
  writer.WriteBit(false);
  writer.WriteBit(true);
  std::string bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0b10100000);

  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t b1, reader.ReadBits(1));
  ASSERT_OK_AND_ASSIGN(uint64_t b2, reader.ReadBits(1));
  ASSERT_OK_AND_ASSIGN(uint64_t b3, reader.ReadBits(1));
  EXPECT_EQ(b1, 1u);
  EXPECT_EQ(b2, 0u);
  EXPECT_EQ(b3, 1u);
}

TEST(BitStreamTest, MultiBitValuesCrossByteBoundaries) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0xdead, 16);
  writer.WriteBits(0x1ffffffffull, 33);
  std::string bytes = writer.Finish();

  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t a, reader.ReadBits(3));
  ASSERT_OK_AND_ASSIGN(uint64_t b, reader.ReadBits(16));
  ASSERT_OK_AND_ASSIGN(uint64_t c, reader.ReadBits(33));
  EXPECT_EQ(a, 0b101u);
  EXPECT_EQ(b, 0xdeadu);
  EXPECT_EQ(c, 0x1ffffffffull);
}

TEST(BitStreamTest, Full64BitValue) {
  BitWriter writer;
  writer.WriteBits(0xfedcba9876543210ull, 64);
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(64));
  EXPECT_EQ(v, 0xfedcba9876543210ull);
}

TEST(BitStreamTest, WriterMasksHighBits) {
  BitWriter writer;
  writer.WriteBits(0xff, 4);  // only the low 4 bits count
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(4));
  EXPECT_EQ(v, 0xfu);
}

TEST(BitStreamTest, ZeroBitWriteAndRead) {
  BitWriter writer;
  writer.WriteBits(123, 0);
  EXPECT_EQ(writer.bit_count(), 0u);
  std::string bytes = writer.Finish();
  EXPECT_TRUE(bytes.empty());
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(0));
  EXPECT_EQ(v, 0u);
}

TEST(BitStreamTest, ReadPastEndIsCorruption) {
  BitWriter writer;
  writer.WriteBits(0b1010, 4);
  std::string bytes = writer.Finish();  // padded to 8 bits
  BitReader reader(bytes);
  ASSERT_OK(reader.ReadBits(8).status());
  EXPECT_EQ(reader.ReadBits(1).status().code(), StatusCode::kCorruption);
}

TEST(BitStreamTest, InvalidBitCountRejected) {
  BitReader reader("somedata");
  EXPECT_EQ(reader.ReadBits(65).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.ReadBits(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BitStreamTest, RandomRoundTrip) {
  Rng rng(99);
  std::vector<std::pair<uint64_t, int>> items;
  BitWriter writer;
  for (int i = 0; i < 2000; ++i) {
    int bits = static_cast<int>(rng.Uniform(1, 64));
    uint64_t value = static_cast<uint64_t>(rng.Uniform(0, 1 << 30)) *
                     static_cast<uint64_t>(rng.Uniform(0, 1 << 30));
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    items.emplace_back(value, bits);
    writer.WriteBits(value, bits);
  }
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  for (const auto& [value, bits] : items) {
    ASSERT_OK_AND_ASSIGN(uint64_t decoded, reader.ReadBits(bits));
    ASSERT_EQ(decoded, value);
  }
}

// Reference extraction, one bit at a time: `width` bits starting at bit
// `pos` of `bytes`, MSB-first.
uint64_t ReferenceBits(const std::string& bytes, size_t pos, int width) {
  uint64_t out = 0;
  for (int i = 0; i < width; ++i, ++pos) {
    const uint8_t byte = static_cast<uint8_t>(bytes[pos / 8]);
    out = (out << 1) | ((byte >> (7 - pos % 8)) & 1);
  }
  return out;
}

// Every width 1..64 at every start offset 0..7, with the read landing both
// in the middle of a long stream (the direct window load) and at its very
// end (the zero-padded tail copy). Offset 7 with widths above 57 spans nine
// bytes; a read whose end is a multiple of eight bits ends exactly on the
// last byte.
TEST(BitStreamTest, EveryWidthAtEveryOffset) {
  Rng rng(2024);
  for (int offset = 0; offset <= 7; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      for (int trailing : {0, 128}) {
        SCOPED_TRACE(testing::Message() << "offset " << offset << " width "
                                        << width << " trailing " << trailing);
        const uint64_t value =
            (static_cast<uint64_t>(rng.Uniform(0, 1 << 30)) << 34) ^
            static_cast<uint64_t>(rng.Uniform(0, int64_t{1} << 40));
        BitWriter writer;
        writer.WriteBits(0x55, offset);
        writer.WriteBits(value, width);
        writer.WriteBits(~value, trailing / 2);
        writer.WriteBits(value, trailing / 2);
        const std::string bytes = writer.Finish();
        const uint64_t expected = ReferenceBits(bytes, offset, width);
        ASSERT_EQ(expected,
                  width == 64 ? value : value & ((uint64_t{1} << width) - 1));

        BitReader checked(bytes);
        ASSERT_OK(checked.ReadBits(offset).status());
        ASSERT_OK_AND_ASSIGN(uint64_t got, checked.ReadBits(width));
        EXPECT_EQ(got, expected);

        BitReader fast(bytes);
        fast.Read(offset);
        EXPECT_EQ(fast.Read(width), expected);
        EXPECT_FALSE(fast.exhausted());
        if (trailing == 0 && (offset + width) % 8 == 0) {
          EXPECT_EQ(fast.bits_remaining(), 0u);
        }
      }
    }
  }
}

// Every truncation length of a stream, every width: a read that fits
// returns the reference bits, one that does not is kCorruption and
// consumes nothing, and the unchecked Read latches exhausted() instead.
TEST(BitStreamTest, ReadPastEndIsCorruptionAtEveryTruncation) {
  BitWriter writer;
  writer.WriteBits(0x0123456789abcdefull, 64);
  writer.WriteBits(0xfedcba9876543210ull, 64);
  writer.WriteBits(0x5a5a, 16);
  const std::string bytes = writer.Finish();
  for (size_t len = 0; len <= bytes.size(); ++len) {
    // An exact-size heap copy, so a sanitizer sees any over-read.
    std::unique_ptr<char[]> copy(new char[len]);
    std::memcpy(copy.get(), bytes.data(), len);
    const std::string_view view(copy.get(), len);
    for (int start = 0; start <= 7; ++start) {
      for (int width = 1; width <= 64; ++width) {
        SCOPED_TRACE(testing::Message() << "len " << len << " start "
                                        << start << " width " << width);
        if (static_cast<size_t>(start) > len * 8) continue;
        BitReader checked(view);
        ASSERT_OK(checked.ReadBits(start).status());
        Result<uint64_t> got = checked.ReadBits(width);
        BitReader fast(view);
        fast.Read(start);
        const uint64_t fast_got = fast.Read(width);
        if (static_cast<size_t>(start + width) <= len * 8) {
          ASSERT_OK(got.status());
          EXPECT_EQ(*got, ReferenceBits(bytes, start, width));
          EXPECT_EQ(fast_got, *got);
          EXPECT_FALSE(fast.exhausted());
        } else {
          EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
          EXPECT_EQ(checked.bits_consumed(), static_cast<size_t>(start));
          EXPECT_EQ(fast_got, 0u);
          EXPECT_TRUE(fast.exhausted());
          EXPECT_EQ(fast.bits_consumed(), static_cast<size_t>(start));
        }
      }
    }
    // Draining the stream exactly, then one more bit.
    BitReader drain(view);
    ASSERT_OK(drain.ReadBits(0).status());
    for (size_t i = 0; i < len; ++i) ASSERT_OK(drain.ReadBits(8).status());
    EXPECT_EQ(drain.bits_remaining(), 0u);
    EXPECT_EQ(drain.ReadBits(1).status().code(), StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace tsviz
