#ifndef TSVIZ_ENCODING_BIT_STREAM_H_
#define TSVIZ_ENCODING_BIT_STREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tsviz {

// Append-only MSB-first bit writer over a byte buffer. Used by the Gorilla
// value codec, which emits sub-byte control codes.
class BitWriter {
 public:
  BitWriter() = default;

  // Appends the lowest `bits` bits of `value`, most significant bit first.
  void WriteBits(uint64_t value, int bits);
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  // Pads the current byte with zero bits and returns the buffer.
  std::string Finish();

  size_t bit_count() const { return bit_count_; }

 private:
  std::string bytes_;
  int bits_in_last_ = 0;  // number of valid bits in the last byte (0..7)
  size_t bit_count_ = 0;
};

// MSB-first bit reader over a byte view. A read of up to 64 bits starting at
// bit offset o of byte b spans bytes b..b+8, so every read loads that 72-bit
// window with one bounds check: while nine bytes remain the window comes
// straight from the view, and only the last reads of a stream go through a
// zero-padded copy of its tail. Nothing outside the view is ever touched, so
// corrupt pages fail cleanly rather than over-read.
class BitReader {
 public:
  explicit BitReader(std::string_view data)
      : data_(reinterpret_cast<const uint8_t*>(data.data())),
        size_(data.size()) {}

  // Decoder hot path: returns the next `bits` bits (0 <= bits <= 64). When
  // fewer remain it returns 0, consumes nothing and latches exhausted(), so
  // a decoder checks once after its loop instead of once per read.
  uint64_t Read(int bits) {
    const size_t byte = pos_ >> 3;
    const int offset = static_cast<int>(pos_ & 7);
    uint64_t window;
    if (byte + 9 <= size_) [[likely]] {
      window = Window(data_ + byte, offset);
    } else {
      if (static_cast<size_t>(bits) > bits_remaining()) {
        exhausted_ = true;
        return 0;
      }
      uint8_t tail[9] = {};
      for (size_t i = byte; i < size_; ++i) tail[i - byte] = data_[i];
      window = Window(tail, offset);
    }
    pos_ += static_cast<size_t>(bits);
    return bits == 0 ? 0 : window >> (64 - bits);
  }
  bool exhausted() const { return exhausted_; }

  // Checked form: kInvalidArgument for a count outside [0, 64],
  // kCorruption for a read past the end (which consumes nothing).
  Result<uint64_t> ReadBits(int bits);

  size_t bits_consumed() const { return pos_; }
  size_t bits_remaining() const { return size_ * 8 - pos_; }

 private:
  // The 64 bits starting at bit `offset` (0..7) of p[0], MSB-aligned; p[8]
  // supplies the low `offset` bits.
  static uint64_t Window(const uint8_t* p, int offset) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return (word << offset) | (uint64_t{p[8]} >> (8 - offset));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;  // bit offset from the start of data_
  bool exhausted_ = false;
};

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_BIT_STREAM_H_
