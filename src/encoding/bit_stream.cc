#include "encoding/bit_stream.h"

namespace tsviz {

void BitWriter::WriteBits(uint64_t value, int bits) {
  if (bits <= 0) return;
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  for (int i = bits - 1; i >= 0; --i) {
    if (bits_in_last_ == 0) bytes_.push_back('\0');
    uint8_t bit = static_cast<uint8_t>((value >> i) & 1);
    bytes_.back() = static_cast<char>(
        static_cast<uint8_t>(bytes_.back()) |
        static_cast<uint8_t>(bit << (7 - bits_in_last_)));
    bits_in_last_ = (bits_in_last_ + 1) % 8;
  }
  bit_count_ += static_cast<size_t>(bits);
}

std::string BitWriter::Finish() {
  bits_in_last_ = 0;
  return std::move(bytes_);
}

Result<uint64_t> BitReader::ReadBits(int bits) {
  if (bits < 0 || bits > 64) {
    return Status::InvalidArgument("bit count out of range");
  }
  if (static_cast<size_t>(bits) > bits_remaining()) {
    return Status::Corruption("bit stream exhausted");
  }
  return Read(bits);
}

}  // namespace tsviz
