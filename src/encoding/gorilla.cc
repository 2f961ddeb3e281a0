#include "encoding/gorilla.h"

#include <bit>
#include <cstring>

#include "encoding/bit_stream.h"

namespace tsviz {

namespace {

uint64_t DoubleToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

Status EncodeGorilla(const Point* points, size_t count, std::string* dst) {
  if (count == 0) return Status::OK();
  BitWriter writer;
  uint64_t prev = DoubleToBits(points[0].v);
  writer.WriteBits(prev, 64);
  int prev_leading = -1;   // leading zeros of the previous XOR window
  int prev_trailing = -1;  // trailing zeros of the previous XOR window
  for (size_t i = 1; i < count; ++i) {
    uint64_t bits = DoubleToBits(points[i].v);
    uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      writer.WriteBit(false);  // control '0': same value
      continue;
    }
    writer.WriteBit(true);
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      // Control '10': meaningful bits fit inside the previous window.
      writer.WriteBit(false);
      int meaningful = 64 - prev_leading - prev_trailing;
      writer.WriteBits(x >> prev_trailing, meaningful);
    } else {
      // Control '11': new window = 5-bit leading count + 6-bit length.
      writer.WriteBit(true);
      int meaningful = 64 - leading - trailing;
      writer.WriteBits(static_cast<uint64_t>(leading), 5);
      // meaningful is in [1, 64]; store 64 as 0 in the 6-bit field.
      writer.WriteBits(static_cast<uint64_t>(meaningful & 63), 6);
      writer.WriteBits(x >> trailing, meaningful);
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }
  dst->append(writer.Finish());
  return Status::OK();
}

Status DecodeGorilla(std::string_view src, size_t count, Point* out) {
  if (count == 0) return Status::OK();
  BitReader reader(src);
  uint64_t prev = reader.Read(64);
  out[0].v = BitsToDouble(prev);
  // The current XOR window: payload width (0 before the first window) and
  // trailing zeros.
  int meaningful = 0;
  int trailing = 0;
  for (size_t i = 1; i < count; ++i) {
    if (reader.Read(1) != 0) {
      if (reader.Read(1) != 0) {
        // Control '11': new window = 5-bit leading count + 6-bit length.
        const uint64_t header = reader.Read(11);
        meaningful = header & 63 ? static_cast<int>(header & 63) : 64;
        trailing = 64 - static_cast<int>(header >> 6) - meaningful;
        if (trailing < 0) return Status::Corruption("bad gorilla window");
      } else if (meaningful == 0) {
        return Status::Corruption("gorilla reuse before any window");
      }
      prev ^= reader.Read(meaningful) << trailing;
    }
    out[i].v = BitsToDouble(prev);
  }
  // Reads past the end return zeros, so a truncated block is only detected
  // here; the values written so far are garbage and the caller drops them.
  if (reader.exhausted()) return Status::Corruption("bit stream exhausted");
  return Status::OK();
}

}  // namespace tsviz
