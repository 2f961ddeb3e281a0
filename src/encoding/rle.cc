#include "encoding/rle.h"

#include <cstring>

#include "encoding/varint.h"

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

Status EncodeRle(const Point* points, size_t count, std::string* dst) {
  size_t i = 0;
  while (i < count) {
    uint64_t bits = DoubleToBits(points[i].v);
    size_t run = 1;
    while (i + run < count && DoubleToBits(points[i + run].v) == bits) {
      ++run;
    }
    PutVarint64(dst, run);
    PutFixed64(dst, bits);
    i += run;
  }
  return Status::OK();
}

Status DecodeRle(std::string_view src, size_t count, Point* out) {
  size_t filled = 0;
  while (filled < count) {
    TSVIZ_ASSIGN_OR_RETURN(uint64_t run, GetVarint64(&src));
    if (run == 0 || run > count - filled) {
      return Status::Corruption("rle run overflows value count");
    }
    TSVIZ_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64(&src));
    const Value v = BitsToDouble(bits);
    for (const size_t end = filled + run; filled < end; ++filled) {
      out[filled].v = v;
    }
  }
  return Status::OK();
}

}  // namespace tsviz
