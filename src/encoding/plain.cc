#include "encoding/plain.h"

#include <cstring>

#include "encoding/varint.h"

namespace tsviz {

Status EncodePlainTimestamps(const Point* points, size_t count,
                             std::string* dst) {
  for (size_t i = 0; i < count; ++i) {
    PutFixed64(dst, static_cast<uint64_t>(points[i].t));
  }
  return Status::OK();
}

Status DecodePlainTimestamps(std::string_view* src, size_t count, Point* out) {
  if (src->size() / 8 < count) return Status::Corruption("truncated fixed64");
  for (size_t i = 0; i < count; ++i) {
    out[i].t = static_cast<Timestamp>(DecodeFixed64(src->data() + 8 * i));
    if (i > 0 && out[i].t <= out[i - 1].t) {
      return Status::Corruption("non-increasing timestamp");
    }
  }
  src->remove_prefix(8 * count);
  return Status::OK();
}

Status EncodePlainValues(const Point* points, size_t count, std::string* dst) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &points[i].v, sizeof(bits));
    PutFixed64(dst, bits);
  }
  return Status::OK();
}

Status DecodePlainValues(std::string_view src, size_t count, Point* out) {
  if (src.size() / 8 < count) return Status::Corruption("truncated fixed64");
  for (size_t i = 0; i < count; ++i) {
    const uint64_t bits = DecodeFixed64(src.data() + 8 * i);
    std::memcpy(&out[i].v, &bits, sizeof(bits));
  }
  return Status::OK();
}

}  // namespace tsviz
