#include "encoding/ts2diff.h"

#include "encoding/varint.h"

namespace tsviz {

Status EncodeTs2Diff(const Point* points, size_t count, std::string* dst) {
  if (count == 0) return Status::OK();
  PutFixed64(dst, static_cast<uint64_t>(points[0].t));
  int64_t prev_delta = 0;
  for (size_t i = 1; i < count; ++i) {
    if (points[i].t <= points[i - 1].t) {
      return Status::InvalidArgument(
          "timestamps must be strictly increasing within a chunk");
    }
    int64_t delta = points[i].t - points[i - 1].t;
    PutSignedVarint64(dst, delta - prev_delta);
    prev_delta = delta;
  }
  return Status::OK();
}

Status DecodeTs2Diff(std::string_view* src, size_t count, Point* out) {
  if (count == 0) return Status::OK();
  TSVIZ_ASSIGN_OR_RETURN(uint64_t first, GetFixed64(src));
  Timestamp prev = static_cast<Timestamp>(first);
  out[0].t = prev;
  const char* p = src->data();
  const char* const limit = p + src->size();
  int64_t prev_delta = 0;
  for (size_t i = 1; i < count; ++i) {
    uint64_t raw;
    p = GetVarint64Ptr(p, limit, &raw);
    if (p == nullptr) return Status::Corruption("truncated ts2diff block");
    // A corrupt delta-of-delta fails here instead of overflowing, so the
    // output is strictly increasing or the block is rejected.
    int64_t delta;
    if (__builtin_add_overflow(prev_delta, ZigZagDecode(raw), &delta) ||
        __builtin_add_overflow(prev, delta, &prev)) {
      return Status::Corruption("timestamp overflow");
    }
    if (delta <= 0) return Status::Corruption("non-increasing timestamp");
    prev_delta = delta;
    out[i].t = prev;
  }
  src->remove_prefix(static_cast<size_t>(p - src->data()));
  return Status::OK();
}

}  // namespace tsviz
