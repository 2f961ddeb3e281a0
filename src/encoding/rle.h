#ifndef TSVIZ_ENCODING_RLE_H_
#define TSVIZ_ENCODING_RLE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Run-length value codec: runs of bit-identical doubles become one
// (varint length, fixed64 bits) pair. Ideal for status-like IoT channels
// that hold a value for long stretches (the RcvTime shape); degrades to
// 9 bytes/point on noisy data, so Gorilla remains the default.

// Encodes points[0..count).v; decodes exactly `count` values into
// out[0..count).v, leaving the timestamp fields untouched.
Status EncodeRle(const Point* points, size_t count, std::string* dst);
Status DecodeRle(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_RLE_H_
