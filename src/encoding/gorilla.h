#ifndef TSVIZ_ENCODING_GORILLA_H_
#define TSVIZ_ENCODING_GORILLA_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Gorilla XOR compression for doubles (Pelkonen et al., VLDB 2015), the
// scheme IoTDB and most TSDBs use for float values: each value is XORed with
// its predecessor; identical values cost 1 bit, values with a shared
// leading/trailing-zero window cost a few bits plus the meaningful payload.

// Appends the encoding of points[0..count).v to dst.
Status EncodeGorilla(const Point* points, size_t count, std::string* dst);

// Decodes exactly `count` values from `src` into out[0..count).v (the whole
// buffer belongs to this block; bit padding at the tail is ignored).
// Timestamp fields are left untouched.
Status DecodeGorilla(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_GORILLA_H_
