#ifndef TSVIZ_ENCODING_PLAIN_H_
#define TSVIZ_ENCODING_PLAIN_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Uncompressed little-endian codecs; the baseline for the encoding bench and
// the fallback when compression is disabled in StoreConfig. Each encodes or
// decodes one column (t or v) of points[0..count).

Status EncodePlainTimestamps(const Point* points, size_t count,
                             std::string* dst);
// Advances *src past the `count` timestamps it decodes; like ts2diff, fails
// unless they are strictly increasing.
Status DecodePlainTimestamps(std::string_view* src, size_t count, Point* out);

Status EncodePlainValues(const Point* points, size_t count, std::string* dst);
Status DecodePlainValues(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_PLAIN_H_
