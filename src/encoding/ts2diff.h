#ifndef TSVIZ_ENCODING_TS2DIFF_H_
#define TSVIZ_ENCODING_TS2DIFF_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Delta-of-delta timestamp codec (IoTDB's TS_2DIFF spirit): the first
// timestamp is stored raw, the first delta as a zigzag varint, and every
// subsequent value as the zigzag varint of (delta - previous delta). Regular
// sensor timestamps compress to ~1 byte/point, so decoding a chunk has a real
// CPU cost while storage stays compact — the asymmetry the paper's
// merge-free design exploits.

// Appends the encoding of points[0..count).t (must be strictly increasing)
// to dst.
Status EncodeTs2Diff(const Point* points, size_t count, std::string* dst);

// Decodes exactly `count` timestamps from the front of *src into
// out[0..count).t, advancing *src. Value fields are left untouched.
Status DecodeTs2Diff(std::string_view* src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_TS2DIFF_H_
