#include "encoding/page.h"

#include "encoding/gorilla.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "encoding/ts2diff.h"
#include "encoding/varint.h"

namespace tsviz {

Status EncodePage(const Point* points, size_t count, TsCodec ts_codec,
                  ValueCodec value_codec, std::string* dst, PageInfo* info) {
  if (count == 0) return Status::InvalidArgument("empty page");
  const size_t start = dst->size();

  std::string body;
  PutVarint64(&body, count);
  body.push_back(static_cast<char>(ts_codec));
  body.push_back(static_cast<char>(value_codec));
  PutFixed64(&body, static_cast<uint64_t>(points[0].t));
  PutFixed64(&body, static_cast<uint64_t>(points[count - 1].t));

  std::string ts_block;
  switch (ts_codec) {
    case TsCodec::kPlain:
      TSVIZ_RETURN_IF_ERROR(EncodePlainTimestamps(points, count, &ts_block));
      break;
    case TsCodec::kTs2Diff:
      TSVIZ_RETURN_IF_ERROR(EncodeTs2Diff(points, count, &ts_block));
      break;
  }
  PutLengthPrefixed(&body, ts_block);

  std::string value_block;
  switch (value_codec) {
    case ValueCodec::kPlain:
      TSVIZ_RETURN_IF_ERROR(EncodePlainValues(points, count, &value_block));
      break;
    case ValueCodec::kGorilla:
      TSVIZ_RETURN_IF_ERROR(EncodeGorilla(points, count, &value_block));
      break;
    case ValueCodec::kRle:
      TSVIZ_RETURN_IF_ERROR(EncodeRle(points, count, &value_block));
      break;
  }
  PutLengthPrefixed(&body, value_block);

  PutFixed64(&body, Fnv1a64(body));
  dst->append(body);

  if (info != nullptr) {
    info->count = static_cast<uint32_t>(count);
    info->min_t = points[0].t;
    info->max_t = points[count - 1].t;
    info->offset = static_cast<uint32_t>(start);
    info->length = static_cast<uint32_t>(dst->size() - start);
  }
  return Status::OK();
}

namespace {

Status DecodeColumns(TsCodec ts_codec, std::string_view ts_block,
                     ValueCodec value_codec, std::string_view value_block,
                     size_t count, Point* out) {
  switch (ts_codec) {
    case TsCodec::kPlain:
      TSVIZ_RETURN_IF_ERROR(DecodePlainTimestamps(&ts_block, count, out));
      break;
    case TsCodec::kTs2Diff:
      TSVIZ_RETURN_IF_ERROR(DecodeTs2Diff(&ts_block, count, out));
      break;
    default:
      return Status::Corruption("unknown timestamp codec");
  }
  switch (value_codec) {
    case ValueCodec::kPlain:
      return DecodePlainValues(value_block, count, out);
    case ValueCodec::kGorilla:
      return DecodeGorilla(value_block, count, out);
    case ValueCodec::kRle:
      return DecodeRle(value_block, count, out);
  }
  return Status::Corruption("unknown value codec");
}

}  // namespace

Status DecodePage(std::string_view src, std::vector<Point>* out) {
  if (src.size() < 8) return Status::Corruption("page too small");
  std::string_view body = src.substr(0, src.size() - 8);
  std::string_view checksum_view = src.substr(src.size() - 8);
  TSVIZ_ASSIGN_OR_RETURN(uint64_t stored_checksum,
                         GetFixed64(&checksum_view));
  if (Fnv1a64(body) != stored_checksum) {
    return Status::Corruption("page checksum mismatch");
  }

  TSVIZ_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&body));
  if (body.size() < 2) return Status::Corruption("truncated page header");
  auto ts_codec = static_cast<TsCodec>(body[0]);
  auto value_codec = static_cast<ValueCodec>(body[1]);
  body.remove_prefix(2);
  // min/max timestamps: validated against decoded data below.
  TSVIZ_ASSIGN_OR_RETURN(uint64_t min_raw, GetFixed64(&body));
  TSVIZ_ASSIGN_OR_RETURN(uint64_t max_raw, GetFixed64(&body));

  TSVIZ_ASSIGN_OR_RETURN(std::string_view ts_block, GetLengthPrefixed(&body));
  TSVIZ_ASSIGN_OR_RETURN(std::string_view value_block,
                         GetLengthPrefixed(&body));

  // Both timestamp codecs spend at least one byte per point, so a count the
  // block cannot hold is rejected before any output is allocated for it.
  if (count == 0 || count > ts_block.size()) {
    return Status::Corruption("page block size mismatch");
  }

  // Decode both columns straight into the tail of *out; on any failure the
  // tail is dropped again, so *out is unchanged.
  const size_t base = out->size();
  out->resize(base + count);
  Status status = DecodeColumns(ts_codec, ts_block, value_codec, value_block,
                                count, out->data() + base);
  if (status.ok() && ((*out)[base].t != static_cast<Timestamp>(min_raw) ||
                      out->back().t != static_cast<Timestamp>(max_raw))) {
    status = Status::Corruption("page time bounds mismatch");
  }
  if (!status.ok()) out->resize(base);
  return status;
}

}  // namespace tsviz
