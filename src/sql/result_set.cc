#include "sql/result_set.h"

#include <algorithm>
#include <charconv>

#include "common/logging.h"

namespace tsviz::sql {

ResultSet::ResultSet(std::vector<std::string> columns, size_t num_rows,
                     RowBuilder build, std::shared_ptr<const std::string> csv)
    : columns_(std::move(columns)),
      build_(std::move(build)),
      pending_rows_(num_rows),
      csv_(std::move(csv)) {}

const std::vector<ResultSet::Row>& ResultSet::rows() const {
  if (build_) {
    rows_ = build_();
    build_ = nullptr;
    TSVIZ_CHECK(rows_.size() == pending_rows_);
  }
  return rows_;
}

void ResultSet::AddRow(Row cells) {
  TSVIZ_CHECK(cells.size() == columns_.size());
  rows();  // builds pending rows, which the new one follows
  csv_.reset();
  rows_.push_back(std::move(cells));
}

void ResultSet::Truncate(size_t n) {
  if (num_rows() <= n) return;
  rows();  // builds pending rows, then drops some
  csv_.reset();
  rows_.resize(n);
}

void ResultSet::AppendCell(const Cell& cell, std::string* out) {
  if (const auto* text = std::get_if<std::string>(&cell)) {
    out->append(*text);
    return;
  }
  if (std::holds_alternative<std::monostate>(cell)) {
    out->append("null");
    return;
  }
  // to_chars in general format at precision 10 is specified to print what
  // printf's "%.10g" prints, without the format-string parse and the
  // temporary string per cell. 24 bytes fit any double at that precision
  // ("-1.234567891e-308") and any int64.
  char buf[24];
  const auto [end, ec] =
      std::holds_alternative<int64_t>(cell)
          ? std::to_chars(buf, buf + sizeof(buf), std::get<int64_t>(cell))
          : std::to_chars(buf, buf + sizeof(buf), std::get<double>(cell),
                          std::chars_format::general, 10);
  TSVIZ_CHECK(ec == std::errc());
  out->append(buf, end);
}

std::string ResultSet::CellToString(const Cell& cell) {
  std::string out;
  AppendCell(cell, &out);
  return out;
}

std::string ResultSet::ToString(size_t max_rows) const {
  const std::vector<Row>& rows = this->rows();
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> printable;
  printable.reserve(std::min(rows.size(), max_rows));
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(CellToString(rows[r][c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    printable.push_back(std::move(cells));
  }

  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(widths[c] - cells[c].size() + 2, ' ');
    }
    out += '\n';
  };
  append_row(columns_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.append(widths[c], '-');
    out.append(2, ' ');
  }
  out += '\n';
  for (const auto& cells : printable) append_row(cells);
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size() - max_rows) +
           " more rows)\n";
  }
  return out;
}

std::string ResultSet::CsvHeader(const std::vector<std::string>& columns) {
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    out += columns[c];
  }
  out += '\n';
  return out;
}

std::string ResultSet::ToCsv() const {
  if (csv_ != nullptr) return *csv_;
  std::string out = CsvHeader(columns_);
  for (const Row& row : rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      AppendCell(row[c], &out);
    }
    out += '\n';
  }
  return out;
}

}  // namespace tsviz::sql
