#ifndef TSVIZ_SQL_RESULT_SET_H_
#define TSVIZ_SQL_RESULT_SET_H_

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace tsviz::sql {

// Tabular query output. Cells are null (monostate), integers (timestamps,
// counts), doubles (values/aggregates) or strings (EXPLAIN plans).
//
// Rows may be built on demand: a result made from a RowBuilder builds its
// cells the first time rows() (or anything that reads cells) is called, and
// may carry its CSV text already rendered, shared with the M4 result cache.
// A caller that only sends the CSV then never builds a cell. rows() fills
// the cells on first use, so concurrent first reads of one ResultSet must be
// serialized by the caller.
class ResultSet {
 public:
  using Cell = std::variant<std::monostate, int64_t, double, std::string>;
  using Row = std::vector<Cell>;
  // Builds every row of a result; called at most once.
  using RowBuilder = std::function<std::vector<Row>()>;

  ResultSet() = default;
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  // A result of `num_rows` rows that `build` makes when first needed.
  // `csv`, when given, must be what ToCsv renders for those rows; ToCsv then
  // returns it without rendering.
  ResultSet(std::vector<std::string> columns, size_t num_rows,
            RowBuilder build, std::shared_ptr<const std::string> csv = nullptr);

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const;
  size_t num_rows() const { return build_ ? pending_rows_ : rows_.size(); }

  // Appends a row; must match the column count.
  void AddRow(Row cells);

  // Keeps only the first n rows.
  void Truncate(size_t n);

  // Aligned, human-readable table.
  std::string ToString(size_t max_rows = 1000) const;

  // RFC-4180-ish CSV (no quoting needed for numeric data): CsvHeader, then
  // one line per row.
  std::string ToCsv() const;

  // The CSV header line, newline included.
  static std::string CsvHeader(const std::vector<std::string>& columns);

  static std::string CellToString(const Cell& cell);

 private:
  // Appends the text of one cell (what CellToString returns) to *out.
  static void AppendCell(const Cell& cell, std::string* out);

  std::vector<std::string> columns_;
  mutable std::vector<Row> rows_;
  mutable RowBuilder build_;  // set while rows_ is not built yet
  size_t pending_rows_ = 0;   // what build_ will make
  std::shared_ptr<const std::string> csv_;  // ToCsv's text, if rendered
};

}  // namespace tsviz::sql

#endif  // TSVIZ_SQL_RESULT_SET_H_
