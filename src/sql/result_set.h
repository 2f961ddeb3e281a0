#ifndef TSVIZ_SQL_RESULT_SET_H_
#define TSVIZ_SQL_RESULT_SET_H_

#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace tsviz::sql {

// Tabular query output. Cells are null (monostate), integers (timestamps,
// counts), doubles (values/aggregates) or strings (EXPLAIN plans).
class ResultSet {
 public:
  using Cell = std::variant<std::monostate, int64_t, double, std::string>;

  ResultSet() = default;
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  // Appends a row; must match the column count.
  void AddRow(std::vector<Cell> cells);

  // Keeps only the first n rows.
  void Truncate(size_t n) {
    if (rows_.size() > n) rows_.resize(n);
  }

  // Aligned, human-readable table.
  std::string ToString(size_t max_rows = 1000) const;

  // RFC-4180-ish CSV (no quoting needed for numeric data).
  std::string ToCsv() const;

  static std::string CellToString(const Cell& cell);

 private:
  // Appends the text of one cell (what CellToString returns) to *out.
  static void AppendCell(const Cell& cell, std::string* out);

  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace tsviz::sql

#endif  // TSVIZ_SQL_RESULT_SET_H_
