#ifndef GNNPART_COMMON_TABLE_H_
#define GNNPART_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace gnnpart {

/// Fixed-width ASCII table printer used by the benchmark harness to emit the
/// rows/series the paper's tables and figures report.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; short rows are padded with empty cells.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string Fmt(double value, int precision = 2);

  /// Renders the table with a header separator.
  void Print(std::ostream& os) const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gnnpart

#endif  // GNNPART_COMMON_TABLE_H_
