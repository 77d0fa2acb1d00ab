// Plain-text aligned tables for benchmark output. Every figure/table
// harness prints through this, so runs can be diffed against each other
// line by line.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace asti {

/// Column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must match the header width.
  void AddRow(std::vector<std::string> row);

  size_t NumRows() const { return rows_.size(); }

  /// Renders with single-space-padded columns and a dashed separator.
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("12.34").
std::string FormatDouble(double value, int precision = 2);

/// Scientific-ish compact count formatting ("1.13M", "31.4K", "950").
std::string FormatCount(double value);

}  // namespace asti
