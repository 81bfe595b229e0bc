#pragma once

// Minimal aligned-column table printer for the examples' console output.

#include <cstdio>
#include <string>
#include <vector>

namespace cbsim::core {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : widths_(headers.size()) {
    addRow(std::move(headers));
  }

  void addRow(std::vector<std::string> cells) {
    cells.resize(widths_.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  [[nodiscard]] std::string str() const {
    std::string out;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        const std::string& cell = rows_[r][c];
        out += cell;
        out.append(widths_[c] - cell.size() + 2, ' ');
      }
      out += '\n';
      if (r == 0) {
        for (const std::size_t w : widths_) out.append(w + 2, '-');
        out += '\n';
      }
    }
    return out;
  }

  void print() const { std::fputs(str().c_str(), stdout); }

  static std::string num(double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
  }

 private:
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cbsim::core
