// Plain-text table and CSV output for the benchmark harnesses. Every bench
// binary prints the rows/series of the corresponding paper figure with these
// helpers so the output format is uniform.
#pragma once

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace witrack {

/// Column-aligned ASCII table; collects rows of strings and prints them with
/// a header rule (the "paper vs measured" layout of the bench_* programs).
class Table {
  public:
    explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

    Table& add_row(std::vector<std::string> cells) {
        rows_.push_back(std::move(cells));
        return *this;
    }

    /// Format a double with fixed precision; convenience for row building.
    static std::string num(double value, int precision = 2) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(precision) << value;
        return os.str();
    }

    void print(std::ostream& out = std::cout) const {
        std::vector<std::size_t> widths(header_.size(), 0);
        auto grow = [&](const std::vector<std::string>& cells) {
            for (std::size_t i = 0; i < cells.size() && i < widths.size(); ++i)
                widths[i] = std::max(widths[i], cells[i].size());
        };
        grow(header_);
        for (const auto& row : rows_) grow(row);

        auto print_row = [&](const std::vector<std::string>& cells) {
            out << "  ";
            for (std::size_t i = 0; i < widths.size(); ++i) {
                const std::string& cell = i < cells.size() ? cells[i] : std::string{};
                out << std::left << std::setw(static_cast<int>(widths[i]) + 2) << cell;
            }
            out << '\n';
        };
        print_row(header_);
        std::size_t total = 2;
        for (auto w : widths) total += w + 2;
        out << "  " << std::string(total - 2, '-') << '\n';
        for (const auto& row : rows_) print_row(row);
    }

    /// Write the same content as CSV (no alignment padding).
    void write_csv(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return;
        auto emit = [&](const std::vector<std::string>& cells) {
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (i) out << ',';
                out << cells[i];
            }
            out << '\n';
        };
        emit(header_);
        for (const auto& row : rows_) emit(row);
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner for bench output.
inline void print_banner(const std::string& title, std::ostream& out = std::cout) {
    out << '\n' << std::string(72, '=') << '\n' << title << '\n'
        << std::string(72, '=') << '\n';
}

}  // namespace witrack
