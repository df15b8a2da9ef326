#include "src/common/table_printer.hpp"

#include <cstdio>

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/common/assert.hpp"

namespace fxhenn {

namespace {
/** Sentinel row meaning "print a separator line here". */
const std::string kSeparatorTag = "\x01separator";

bool
isSeparator(const std::vector<std::string> &row)
{
    return row.size() == 1 && row[0] == kSeparatorTag;
}
} // namespace

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header))
{
    FXHENN_FATAL_IF(header_.empty(), "table must have at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    FXHENN_FATAL_IF(cells.size() != header_.size(),
                    "row arity does not match header");
    rows_.push_back(std::move(cells));
}

void
TablePrinter::addSeparator()
{
    rows_.push_back({kSeparatorTag});
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        if (isSeparator(row))
            continue;
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto rule = [&]() {
        os << '+';
        for (std::size_t c = 0; c < width.size(); ++c)
            os << std::string(width[c] + 2, '-') << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << ' ' << std::left << std::setw(static_cast<int>(width[c]))
               << cells[c] << " |";
        os << '\n';
    };

    rule();
    line(header_);
    rule();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (!isSeparator(rows_[r]))
            line(rows_[r]);
        else if (r + 1 < rows_.size()) // the closing rule ends the table
            rule();
    }
    rule();
}

std::string
fmtF(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

std::string
fmtI(long long value)
{
    return std::to_string(value);
}

std::string
fmtPct(double fraction)
{
    return fmtF(fraction * 100.0, 2);
}

std::string
fmtBits(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", value);
    return buf;
}

} // namespace fxhenn
