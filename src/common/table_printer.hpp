/**
 * @file
 * Plain-text table formatting used by the benchmark harness to print
 * paper-style tables (Table I ... Table IX, figure series).
 */
#ifndef FXHENN_COMMON_TABLE_PRINTER_HPP
#define FXHENN_COMMON_TABLE_PRINTER_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace fxhenn {

/**
 * Accumulates rows of string cells and prints them with aligned columns.
 *
 * Typical use in a bench binary:
 * @code
 *   TablePrinter t({"Layer", "DSP (%)", "BRAM (%)"});
 *   t.addRow({"Cnv1", fmt(10.0), fmt(25.0)});
 *   t.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal separator line before the next row (none
     *  if no row follows: the closing rule ends the table). */
    void addSeparator();

    /** Render the table to @p os with aligned columns. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p precision digits after the decimal point. */
std::string fmtF(double value, int precision = 2);

/** Format an integer value. */
std::string fmtI(long long value);

/** Format a value as a percentage with two decimals (no % sign). */
std::string fmtPct(double fraction);

/** Format a value with three significant digits (printf "%.3g"), the
 *  form every log2 bit count and headroom is reported in. */
std::string fmtBits(double value);

} // namespace fxhenn

#endif // FXHENN_COMMON_TABLE_PRINTER_HPP
