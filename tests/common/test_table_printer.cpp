#include <gtest/gtest.h>

#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/table_printer.hpp"

namespace fxhenn {
namespace {

TEST(TablePrinter, RendersAlignedColumns)
{
    TablePrinter t({"Layer", "DSP"});
    t.addRow({"Cnv1", "10"});
    t.addRow({"Fc1-long-name", "15"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("Layer"), std::string::npos);
    EXPECT_NE(out.find("Fc1-long-name"), std::string::npos);
    // Every content line has the same width.
    std::istringstream iss(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(iss, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TablePrinter, RejectsWrongArity)
{
    TablePrinter t({"A", "B"});
    EXPECT_THROW(t.addRow({"only-one"}), ConfigError);
}

TEST(TablePrinter, FormatHelpers)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
    EXPECT_EQ(fmtI(-7), "-7");
    EXPECT_EQ(fmtPct(0.6525), "65.25");
}

TEST(TablePrinter, SeparatorDoesNotBreakAlignment)
{
    TablePrinter t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find('+'), std::string::npos);
}

TEST(TablePrinter, TrailingSeparatorPrintsOneClosingRule)
{
    TablePrinter t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    std::ostringstream oss;
    t.print(oss);
    EXPECT_EQ(oss.str(), "+---+\n| A |\n+---+\n| x |\n+---+\n");
}

} // namespace
} // namespace fxhenn
