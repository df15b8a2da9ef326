/**
 * @file
 * Golden outputs of the paper's evaluation: every table, figure and
 * ablation that `paper_tables` prints must match its committed file
 * under tests/paper/golden byte for byte. One test per table, so each
 * runs as its own ctest entry. A model change that moves one printed
 * digit fails here and shows up as a readable diff once the files are
 * regenerated with FXHENN_UPDATE_GOLDEN=1.
 */
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "bench/paper_tables.hpp"
#include "tests/golden.hpp"

namespace fxhenn::bench {

/** Prints a table as its golden name, which then names its ctest
 *  entry. */
void
PrintTo(const PaperTable &table, std::ostream *os)
{
    *os << table.name;
}

namespace {

class PaperTableGolden : public testing::TestWithParam<PaperTable>
{};

TEST_P(PaperTableGolden, MatchesGoldenFile)
{
    std::ostringstream out;
    GetParam().print(out);
    expectGolden(std::string(GetParam().name) + ".txt", out.str());
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperTableGolden,
                         testing::ValuesIn(paperTables()));

} // namespace
} // namespace fxhenn::bench
