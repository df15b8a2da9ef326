/**
 * @file
 * The paper's evaluation, one print function per table, figure or
 * ablation.
 *
 * Each function regenerates one table or figure and prints our
 * model-measured values next to the published ones (EXPERIMENTS.md
 * records the comparison). Literature rows are reproduced as published
 * constants, exactly as the paper itself cites them. The `paper_tables`
 * program prints every entry; the golden tests under tests/paper pin
 * each entry's bytes against tests/paper/golden/<name>.txt.
 */
#ifndef FXHENN_BENCH_PAPER_TABLES_HPP
#define FXHENN_BENCH_PAPER_TABLES_HPP

#include <iosfwd>
#include <span>

namespace fxhenn::bench {

/** One table, figure or ablation of the paper's evaluation. */
struct PaperTable
{
    /** Golden file stem: tests/paper/golden/<name>.txt. */
    const char *name;
    /** Writes the whole printout, banner to closing notes. */
    void (*print)(std::ostream &os);
};

/** Every table, figure and ablation, in paper order. */
std::span<const PaperTable> paperTables();

} // namespace fxhenn::bench

#endif // FXHENN_BENCH_PAPER_TABLES_HPP
