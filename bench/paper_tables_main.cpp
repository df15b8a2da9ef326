/**
 * @file
 * Prints every reproduced table, figure and ablation of the paper's
 * evaluation, in paper order. Takes no arguments.
 */
#include <iostream>

#include "paper_tables.hpp"

int
main()
{
    for (const auto &table : fxhenn::bench::paperTables()) {
        table.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
