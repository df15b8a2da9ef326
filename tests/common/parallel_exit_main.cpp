/**
 * A small program that uses the thread pool and returns from main.
 *
 * Registered with ctest under a TIMEOUT: the pool's helpers outlive
 * every parallelFor() call, so this checks that they never hold up
 * process exit (a pool destroyed at exit while its helpers still wait
 * on its condition variable can hang there).
 */
#include <atomic>
#include <cstdio>
#include <thread>

#include "src/common/parallel.hpp"

int
main()
{
    fxhenn::setThreadCount(4);
    std::atomic<int> total{0};
    const auto loops = [&] {
        for (int round = 0; round < 50; ++round)
            fxhenn::parallelFor(16, [&](std::size_t) { total.fetch_add(1); });
    };
    std::thread other(loops);
    loops();
    other.join();
    if (total.load() != 2 * 50 * 16) {
        std::fprintf(stderr, "lost iterations: %d\n", total.load());
        return 1;
    }
    return 0;
}
