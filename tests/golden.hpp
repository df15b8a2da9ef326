/**
 * @file
 * Byte-for-byte comparison of a rendered output against a committed
 * golden file. Each test binary that includes this header defines
 * FXHENN_GOLDEN_DIR, the directory its golden files live in.
 *
 * Regenerate on purpose with FXHENN_UPDATE_GOLDEN=1, which rewrites
 * the files instead of comparing, and review the diff.
 */
#ifndef FXHENN_TESTS_GOLDEN_HPP
#define FXHENN_TESTS_GOLDEN_HPP

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace fxhenn {

inline void
expectGolden(const std::string &file, const std::string &actual)
{
    const std::string path = std::string(FXHENN_GOLDEN_DIR) + "/" + file;
    if (std::getenv("FXHENN_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path, std::ios::binary) << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    if (expected.str() == actual)
        return;
    // Point at the first line that differs; the whole file is in the
    // repository for a full diff.
    std::istringstream want(expected.str());
    std::istringstream got(actual);
    std::string wantLine;
    std::string gotLine;
    for (std::size_t line = 1;; ++line) {
        const bool moreWant = static_cast<bool>(std::getline(want, wantLine));
        const bool moreGot = static_cast<bool>(std::getline(got, gotLine));
        if (!moreWant && !moreGot)
            break;
        if (moreWant != moreGot || wantLine != gotLine) {
            ADD_FAILURE() << path << " differs at line " << line
                          << "\n  golden: " << (moreWant ? wantLine : "<eof>")
                          << "\n  actual: " << (moreGot ? gotLine : "<eof>");
            return;
        }
    }
    ADD_FAILURE() << path << " differs (line endings)";
}

} // namespace fxhenn

#endif // FXHENN_TESTS_GOLDEN_HPP
