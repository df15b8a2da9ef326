/**
 * @file
 * Execution-backend name contract: the three names resolve, ConfigError
 * lists them for an unknown name, and the --backend / FXHENN_BACKEND
 * resolution precedence holds. The CLI exit-code side of the same
 * contract lives in tests/cli/test_cli_errors.sh.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/common/assert.hpp"
#include "src/hecnn/backend.hpp"

namespace fxhenn::hecnn {
namespace {

/** Restores FXHENN_BACKEND so tests cannot leak a forced backend. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        const char *current = std::getenv("FXHENN_BACKEND");
        if (current)
            saved_ = current;
    }
    ~EnvGuard()
    {
        if (saved_.has_value())
            setenv("FXHENN_BACKEND", saved_->c_str(), 1);
        else
            unsetenv("FXHENN_BACKEND");
    }

  private:
    std::optional<std::string> saved_;
};

TEST(BackendRegistry, BuiltinsAreRegistered)
{
    for (const std::string name : {"cpu", "cpu-ref", "fpga-sim"})
        EXPECT_EQ(resolveBackendName(name), name);
    EXPECT_THROW(resolveBackendName("no-such-backend"), ConfigError);
}

TEST(BackendRegistry, UnknownLookupThrowsConfigErrorListingNames)
{
    try {
        resolveBackendName("definitely-not-registered");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("definitely-not-registered"),
                  std::string::npos);
        EXPECT_NE(what.find("cpu, cpu-ref, fpga-sim"), std::string::npos)
            << "the error must list the backend names: " << what;
    }
}

TEST(BackendRegistry, ResolvePrecedenceExplicitOverEnvOverDefault)
{
    EnvGuard guard;
    unsetenv("FXHENN_BACKEND");
    EXPECT_EQ(resolveBackendName(""), "cpu");
    EXPECT_EQ(resolveBackendName("cpu-ref"), "cpu-ref");

    setenv("FXHENN_BACKEND", "cpu-ref", 1);
    EXPECT_EQ(resolveBackendName(""), "cpu-ref");
    // An explicit request always beats the environment.
    EXPECT_EQ(resolveBackendName("cpu"), "cpu");
}

TEST(BackendRegistry, ResolveRejectsUnknownNames)
{
    EnvGuard guard;
    EXPECT_THROW(resolveBackendName("bogus"), ConfigError);
    setenv("FXHENN_BACKEND", "bogus", 1);
    EXPECT_THROW(resolveBackendName(""), ConfigError);
}

} // namespace
} // namespace fxhenn::hecnn
