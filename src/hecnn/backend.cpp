#include "src/hecnn/backend.hpp"

#include <cstdlib>

#include "src/common/assert.hpp"

namespace fxhenn::hecnn {

std::string
resolveBackendName(const std::string &requested)
{
    std::string name = requested;
    if (name.empty()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe) resolved once up front
        const char *env = std::getenv("FXHENN_BACKEND");
        name = (env != nullptr) ? env : "";
    }
    if (name.empty())
        name = "cpu";
    FXHENN_FATAL_IF(name != "cpu" && name != "cpu-ref" &&
                        name != "fpga-sim",
                    "unknown execution backend '" + name +
                        "' (registered: cpu, cpu-ref, fpga-sim)");
    return name;
}

} // namespace fxhenn::hecnn
