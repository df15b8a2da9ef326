/**
 * @file
 * Span recorder of the benchmark's traced run.
 *
 * The benchmark records one span around each public call it makes into
 * the stack (compile, engine construction, submit, runBatch, certify,
 * explore, ...): name, start, end, the span that caused it, and the id
 * of the request it belongs to, so every span of one request shares an
 * id. Spans stay in memory and are written out once, as Chrome
 * trace-event JSON, when the run ends. Recording is off unless the run
 * is traced; a disabled recorder costs one branch per span.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench::trace {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not part of a request
    Clock::time_point start{};
    Clock::time_point end{};
    std::uint32_t thread = 0;
};

void setEnabled(bool on);
bool enabled();

/** Record a finished span (no-op when disabled). */
void record(std::string name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent = 0,
                     std::uint64_t request = 0);

/** Reserve an id for a span whose children finish before it does. */
std::uint64_t reserveId();

/** Record a finished span under an id from reserveId(). */
void recordWithId(std::uint64_t id, std::string name,
                  Clock::time_point start, Clock::time_point end,
                  std::uint64_t parent = 0, std::uint64_t request = 0);

/** Spans recorded so far (a copy). */
std::vector<Span> snapshot();

/** Write every span as Chrome trace-event JSON; false if unwritable. */
bool writeChromeTrace(const std::string &path);

/**
 * Per span name: count, total time, and self time (duration minus the
 * part covered by its direct children), as a printed table.
 */
void printSummary(std::ostream &os);

/** Times the enclosing scope as one span (no-op when disabled). */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t parent = 0,
                   std::uint64_t request = 0)
        : name_(name), parent_(parent), request_(request),
          id_(enabled() ? reserveId() : 0),
          start_(id_ ? Clock::now() : Clock::time_point{})
    {}

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope()
    {
        if (id_)
            recordWithId(id_, name_, start_, Clock::now(), parent_,
                         request_);
    }

    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t request_;
    std::uint64_t id_;
    Clock::time_point start_;
};

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HPP
