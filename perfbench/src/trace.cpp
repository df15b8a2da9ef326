#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_nextId{1};

std::mutex g_mutex;
std::vector<Span> g_spans; // guarded by g_mutex

const Clock::time_point g_origin = Clock::now();

std::uint32_t
threadTag()
{
    return static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0x7fffffff);
}

double
micros(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - g_origin).count();
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
reserveId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

void
recordWithId(std::uint64_t id, std::string name, Clock::time_point start,
             Clock::time_point end, std::uint64_t parent,
             std::uint64_t request)
{
    Span span{std::move(name), id, parent, request, start, end, threadTag()};
    std::scoped_lock lock(g_mutex);
    g_spans.push_back(std::move(span));
}

void
record(std::string name, Clock::time_point start, Clock::time_point end,
       std::uint64_t parent, std::uint64_t request)
{
    if (enabled())
        recordWithId(reserveId(), std::move(name), start, end, parent,
                     request);
}

std::vector<Span>
snapshot()
{
    std::scoped_lock lock(g_mutex);
    return g_spans;
}

bool
writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto spans = snapshot();
    out << "{\"traceEvents\": [\n";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
            << ", \"tid\": " << s.thread << ", \"ts\": " << micros(s.start)
            << ", \"dur\": " << micros(s.end) - micros(s.start)
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
            << s.parent << ", \"request\": " << s.request << "}}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return bool(out);
}

void
printSummary(std::ostream &os)
{
    const auto spans = snapshot();
    std::unordered_map<std::uint64_t, double> childMs;
    for (const Span &s : spans)
        if (s.parent)
            childMs[s.parent] +=
                std::chrono::duration<double, std::milli>(s.end - s.start)
                    .count();
    struct Row
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Span &s : spans) {
        const double ms =
            std::chrono::duration<double, std::milli>(s.end - s.start)
                .count();
        auto it = childMs.find(s.id);
        const double covered = it == childMs.end() ? 0.0 : it->second;
        Row &row = rows[s.name];
        ++row.count;
        row.totalMs += ms;
        row.selfMs += std::max(0.0, ms - covered);
    }
    os << "spans: " << spans.size() << " recorded\n"
       << std::left << std::setw(30) << "  span" << std::right
       << std::setw(9) << "count" << std::setw(14) << "total ms"
       << std::setw(14) << "self ms" << "\n";
    os << std::fixed << std::setprecision(3);
    for (const auto &[name, row] : rows)
        os << "  " << std::left << std::setw(28) << name << std::right
           << std::setw(9) << row.count << std::setw(14) << row.totalMs
           << std::setw(14) << row.selfMs << "\n";
    os.unsetf(std::ios::floatfield);
}

} // namespace perfbench::trace
