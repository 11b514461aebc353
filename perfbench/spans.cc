/**
 * @file
 * Span recorder implementation.
 */

#include "spans.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace c8tb::spans
{

namespace
{

using Clock = std::chrono::steady_clock;

struct ThreadBuffer
{
    std::uint32_t thread = 0;
    std::vector<Span> spans;     ///< parent = index within this buffer
    std::vector<std::int64_t> open; ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
Clock::time_point g_epoch;
std::mutex g_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer &
local()
{
    // The registry co-owns every buffer, so spans of worker threads
    // that have exited are still there at collect().
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        const std::lock_guard<std::mutex> lock(g_mutex);
        b->thread = static_cast<std::uint32_t>(g_buffers.size());
        g_buffers.push_back(b);
        return b;
    }();
    return *buf;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

} // anonymous namespace

void
enable()
{
    g_epoch = Clock::now();
    g_enabled.store(true);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::int64_t
open(const char *name, std::int64_t job)
{
    if (!enabled())
        return -1;
    ThreadBuffer &b = local();
    Span s;
    s.name = name;
    s.job = job;
    s.thread = b.thread;
    s.parent = b.open.empty() ? -1 : b.open.back();
    b.spans.push_back(s);
    const auto index = static_cast<std::int64_t>(b.spans.size() - 1);
    b.open.push_back(index);
    b.spans.back().startNs = nowNs();
    return index;
}

void
close(std::int64_t handle, std::uint64_t count)
{
    if (handle < 0)
        return;
    const std::int64_t t = nowNs();
    ThreadBuffer &b = local();
    // Closed from destructors, so never throw: a span closed out of
    // order simply leaves the stack wherever it sits.
    for (auto it = b.open.rbegin(); it != b.open.rend(); ++it) {
        if (*it == handle) {
            b.open.erase(std::next(it).base());
            break;
        }
    }
    Span &s = b.spans[static_cast<std::size_t>(handle)];
    s.endNs = t;
    s.count = count;
}

std::vector<Span>
collect()
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<Span> all;
    for (const auto &b : g_buffers) {
        const auto base = static_cast<std::int64_t>(all.size());
        for (Span s : b->spans) {
            if (s.parent >= 0)
                s.parent += base;
            all.push_back(s);
        }
    }
    return all;
}

std::size_t
mark()
{
    return enabled() ? local().spans.size() : 0;
}

double
rootSecondsSince(std::size_t from)
{
    if (!enabled())
        return 0.0;
    const ThreadBuffer &b = local();
    std::int64_t ns = 0;
    for (std::size_t i = from; i < b.spans.size(); ++i) {
        if (b.spans[i].parent < 0)
            ns += b.spans[i].endNs - b.spans[i].startNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, Totals>
totals(const std::vector<Span> &all)
{
    std::vector<std::int64_t> childNs(all.size(), 0);
    for (const Span &s : all) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        Totals &t = out[s.name];
        const double dur = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        t.totalS += dur;
        t.selfS += dur - static_cast<double>(childNs[i]) * 1e-9;
        ++t.calls;
        t.count += s.count;
    }
    return out;
}

void
write(const std::string &path, const std::vector<Span> &all)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("spans: cannot write " + path);
    for (const Span &s : all) {
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"job\":" << s.job << ",\"thread\":" << s.thread
           << ",\"count\":" << s.count << "}\n";
    }
}

} // namespace c8tb::spans
