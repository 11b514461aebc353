/**
 * @file
 * In-memory span recorder for traced benchmark runs.
 *
 * A span is (name, start, end, parent, job, thread, count). Spans are
 * recorded per thread into buffers that outlive their threads, kept in
 * memory for the whole run and written out once at exit. Parents are
 * the innermost span open on the same thread, so a layer's self time
 * is its duration minus the time its children cover.
 *
 * Recording is off until enable(); while off, open() and Scoped read
 * no clock.
 */

#ifndef C8TB_SPANS_HH
#define C8TB_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace c8tb::spans
{

/** One recorded span; parent is an index into collect()'s vector. */
struct Span
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;
    std::int64_t job = -1;
    std::uint32_t thread = 0;
    std::uint64_t count = 0;
};

/** Start recording (traced runs). */
void enable();

/** Whether spans are being recorded. */
bool enabled();

/** Open a span on this thread; returns its handle (-1 when off).
 *  @p name must have static storage duration. */
std::int64_t open(const char *name, std::int64_t job = -1);

/** Close the span @p handle opened on this thread, attaching a work
 *  count (accesses, calls, ...). */
void close(std::int64_t handle, std::uint64_t count = 0);

/** RAII span. */
class Scoped
{
  public:
    explicit Scoped(const char *name, std::int64_t job = -1)
        : _h(open(name, job))
    {
    }
    ~Scoped() { close(_h, _count); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    /** Work count recorded with the span. */
    void count(std::uint64_t n) { _count = n; }

  private:
    std::int64_t _h;
    std::uint64_t _count = 0;
};

/** Every span recorded so far, all threads, parents re-indexed. */
std::vector<Span> collect();

/** Spans recorded so far on this thread (a mark for rootSecondsSince). */
std::size_t mark();

/** Summed duration of this thread's root spans (no parent) opened
 *  since @p from, a value of mark(): the layer time of one call. */
double rootSecondsSince(std::size_t from);

/** Per-name aggregate. */
struct Totals
{
    double selfS = 0.0;
    double totalS = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t count = 0;
};

/** Self/total time, calls and work count per span name. */
std::map<std::string, Totals> totals(const std::vector<Span> &all);

/** Write @p all as JSON lines to @p path. */
void write(const std::string &path, const std::vector<Span> &all);

} // namespace c8tb::spans

#endif // C8TB_SPANS_HH
