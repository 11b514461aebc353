/**
 * @file
 * Chrome trace-event JSON exporter (Perfetto / chrome://tracing).
 *
 * Writes the "JSON object format" ({"traceEvents": [...]}) described
 * by the Trace Event Format spec; the files load directly in
 * https://ui.perfetto.dev. Two producers use it:
 *
 *   * core::ParallelSweeper emits one complete ("X") span per sweep
 *     job on the worker thread's track, so a sweep's schedule and
 *     load balance are visible on a timeline, and
 *   * obs::appendEventRing() turns a controller's EventRing into
 *     instant ("i") events on a per-run track (timestamp = controller
 *     cycle, read as microseconds) plus one "event_totals" summary
 *     record carrying the wrap-proof per-type totals.
 *
 * The writer streams events to disk as they arrive (no in-memory
 * event list) and is internally locked, so sweep workers can append
 * concurrently. The JSON is finalised by close() or the destructor.
 *
 * A process-global writer can be resolved from the C8T_CHROME_TRACE
 * environment variable (or installed explicitly by a CLI flag) via
 * globalTrace()/setGlobalTracePath(); the sweep engine picks it up
 * automatically so every figure/table bench can produce a trace with
 * no code changes.
 */

#ifndef C8T_OBS_CHROME_TRACE_HH
#define C8T_OBS_CHROME_TRACE_HH

#include <chrono>
#include <fstream>
#include <mutex>
#include <string>

#include "obs/event_ring.hh"

namespace c8t::obs
{

/** Streaming trace-event JSON writer. */
class ChromeTraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the document header.
     * @throws std::runtime_error when the file cannot be opened.
     */
    explicit ChromeTraceWriter(const std::string &path);

    /** Finalises the document (close()). */
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** The path given at construction. */
    const std::string &path() const { return _path; }

    /**
     * Microseconds from the trace's epoch (the writer's opening, ts 0)
     * to @p t. Every span of the process is stamped on this one clock.
     */
    double usAt(std::chrono::steady_clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - _epoch)
            .count();
    }

    /**
     * Name the (pid, tid) track ("thread_name" metadata event);
     * Perfetto shows @p name instead of the raw tid.
     */
    void threadName(int pid, int tid, const std::string &name);

    /** Name the pid track ("process_name" metadata event). */
    void processName(int pid, const std::string &name);

    /**
     * A complete ("X") span.
     *
     * @param name      Span label.
     * @param cat       Category string (Perfetto filterable).
     * @param pid,tid   Track.
     * @param ts_us     Start timestamp in microseconds.
     * @param dur_us    Duration in microseconds.
     * @param args_json Optional pre-rendered JSON object ("{...}")
     *                  attached as the event's args; empty = none.
     */
    void completeEvent(const std::string &name, const std::string &cat,
                       int pid, int tid, double ts_us, double dur_us,
                       const std::string &args_json = "");

    /** An instant ("i", thread-scoped) event. */
    void instantEvent(const std::string &name, const std::string &cat,
                      int pid, int tid, double ts_us,
                      const std::string &args_json = "");

    /**
     * Emit the closing bracket and flush. Idempotent; called by the
     * destructor. Events arriving after close() are dropped.
     */
    void close();

  private:
    /** Emit one event object; assumes the caller holds no lock. */
    void emit(const std::string &body);

    std::string _path;
    const std::chrono::steady_clock::time_point _epoch =
        std::chrono::steady_clock::now();
    std::ofstream _os;
    std::mutex _mutex;
    bool _first = true;
    bool _closed = false;
};

/**
 * Export a controller's event ring onto the (pid, tid) track of @p w:
 * one instant event per retained Event (ts = cycle, as microseconds)
 * and one trailing "event_totals" instant carrying the cumulative
 * per-type counts (these reconcile with the stats::Registry totals
 * even when the ring wrapped). @p track names the tid track.
 */
void appendEventRing(ChromeTraceWriter &w, const EventRing &ring,
                     const std::string &track, int pid, int tid);

/**
 * The process-global writer: resolved once, from the explicit path
 * installed by setGlobalTracePath() if any, else from the
 * C8T_CHROME_TRACE environment variable. Returns nullptr when
 * tracing is off or the file cannot be opened (a one-time warning is
 * printed). The file is finalised at process exit.
 */
ChromeTraceWriter *globalTrace();

/**
 * Install (or replace) the process-global writer with one writing to
 * @p path — the `c8tsim --chrome-trace` hook. Call from the main
 * thread before any worker threads may touch globalTrace().
 * @throws std::runtime_error when the file cannot be opened.
 */
void setGlobalTracePath(const std::string &path);

} // namespace c8t::obs

#endif // C8T_OBS_CHROME_TRACE_HH
