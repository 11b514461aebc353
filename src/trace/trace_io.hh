/**
 * @file
 * Trace file I/O: a compact binary format plus a text format.
 *
 * Traces decouple workload generation from simulation: a stream can be
 * generated once, written to disk, and replayed through every write
 * scheme, guaranteeing that all schemes observe byte-identical input
 * (the examples/trace_replay example demonstrates this flow).
 *
 * Binary format (version 1, little endian):
 *   magic   "C8TTRACE"            8 bytes
 *   version u32                   4 bytes
 *   count   u64 (record count)    8 bytes
 *   records: { addr u64, data u64, gap u32, size u8, type u8 } packed,
 *            30 bytes each.
 */

#ifndef C8T_TRACE_TRACE_IO_HH
#define C8T_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace c8t::trace
{

/** Current binary trace format version. */
constexpr std::uint32_t traceFormatVersion = 1;

/**
 * Streaming binary trace writer.
 *
 * The record count in the header is back-patched by finish(); a writer
 * destroyed without finish() leaves a count of zero, which readers treat
 * as an error, so truncated traces are detected.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * @throws std::runtime_error when the file cannot be opened.
     */
    explicit TraceWriter(const std::string &path);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void write(const MemAccess &a);

    /** Back-patch the header record count and flush. Idempotent. */
    void finish();

    /** Number of records written so far. */
    std::uint64_t count() const { return _count; }

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
    std::uint64_t _count = 0;
    bool _finished = false;
};

/**
 * Binary trace reader; doubles as an AccessGenerator so traces can be
 * replayed anywhere a synthetic generator is accepted.
 */
class TraceReader : public AccessGenerator
{
  public:
    /**
     * Open and validate @p path.
     * @throws std::runtime_error on missing file, bad magic, unsupported
     *         version, or zero record count (truncated writer).
     */
    explicit TraceReader(const std::string &path);

    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool next(MemAccess &out) override;
    void reset() override;
    std::string name() const override;

    /** Total records in the trace. */
    std::uint64_t count() const { return _total; }

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
    std::string _path;
    std::uint64_t _total = 0;
    std::uint64_t _readSoFar = 0;
};

/**
 * Write a whole trace as human-readable text, one access per line
 * ("R 0xdeadbeef sz=8 gap=3"). Intended for debugging small traces.
 */
void writeTextTrace(std::ostream &os, const std::vector<MemAccess> &trace);

/**
 * Parse a text trace produced by writeTextTrace(): hex address and
 * data, decimal size and gap.
 * @throws std::runtime_error naming the line of a malformed record or
 *         one that breaks the MemAccess contract.
 */
std::vector<MemAccess> readTextTrace(std::istream &is);

/** Drain up to @p limit accesses from @p gen into a vector. */
std::vector<MemAccess> collect(AccessGenerator &gen, std::uint64_t limit);

} // namespace c8t::trace

#endif // C8T_TRACE_TRACE_IO_HH
