/**
 * @file
 * The memory-access record exchanged between workload generators, traces
 * and the cache model, plus the generator interface.
 */

#ifndef C8T_TRACE_ACCESS_HH
#define C8T_TRACE_ACCESS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace c8t::trace
{

/** Kind of memory access. */
enum class AccessType : std::uint8_t {
    Read = 0,
    Write = 1,
};

/** Human-readable name ("R"/"W"). */
const char *toString(AccessType t);

/**
 * One dynamic memory access.
 *
 * The record carries the data payload so that silent stores are a real,
 * observable property of the stream (the Set-Buffer detects them by value
 * comparison, exactly as the proposed hardware does) rather than a flag.
 *
 * @c gap is the number of non-memory instructions executed since the
 * previous memory access; it reconstructs the paper's "share of executed
 * instructions that are memory requests" (Figure 3) and feeds the timing
 * model.
 */
struct MemAccess
{
    /** Byte address (physical; up to 48 bits used). */
    std::uint64_t addr = 0;

    /** Data payload for writes (little endian, @c size bytes valid).
     *  Ignored for reads. */
    std::uint64_t data = 0;

    /** Non-memory instructions since the previous memory access. */
    std::uint32_t gap = 0;

    /** Access size in bytes: 1, 2, 4 or 8; must not straddle an 8-byte
     *  word boundary. */
    std::uint8_t size = 8;

    /** Read or write. */
    AccessType type = AccessType::Read;

    /** True when the access is a write. */
    bool isWrite() const { return type == AccessType::Write; }

    /** True when the access is a read. */
    bool isRead() const { return type == AccessType::Read; }

    /** Why the record breaks the contract of the fields above (type,
     *  size, no straddled word), or nullptr when it keeps it. Trace
     *  readers reject every record that breaks it. */
    const char *contractViolation() const;

    /** Render as "R 0x1234 sz=8" style text (for debugging/traces). */
    std::string toString() const;

    /** Field-wise equality (used by trace round-trip tests). */
    bool operator==(const MemAccess &other) const = default;
};

/**
 * A source of memory accesses.
 *
 * Implementations include the calibrated SPEC-profile Markov model, the
 * kernel workloads, and the trace-file reader. Generators are pull-based:
 * the simulator asks for the next access until the stream ends.
 */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /**
     * Produce the next access.
     *
     * @param out Filled in on success.
     * @retval true  An access was produced.
     * @retval false The stream has ended; @p out is unchanged.
     */
    virtual bool next(MemAccess &out) = 0;

    /**
     * Produce up to @p n accesses into @p dst.
     *
     * Semantically equivalent to calling next() repeatedly: the
     * concatenation of all fillChunk() results is byte-identical to
     * the next() stream (tests/stream_identity_test.cc pins this for
     * every generator). The base implementation loops over next();
     * hot generators (MarkovStream, the kernels, ReplayGenerator)
     * override it with a tight non-virtual inner loop so the sweep
     * engine pays one virtual dispatch per chunk instead of one per
     * access. It is the engine's only way to pull a chunk.
     *
     * @param dst Destination array with room for @p n records.
     * @param n   Maximum number of accesses to produce.
     * @return Number of accesses produced; less than @p n only when
     *         the stream ended.
     */
    virtual std::size_t fillChunk(MemAccess *dst, std::size_t n);

    /**
     * Zero-copy variant of fillChunk(): advance the stream by up to
     * @p n accesses and return a pointer into generator-owned storage
     * holding them, or nullptr when the generator cannot lend a view
     * (the base implementation; callers then fall back to
     * fillChunk()). A returned pointer stays valid until the next
     * call that advances or resets the stream. The lent records are
     * byte-identical to what fillChunk() would have copied out. No
     * generator in the library lends and the engine never calls it;
     * it stays for the benchmark harness's generator decorators.
     *
     * @param n   Maximum number of accesses to produce.
     * @param got Set to the number of accesses in the returned view
     *            (0 at end of stream); untouched when nullptr is
     *            returned.
     * @return Pointer to @p got consecutive records, or nullptr when
     *         borrowing is unsupported.
     */
    virtual const MemAccess *borrowChunk(std::size_t n, std::size_t &got)
    {
        (void)n;
        (void)got;
        return nullptr;
    }

    /** Restart the stream from the beginning (same seed, same content). */
    virtual void reset() = 0;

    /** Short generator name for reports. */
    virtual std::string name() const = 0;
};

} // namespace c8t::trace

#endif // C8T_TRACE_ACCESS_HH
