/**
 * @file
 * Replay of a pre-generated access stream out of packed storage.
 *
 * PackedStream stores a stream as 16-byte records instead of 24-byte
 * MemAccess values and is the one place that knows their bit layout.
 * ReplayGenerator adapts an immutable, ref-counted PackedStream to the
 * AccessGenerator interface, unpacking each chunk as it is pulled. The
 * core::StreamCache hands the same stream to every sweep job that
 * requests the same workload signature, so it is generated once per
 * process; the unpacked accesses are byte-identical to what the
 * original generator produced, and concurrent replays never contend
 * (each generator only advances its own cursor).
 */

#ifndef C8T_TRACE_REPLAY_HH
#define C8T_TRACE_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace c8t::trace
{

/** One access in 16 bytes: PackedStream's record. */
struct PackedAccess
{
    std::uint64_t word; ///< address, size code, type, escape bit, gap
    std::uint64_t data; ///< the payload; an escaped record's index
};

/**
 * An access stream stored as PackedAccess records.
 *
 * The word packs the address into bits 0-47, log2 of the size into
 * bits 48-49, the type into bit 50 and the gap into bits 52-63. A
 * record that does not fit (address >= 2^48, gap >= 4096, or a size or
 * type outside the MemAccess contract: only trace files and test
 * generators produce these) sets the escape bit, 51, and is kept whole
 * in a side table that its data word indexes. Every stream therefore
 * unpacks byte-identically.
 */
class PackedStream
{
  public:
    /** The smallest address and gap that escape. */
    static constexpr std::uint64_t kAddrLimit = std::uint64_t{1} << 48;
    static constexpr std::uint32_t kGapLimit = 1u << 12;

    /** An empty stream with room for @p capacity records, none of
     *  them initialised. */
    explicit PackedStream(std::size_t capacity);

    /** @p accesses packed whole. */
    explicit PackedStream(const std::vector<MemAccess> &accesses);

    /** Pack @p n accesses onto the end; size() + @p n must not exceed
     *  the capacity. */
    void append(const MemAccess *src, std::size_t n);

    /** Unpack records [@p pos, @p pos + @p n), which must exist, into
     *  @p dst. */
    void unpack(std::size_t pos, MemAccess *dst, std::size_t n) const;

    /** Release the capacity beyond size(). */
    void shrinkToFit();

    /** Records held. */
    std::size_t size() const { return _size; }

    /** Bytes of the records and the side table: 16 per record and 24
     *  more per escaped one. */
    std::size_t bytes() const
    {
        return _size * sizeof(PackedAccess) +
               _escaped.size() * sizeof(MemAccess);
    }

  private:
    static constexpr unsigned kSizeShift = 48;
    static constexpr unsigned kTypeShift = 50;
    static constexpr unsigned kEscapeShift = 51;
    static constexpr unsigned kGapShift = 52;

    std::unique_ptr<PackedAccess[]> _records;
    std::size_t _size = 0;
    std::size_t _capacity = 0;
    std::vector<MemAccess> _escaped;
};

/**
 * Replays a shared immutable packed stream.
 */
class ReplayGenerator : public AccessGenerator
{
  public:
    /** Shared packed storage; never mutated after construction. */
    using Packed = std::shared_ptr<const PackedStream>;
    /** A stream held as plain records. */
    using Buffer = std::shared_ptr<const std::vector<MemAccess>>;

    /**
     * @param name   Name the originating generator reported (results
     *               must be indistinguishable from a live run).
     * @param stream The pre-generated stream; must not be null.
     * @throws std::invalid_argument when @p stream is null.
     */
    ReplayGenerator(std::string name, Packed stream);

    /** Replays @p buffer, which is packed once here.
     *  @throws std::invalid_argument when @p buffer is null. */
    ReplayGenerator(std::string name, const Buffer &buffer);

    bool next(MemAccess &out) override;
    std::size_t fillChunk(MemAccess *dst, std::size_t n) override;

    void reset() override { _pos = 0; }
    std::string name() const override { return _name; }

    /** Total accesses in the underlying stream. */
    std::size_t size() const { return _stream->size(); }

    /** Accesses remaining before the stream ends. */
    std::size_t remaining() const { return _stream->size() - _pos; }

  private:
    std::string _name;
    Packed _stream;
    std::size_t _pos = 0;
};

} // namespace c8t::trace

#endif // C8T_TRACE_REPLAY_HH
