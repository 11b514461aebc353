/**
 * @file
 * The Set-Buffer: the datapath buffer of the paper's Figure 6a, sized
 * to one cache set (one SRAM row), generalised to a small number of
 * entries (one per Tag-Buffer entry).
 *
 * The buffer sits between the column multiplexer and the write
 * drivers: it is filled by a row read, updated in place by write
 * requests (which is where silent stores are detected by comparison),
 * and drained by a single full-row write-back.
 */

#ifndef C8T_CORE_SET_BUFFER_HH
#define C8T_CORE_SET_BUFFER_HH

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sram/array.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"

namespace c8t::core
{

/**
 * Data storage for the grouping buffer entries.
 */
class SetBuffer
{
  public:
    /**
     * @param entries   Number of entries (paper: 1).
     * @param row_bytes Bytes per entry (= one cache set).
     */
    SetBuffer(std::uint32_t entries, std::uint32_t row_bytes);

    /** Fill entry @p e from a row image (a row read's result). */
    void fill(std::uint32_t e, sram::RowView row);

    /**
     * Merge @p len bytes at @p offset into entry @p e, comparing
     * against the previous contents — the silent-store check the
     * proposed hardware performs with comparators on the latch inputs.
     *
     * Inline with a whole-word fast path: this runs once per write
     * under the grouping schemes, and the dominant request size is the
     * full 8-byte word, where the fixed-size compare/copy compiles to
     * two register moves instead of a libc call.
     *
     * @return True when any byte changed (i.e. the write was NOT
     *         silent).
     */
    bool updateBytes(std::uint32_t e, std::uint32_t offset,
                     const std::uint8_t *src, std::size_t len)
    {
        assert(e < _entries);
        assert(offset + len <= _rowBytes);
        ++_updates;

        std::uint8_t *dst = entryData(e) + offset;
        const bool changed = len == 8
                                 ? __builtin_memcmp(dst, src, 8) != 0
                                 : std::memcmp(dst, src, len) != 0;
        if (changed) {
            if (len == 8)
                __builtin_memcpy(dst, src, 8);
            else
                std::memcpy(dst, src, len);
        } else {
            ++_silentUpdates;
        }
        return changed;
    }

    /** Read @p len bytes at @p offset from entry @p e. Inline: runs
     *  once per bypassed read under WG+RB. */
    void readBytes(std::uint32_t e, std::uint32_t offset,
                   std::uint8_t *dst, std::size_t len) const
    {
        assert(e < _entries);
        assert(offset + len <= _rowBytes);
        ++_reads;
        if (len == 8)
            __builtin_memcpy(dst, entryData(e) + offset, 8);
        else
            std::memcpy(dst, entryData(e) + offset, len);
    }

    /** Whole row image of entry @p e (for write-back). */
    sram::RowView rowView(std::uint32_t e) const
    {
        assert(e < _entries);
        return {entryData(e), _rowBytes};
    }

    /** Copy of entry @p e's row image (test inspection). */
    sram::RowData row(std::uint32_t e) const
    {
        const sram::RowView r = rowView(e);
        return sram::RowData(r.begin(), r.end());
    }

    /** Entry count. */
    std::uint32_t entries() const { return _entries; }

    /** Bytes per entry. */
    std::uint32_t rowBytes() const { return _rowBytes; }

    /** Buffer fills (row loads). */
    std::uint64_t fills() const { return _fills.value(); }

    /** In-place merges. */
    std::uint64_t updates() const { return _updates.value(); }

    /** Merges whose data matched (silent stores caught). */
    std::uint64_t silentUpdates() const { return _silentUpdates.value(); }

    /** Buffer read accesses (bypassed reads). */
    std::uint64_t reads() const { return _reads.value(); }

    /** Reset statistics (contents untouched). */
    void resetCounters();

    /** Register the buffer counters with @p reg. */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = std::string());

  private:
    /** First byte of entry @p e in the flat buffer. */
    std::uint8_t *entryData(std::uint32_t e)
    {
        return _data.data() + static_cast<std::size_t>(e) * _rowBytes;
    }
    const std::uint8_t *entryData(std::uint32_t e) const
    {
        return _data.data() + static_cast<std::size_t>(e) * _rowBytes;
    }

    std::uint32_t _entries;
    std::uint32_t _rowBytes;
    /** Every entry's row image, back to back. */
    std::vector<std::uint8_t> _data;

    stats::Counter _fills{"setbuf.fills", "Set-Buffer row loads"};
    stats::Counter _updates{"setbuf.updates", "in-place merges"};
    stats::Counter _silentUpdates{"setbuf.silent_updates",
                                  "merges detected as silent"};
    /** Mutable: reads are logically const but still counted. */
    mutable stats::Counter _reads{"setbuf.reads", "buffer read accesses"};
};

} // namespace c8t::core

#endif // C8T_CORE_SET_BUFFER_HH
