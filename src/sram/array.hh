/**
 * @file
 * The bit-interleaved 8T SRAM array model.
 *
 * The array is the physical substrate under the cache data store: one
 * physical row per cache set (which is exactly the granularity of the
 * paper's Set-Buffer). Word lines are shared by a whole row, so the only
 * *safe* write is a full-row write whose unselected columns carry the
 * values they already hold — i.e. a read-modify-write. The model makes
 * the unsafe alternative observable: writePartialUnsafe() leaves the
 * half-selected columns' write bit lines carrying garbage, corrupting
 * them, exactly the column-selection failure the paper describes.
 *
 * Storage layout note: rows are stored as logical bytes; the physical
 * bit ordering (interleaving) is applied lazily through the bijective
 * InterleaveMap when physical coordinates are used (fault injection,
 * physical inspection). This is behaviourally identical to storing
 * physical bits — the map is a bijection — and keeps the simulation
 * hot path at memcpy speed. Every row lives in one contiguous buffer
 * (row r at byte r * bytesPerRow), so building an array is one
 * allocation whatever its size; the counted accessors hand out
 * std::span views into it (DESIGN.md §7).
 */

#ifndef C8T_SRAM_ARRAY_HH
#define C8T_SRAM_ARRAY_HH

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "sram/cell.hh"
#include "sram/interleave.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"

namespace c8t::sram
{

/** Logical contents of one row (an owned copy). */
using RowData = std::vector<std::uint8_t>;

/** Read-only view of one row's bytes inside an array or buffer. */
using RowView = std::span<const std::uint8_t>;

/** Writable view of one row's bytes. */
using RowSpan = std::span<std::uint8_t>;

/** Static organisation of one SRAM array. */
struct ArrayGeometry
{
    /** Number of physical rows (= cache sets for a data array). */
    std::uint32_t rows = 512;

    /** Logical bytes per row (= assoc * block size for a data array). */
    std::uint32_t bytesPerRow = 128;

    /** Bit-interleave degree (1 = non-interleaved). */
    std::uint32_t interleaveDegree = 4;

    /**
     * Chang-style segmented write word lines: when true, partial writes
     * aligned to 64-bit words assert only their word's WWL segment and
     * are safe without RMW (at the area/ECC cost the paper describes).
     * When false (the common shared-WWL design) any partial write
     * corrupts the half-selected columns.
     */
    bool wordGranularWwl = false;

    /** Bits per logical/ECC word. */
    static constexpr std::uint32_t bitsPerWord = 64;

    /** Logical 64-bit words per row. */
    std::uint32_t wordsPerRow() const { return bytesPerRow / 8; }

    /** Physical columns per row. */
    std::uint32_t columns() const { return bytesPerRow * 8; }
};

/**
 * One SRAM array: functional storage plus event counting.
 *
 * All state-changing entry points count the circuit events they imply
 * (precharge, row read, row write) so energy accounting can be derived
 * from counters alone.
 */
class SRAMArray
{
  public:
    /**
     * Build a zero-initialised array.
     * @throws std::invalid_argument on inconsistent geometry.
     */
    explicit SRAMArray(ArrayGeometry geom);

    /** Geometry this array was built with. */
    const ArrayGeometry &geometry() const { return _geom; }

    /** The interleaving map in effect. */
    const InterleaveMap &map() const { return _map; }

    // --- counted circuit operations -----------------------------------

    /**
     * Read one full row (precharge RBLs, assert RWL, sense).
     * @param row Row index.
     * @param out Filled with the row's logical bytes.
     */
    void readRowInto(std::uint32_t row, RowData &out);

    /**
     * Counted row read returning a view of the stored image instead of
     * copying it out (DESIGN.md §7). Same precharge/read accounting as
     * readRowInto(); the view shows the next write to the row.
     */
    RowView readRowRef(std::uint32_t row)
    {
        ++_precharges;
        ++_rowReads;
        return rowView(row);
    }

    /**
     * Counted full-row write performed in place: counts one row write
     * and hands the caller the row image to overwrite. Equivalent to
     * composing the new image elsewhere and calling writeRow() — every
     * column's write driver carries a defined value either way.
     */
    RowSpan updateRow(std::uint32_t row)
    {
        ++_rowWrites;
        return rowSpan(row);
    }

    /** Convenience wrapper returning a fresh vector. */
    RowData readRow(std::uint32_t row);

    /**
     * Full-row write (the write-back half of an RMW): every column's
     * write driver carries a defined value, so nothing is corrupted.
     * @param row  Row index.
     * @param data Exactly bytesPerRow bytes.
     */
    void writeRow(std::uint32_t row, RowView data);

    /**
     * Partial write on an array where that is architecturally safe: a
     * 6T array (half-selected cells tolerate the read-like bias) or a
     * word-granular-WWL 8T array with an aligned range. Counts one row
     * write; only the addressed bytes change.
     *
     * @param row    Row index.
     * @param offset Byte offset of the written range within the row.
     * @param bytes  Bytes to write (offset + len <= bytesPerRow).
     * @param len    Number of bytes.
     */
    void mergeBytes(std::uint32_t row, std::uint32_t offset,
                    const std::uint8_t *bytes, std::size_t len);

    /** Convenience overload taking a byte vector. */
    void mergeBytes(std::uint32_t row, std::uint32_t offset,
                    const std::vector<std::uint8_t> &bytes)
    {
        mergeBytes(row, offset, bytes.data(), bytes.size());
    }

    /**
     * Partial write WITHOUT read-modify-write. The written byte range
     * behaves normally; every half-selected column outside it is
     * clobbered with garbage (deterministic per operation), unless the
     * geometry has word-granular WWLs and the range is word-aligned,
     * in which case the write is safe and only the range changes.
     *
     * This models asserting the shared WWL with undefined write bit
     * lines in the unselected columns; it exists so tests and the
     * motivation experiments can demonstrate the column-selection
     * failure, not for use by correct controllers.
     *
     * @param row    Row index.
     * @param offset Byte offset of the written range within the row.
     * @param bytes  Bytes to write (offset + len <= bytesPerRow).
     * @param len    Number of bytes.
     */
    void writePartialUnsafe(std::uint32_t row, std::uint32_t offset,
                            const std::uint8_t *bytes, std::size_t len);

    /** Convenience overload taking a byte vector. */
    void writePartialUnsafe(std::uint32_t row, std::uint32_t offset,
                            const std::vector<std::uint8_t> &bytes)
    {
        writePartialUnsafe(row, offset, bytes.data(), bytes.size());
    }

    // --- backdoor (uncounted) access -----------------------------------

    /** Copy of a row, without causing circuit events. */
    RowData peekRow(std::uint32_t row) const;

    /** View of a row, without causing circuit events (the controller's
     *  uncounted architectural reads). */
    RowView rowView(std::uint32_t row) const
    {
        assert(row < _geom.rows);
        return {_cells.data() +
                    static_cast<std::size_t>(row) * _geom.bytesPerRow,
                _geom.bytesPerRow};
    }

    /** Overwrite a row without causing circuit events (test setup). */
    void pokeRow(std::uint32_t row, RowView data);

    /** Physical bit value at (row, physical column). */
    bool physicalBit(std::uint32_t row, std::uint32_t col) const;

    /** Flip a physical bit (particle strike / fault injection). */
    void flipPhysicalBit(std::uint32_t row, std::uint32_t col);

    // --- event counters -------------------------------------------------

    /** Row read operations performed. */
    std::uint64_t rowReads() const { return _rowReads.value(); }

    /** Row write operations performed (full or partial). */
    std::uint64_t rowWrites() const { return _rowWrites.value(); }

    /** RBL precharge events (one per row read). */
    std::uint64_t precharges() const { return _precharges.value(); }

    /** Half-selected cells corrupted by unsafe partial writes. */
    std::uint64_t halfSelectCorruptions() const
    {
        return _halfSelectCorruptions.value();
    }

    /** Reset all event counters (contents untouched). */
    void resetCounters();

    /** Register every event counter with @p reg. */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = std::string());

  private:
    /** Writable view of row @p row. */
    RowSpan rowSpan(std::uint32_t row)
    {
        assert(row < _geom.rows);
        return {_cells.data() +
                    static_cast<std::size_t>(row) * _geom.bytesPerRow,
                _geom.bytesPerRow};
    }

    ArrayGeometry _geom;
    InterleaveMap _map;
    /** Every row, back to back: row r is bytes
     *  [r * bytesPerRow, (r + 1) * bytesPerRow). */
    std::vector<std::uint8_t> _cells;
    std::uint64_t _opCounter = 0;

    stats::Counter _rowReads{"array.row_reads", "full row reads"};
    stats::Counter _rowWrites{"array.row_writes", "row writes"};
    stats::Counter _precharges{"array.precharges", "RBL precharges"};
    stats::Counter _halfSelectCorruptions{
        "array.half_select_corruptions",
        "cells corrupted by partial writes without RMW"};
};

} // namespace c8t::sram

#endif // C8T_SRAM_ARRAY_HH
