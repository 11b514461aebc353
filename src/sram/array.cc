/**
 * @file
 * SRAM array implementation.
 */

#include "sram/array.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "trace/rng.hh"

namespace c8t::sram
{

SRAMArray::SRAMArray(ArrayGeometry geom)
    : _geom(geom),
      _map(geom.wordsPerRow(), ArrayGeometry::bitsPerWord,
           geom.interleaveDegree)
{
    if (_geom.rows == 0)
        throw std::invalid_argument("SRAMArray: zero rows");
    if (_geom.bytesPerRow == 0 || _geom.bytesPerRow % 8 != 0)
        throw std::invalid_argument(
            "SRAMArray: bytesPerRow must be a positive multiple of 8");
    if (_geom.wordsPerRow() % _geom.interleaveDegree != 0)
        throw std::invalid_argument(
            "SRAMArray: words per row must be a multiple of the "
            "interleave degree");

    _cells.assign(static_cast<std::size_t>(_geom.rows) * _geom.bytesPerRow,
                  0);
}

void
SRAMArray::readRowInto(std::uint32_t row, RowData &out)
{
    assert(row < _geom.rows);
    const RowView r = readRowRef(row);
    out.assign(r.begin(), r.end());
}

RowData
SRAMArray::readRow(std::uint32_t row)
{
    RowData out;
    readRowInto(row, out);
    return out;
}

void
SRAMArray::writeRow(std::uint32_t row, RowView data)
{
    assert(data.size() == _geom.bytesPerRow);
    std::copy(data.begin(), data.end(), updateRow(row).begin());
}

void
SRAMArray::mergeBytes(std::uint32_t row, std::uint32_t offset,
                      const std::uint8_t *bytes, std::size_t len)
{
    assert(offset + len <= _geom.bytesPerRow);
    std::copy(bytes, bytes + len, updateRow(row).begin() + offset);
}

void
SRAMArray::writePartialUnsafe(std::uint32_t row, std::uint32_t offset,
                              const std::uint8_t *bytes, std::size_t len)
{
    assert(offset + len <= _geom.bytesPerRow);
    ++_opCounter;

    const RowSpan r = updateRow(row);

    const bool word_aligned = offset % 8 == 0 && len % 8 == 0;
    if (_geom.wordGranularWwl && word_aligned) {
        // Segmented WWL: only the addressed words' word-line segments
        // rise, so the unselected columns are never biased.
        std::copy(bytes, bytes + len, r.begin() + offset);
        return;
    }

    // Shared WWL: every cell in the row is written with whatever its
    // write bit lines carry. The selected range carries real data; the
    // half-selected columns carry undefined values, modelled as a
    // deterministic pseudo-random pattern per operation.
    std::uint64_t noise_state =
        (static_cast<std::uint64_t>(row) << 32) ^ _opCounter;
    for (std::uint32_t i = 0; i < _geom.bytesPerRow; ++i) {
        if (i >= offset && i < offset + len) {
            r[i] = bytes[i - offset];
        } else {
            const auto garbage = static_cast<std::uint8_t>(
                trace::splitmix64(noise_state));
            if (r[i] != garbage)
                _halfSelectCorruptions += 8; // whole byte of cells biased
            r[i] = garbage;
        }
    }
}

RowData
SRAMArray::peekRow(std::uint32_t row) const
{
    const RowView r = rowView(row);
    return RowData(r.begin(), r.end());
}

void
SRAMArray::pokeRow(std::uint32_t row, RowView data)
{
    assert(data.size() == _geom.bytesPerRow);
    std::copy(data.begin(), data.end(), rowSpan(row).begin());
}

bool
SRAMArray::physicalBit(std::uint32_t row, std::uint32_t col) const
{
    assert(row < _geom.rows && col < _geom.columns());
    const std::uint32_t word = _map.wordOf(col);
    const std::uint32_t bit = _map.bitOf(col);
    const std::uint32_t byte = word * 8 + bit / 8;
    return (rowView(row)[byte] >> (bit % 8)) & 1;
}

void
SRAMArray::flipPhysicalBit(std::uint32_t row, std::uint32_t col)
{
    assert(row < _geom.rows && col < _geom.columns());
    const std::uint32_t word = _map.wordOf(col);
    const std::uint32_t bit = _map.bitOf(col);
    const std::uint32_t byte = word * 8 + bit / 8;
    rowSpan(row)[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void
SRAMArray::registerStats(stats::Registry &reg, const std::string &prefix)
{
    reg.add(_rowReads, prefix);
    reg.add(_rowWrites, prefix);
    reg.add(_precharges, prefix);
    reg.add(_halfSelectCorruptions, prefix);
}

void
SRAMArray::resetCounters()
{
    _rowReads.reset();
    _rowWrites.reset();
    _precharges.reset();
    _halfSelectCorruptions.reset();
}

} // namespace c8t::sram
