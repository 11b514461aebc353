/**
 * @file
 * Set-Buffer implementation.
 */

#include "core/set_buffer.hh"

#include <cassert>
#include <cstring>

namespace c8t::core
{

SetBuffer::SetBuffer(std::uint32_t entries, std::uint32_t row_bytes)
    : _entries(entries), _rowBytes(row_bytes),
      _data(static_cast<std::size_t>(entries) * row_bytes, 0)
{
    assert(entries >= 1 && row_bytes >= 8);
}

void
SetBuffer::fill(std::uint32_t e, sram::RowView row)
{
    assert(e < _entries);
    assert(row.size() == _rowBytes);
    ++_fills;
    std::memcpy(entryData(e), row.data(), _rowBytes);
}

void
SetBuffer::registerStats(stats::Registry &reg, const std::string &prefix)
{
    reg.add(_fills, prefix);
    reg.add(_updates, prefix);
    reg.add(_silentUpdates, prefix);
    reg.add(_reads, prefix);
}

void
SetBuffer::resetCounters()
{
    _fills.reset();
    _updates.reset();
    _silentUpdates.reset();
    _reads.reset();
}

} // namespace c8t::core
