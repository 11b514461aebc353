/**
 * @file
 * Tag-Buffer implementation (cold paths; the probe is in the header).
 */

#include "core/tag_buffer.hh"

#include <algorithm>
#include <cassert>

namespace c8t::core
{

TagBuffer::TagBuffer(std::uint32_t entries, std::uint32_t ways)
    : _entries(entries), _ways(ways),
      _tags(static_cast<std::size_t>(entries) * ways, 0),
      _set(entries, 0), _valid(entries, 0), _dirty(entries, 0),
      _validMask(entries, 0), _lruStamp(entries, 0)
{
    assert(entries >= 1 && ways >= 1);
}

void
TagBuffer::load(std::uint32_t e, std::uint32_t set,
                const mem::Addr *tags, std::uint64_t valid_mask)
{
    assert(e < _entries);
    _set[e] = set;
    _valid[e] = 1;
    _dirty[e] = 0;
    _validMask[e] = valid_mask;
    // Entry tag storage is pre-sized to the associativity at
    // construction; copying in place keeps load() allocation-free.
    std::copy(tags, tags + _ways,
              _tags.begin() + static_cast<std::size_t>(e) * _ways);
    _lruStamp[e] = ++_clock;
}

void
TagBuffer::invalidateAll()
{
    for (std::uint32_t e = 0; e < _entries; ++e)
        invalidate(e);
}

std::uint64_t
TagBuffer::storageBits(std::uint32_t set_index_bits,
                       std::uint32_t tag_bits) const
{
    // Per entry: set index + per-way (tag + valid) + dirty.
    const std::uint64_t per_entry =
        set_index_bits +
        static_cast<std::uint64_t>(_ways) * (tag_bits + 1) + 1;
    return per_entry * _entries;
}

void
TagBuffer::registerStats(stats::Registry &reg, const std::string &prefix)
{
    reg.add(_probes, prefix);
    reg.add(_setHits, prefix);
    reg.add(_tagHits, prefix);
}

void
TagBuffer::resetCounters()
{
    _probes.reset();
    _setHits.reset();
    _tagHits.reset();
}

} // namespace c8t::core
