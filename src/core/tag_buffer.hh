/**
 * @file
 * The Tag-Buffer: the controller-side address-tracking structure of the
 * paper's Figure 6b, generalised to a small number of entries.
 *
 * Each entry mirrors one buffered cache set: the set index, the tags of
 * *all* blocks in that set, and the Dirty bit indicating the Set-Buffer
 * holds data newer than the array. The paper's design is a single
 * entry; the multi-entry generalisation is the natural future-work
 * extension evaluated in bench/abl_multi_entry_buffer.
 *
 * Hot-path layout (DESIGN.md §7): like the TagArray, entry state is
 * stored structure-of-arrays — one flat tag vector plus per-entry
 * scalar vectors — and the probe is a branchless way-compare over the
 * matching entry. probe() runs once per access under the grouping
 * schemes, so it is fully inline.
 */

#ifndef C8T_CORE_TAG_BUFFER_HH
#define C8T_CORE_TAG_BUFFER_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "mem/simd.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"

namespace c8t::core
{

/** Result of a Tag-Buffer probe. */
struct TagProbe
{
    /** An entry holds the probed set. */
    bool setMatch = false;

    /** ... and the probed tag is among that set's valid tags. */
    bool tagMatch = false;

    /** The matching entry index (valid when setMatch). */
    std::uint32_t entry = 0;

    /** The way whose tag matched (valid when tagMatch). */
    std::uint32_t way = 0;
};

/**
 * A small, fully-associative buffer of set descriptors with LRU
 * replacement among entries.
 */
class TagBuffer
{
  public:
    /**
     * @param entries Number of buffered sets (paper: 1).
     * @param ways    Cache associativity (tags per entry).
     */
    TagBuffer(std::uint32_t entries, std::uint32_t ways);

    /** Like probe() but without statistics side effects. */
    TagProbe peek(std::uint32_t set, mem::Addr tag) const
    {
        TagProbe r;
        for (std::uint32_t i = 0; i < _entries; ++i) {
            if (!_valid[i] || _set[i] != set)
                continue;
            r.setMatch = true;
            r.entry = i;
            // Same SIMD way-compare as the TagArray lookup (an entry
            // mirrors one set, so the shape is identical).
            const mem::Addr *tags =
                &_tags[static_cast<std::size_t>(i) * _ways];
            const std::uint64_t m =
                mem::simd::matchBits(tags, _ways, tag) & _validMask[i];
            if (m) {
                r.tagMatch = true;
                r.way =
                    static_cast<std::uint32_t>(std::countr_zero(m));
            }
            break; // a set is buffered by at most one entry
        }
        return r;
    }

    /**
     * Probe for (set, tag). Counts one probe plus set/tag hit
     * statistics; does not modify entry state.
     */
    TagProbe probe(std::uint32_t set, mem::Addr tag)
    {
        ++_probes;
        const TagProbe r = peek(set, tag);
        if (r.setMatch)
            ++_setHits;
        if (r.tagMatch)
            ++_tagHits;
        return r;
    }

    /**
     * Load entry @p e with a new set descriptor.
     *
     * @param e          Entry index.
     * @param set        Cache set index.
     * @param tags       Tag of each way (at least @c ways entries, e.g.
     *                   from TagArray::copyTagsOfSet()).
     * @param valid_mask Which ways hold valid blocks.
     */
    void load(std::uint32_t e, std::uint32_t set, const mem::Addr *tags,
              std::uint64_t valid_mask);

    /** Convenience overload taking a tag vector (must hold @c ways
     *  entries). */
    void load(std::uint32_t e, std::uint32_t set,
              const std::vector<mem::Addr> &tags,
              std::uint64_t valid_mask)
    {
        assert(tags.size() == _ways);
        load(e, set, tags.data(), valid_mask);
    }

    /** Drop entry @p e. */
    void invalidate(std::uint32_t e)
    {
        assert(e < _entries);
        _valid[e] = 0;
        _dirty[e] = 0;
    }

    /** Drop every entry. */
    void invalidateAll();

    /** Mark entry @p e most recently used. */
    void touch(std::uint32_t e)
    {
        assert(e < _entries);
        _lruStamp[e] = ++_clock;
    }

    /** Entry to evict next (invalid entries first, then LRU). */
    std::uint32_t victim() const
    {
        std::uint32_t best = 0;
        bool found_valid = false;
        std::uint64_t oldest = 0;
        for (std::uint32_t i = 0; i < _entries; ++i) {
            if (!_valid[i])
                return i;
            if (!found_valid || _lruStamp[i] < oldest) {
                best = i;
                oldest = _lruStamp[i];
                found_valid = true;
            }
        }
        return best;
    }

    /** True when entry @p e holds a set. */
    bool entryValid(std::uint32_t e) const
    {
        assert(e < _entries);
        return _valid[e] != 0;
    }

    /** Set index held by entry @p e (requires valid). */
    std::uint32_t entrySet(std::uint32_t e) const
    {
        assert(e < _entries && _valid[e]);
        return _set[e];
    }

    /** Dirty bit of entry @p e. */
    bool dirty(std::uint32_t e) const
    {
        assert(e < _entries);
        return _dirty[e] != 0;
    }

    /** Set/clear the Dirty bit of entry @p e. */
    void setDirty(std::uint32_t e, bool d)
    {
        assert(e < _entries);
        _dirty[e] = d ? 1 : 0;
    }

    /** Number of entries. */
    std::uint32_t entries() const { return _entries; }

    /** Storage bits of this buffer for @p set_index_bits / @p tag_bits
     *  geometry (the §5.4 area argument). */
    std::uint64_t storageBits(std::uint32_t set_index_bits,
                              std::uint32_t tag_bits) const;

    /** Probes issued. */
    std::uint64_t probes() const { return _probes.value(); }

    /** Probes that matched a buffered set. */
    std::uint64_t setHits() const { return _setHits.value(); }

    /** Probes that matched set and tag. */
    std::uint64_t tagHits() const { return _tagHits.value(); }

    /** Reset statistics (entries untouched). */
    void resetCounters();

    /** Register the probe counters with @p reg. */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = std::string());

  private:
    std::uint32_t _entries;
    std::uint32_t _ways;

    // Structure-of-arrays entry state.
    std::vector<mem::Addr> _tags;          //!< [entry * ways + way]
    std::vector<std::uint32_t> _set;       //!< buffered set index
    std::vector<std::uint8_t> _valid;      //!< entry holds a set
    std::vector<std::uint8_t> _dirty;      //!< Set-Buffer newer
    std::vector<std::uint64_t> _validMask; //!< valid ways of the set
    std::vector<std::uint64_t> _lruStamp;  //!< entry recency
    std::uint64_t _clock = 0;

    stats::Counter _probes{"tagbuf.probes", "Tag-Buffer probes"};
    stats::Counter _setHits{"tagbuf.set_hits", "probes matching a set"};
    stats::Counter _tagHits{"tagbuf.tag_hits",
                            "probes matching set and tag"};
};

} // namespace c8t::core

#endif // C8T_CORE_TAG_BUFFER_HH
