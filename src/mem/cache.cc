/**
 * @file
 * Tag array implementation.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace c8t::mem
{

void
CacheConfig::validate() const
{
    if (!isPowerOfTwo(blockBytes) || blockBytes < 8)
        throw std::invalid_argument(
            "CacheConfig: block size must be a power of two >= 8");
    if (ways == 0 || ways > 64)
        throw std::invalid_argument("CacheConfig: ways must be in 1..64");
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(ways) * blockBytes;
    if (sizeBytes == 0 || sizeBytes % set_bytes != 0)
        throw std::invalid_argument(
            "CacheConfig: size must be a multiple of ways * blockBytes");
    if (!isPowerOfTwo(numSets()))
        throw std::invalid_argument(
            "CacheConfig: set count must be a power of two");
    if (replacement == ReplKind::Lru && ways > 16)
        throw std::invalid_argument(
            "CacheConfig: ways must be in 1..16 for lru");
    if (replacement == ReplKind::TreePlru && !isPowerOfTwo(ways))
        throw std::invalid_argument(
            "CacheConfig: ways must be a power of two for plru");
}

std::string
CacheConfig::toString() const
{
    std::ostringstream os;
    os << (sizeBytes >> 10) << "KB/" << ways << "w/" << blockBytes << "B/"
       << c8t::mem::toString(replacement);
    return os.str();
}

TagArray::TagArray(const CacheConfig &config)
    : _config(config),
      _layout((config.validate(), config.blockBytes), config.numSets()),
      _ways(config.ways),
      _tagStore(static_cast<std::size_t>(config.numSets()) * config.ways,
                0),
      _valid(config.numSets(), 0),
      _dirty(config.numSets(), 0),
      _replWord(config.numSets(), 0)
{
    if (config.replacement == ReplKind::Lru) {
        // Identity recency order (nibble i = way i, MRU at nibble 0).
        // The initial order is never consulted: victims prefer invalid
        // ways, and every way is touched by its fill before the set
        // can be full.
        std::uint64_t init = 0;
        for (std::uint32_t w = 0; w < _ways; ++w)
            init |= static_cast<std::uint64_t>(w) << (4 * w);
        std::fill(_replWord.begin(), _replWord.end(), init);
    }
}

void
TagArray::markDirty(Addr addr)
{
    const LookupResult r = probe(addr);
    assert(r.hit && "markDirty on a non-resident block");
    markDirtyWay(_layout.setOf(addr), r.way);
}

Addr
TagArray::blockAddrAt(std::uint32_t set, std::uint32_t way) const
{
    assert(isValid(set, way));
    return _layout.blockAddr(tagAt(set, way), set);
}

std::vector<Addr>
TagArray::tagsOfSet(std::uint32_t set) const
{
    std::vector<Addr> tags(_config.ways, 0);
    copyTagsOfSet(set, tags.data());
    return tags;
}

void
TagArray::copyTagsOfSet(std::uint32_t set, Addr *out) const
{
    const Addr *tags = &_tagStore[static_cast<std::size_t>(set) * _ways];
    const std::uint64_t valid = _valid[set];
    for (std::uint32_t w = 0; w < _ways; ++w)
        out[w] = ((valid >> w) & 1) ? tags[w] : 0;
}

void
TagArray::reservePlan(std::size_t capacity)
{
    if (_plan.set.size() >= capacity && !_planHead.empty())
        return;
    _plan.set.resize(capacity);
    _plan.tag.resize(capacity);
    _plan.way.resize(capacity);
    _plan.flags.resize(capacity);
    _plan.replWord.resize(capacity);
    _plan.evictedAddr.resize(capacity);
    _planNext.resize(capacity);
    _planTouched.reserve(capacity);
    _planHead.assign(_layout.numSets(), kPlanNone);
}

template <ReplKind K>
void
TagArray::planSets(const trace::MemAccess *chunk)
{
    const std::uint32_t *next = _planNext.data();

    for (const std::uint32_t set : _planTouched) {
        // Stack-local copy of the set's state: the walk below is pure
        // prediction — nothing is committed until the controller
        // applies the plan in original request order.
        Addr tags[64]; // CacheConfig::validate()'s associativity bound
        const Addr *row =
            &_tagStore[static_cast<std::size_t>(set) * _ways];
        for (std::uint32_t w = 0; w < _ways; ++w)
            tags[w] = row[w];
        std::uint64_t valid = _valid[set];
        std::uint64_t dirty = _dirty[set];
        std::uint64_t repl = _replWord[set];

        for (std::uint32_t i = _planHead[set]; i != kPlanNone;
             i = next[i]) {
            const Addr tag = _plan.tag[i];
            const std::uint64_t m =
                simd::matchBits(tags, _ways, tag) & valid;
            std::uint32_t w;
            std::uint8_t flags;
            if (m) {
                w = static_cast<std::uint32_t>(std::countr_zero(m));
                flags = ChunkPlan::kHit;
                ++_plan.hits;
                repl = replAfterHit(K, repl, _ways, w);
            } else {
                ++_plan.misses;
                flags = 0;
                w = victimWay(K, valid, repl, _ways, _victimRng);
                const std::uint64_t bit = 1ull << w;
                if (valid & bit) {
                    flags |= ChunkPlan::kEvictValid;
                    ++_plan.evictions;
                    if (dirty & bit) {
                        flags |= ChunkPlan::kEvictDirty;
                        ++_plan.dirtyEvictions;
                    }
                    _plan.evictedAddr[i] =
                        _layout.blockAddr(tags[w], set);
                }
                tags[w] = tag;
                valid |= bit;
                dirty &= ~bit;
                repl = replAfterFill(K, repl, _ways, w);
            }
            if (chunk[i].isWrite())
                dirty |= 1ull << w; // markDirtyWay
            _plan.way[i] = static_cast<std::uint8_t>(w);
            _plan.flags[i] = flags;
            _plan.replWord[i] = repl;
        }
    }
}

const ChunkPlan &
TagArray::planChunk(const trace::MemAccess *chunk, std::size_t count)
{
    assert(planEligible() && "planChunk on an ineligible shape");
    reservePlan(count);

    // Stage A+B fused: decode every address once (the scheme loops
    // reuse the plan's set/tag instead of re-deriving them) while
    // threading the chunk into per-set chains. The single pass runs
    // backwards: building with push-front leaves each chain in
    // ascending access order, so per-set order — the only order tag
    // evolution depends on — is preserved exactly.
    _planTouched.clear();
    for (std::size_t r = count; r-- > 0;) {
        const auto i = static_cast<std::uint32_t>(r);
        std::uint32_t set;
        Addr tag;
        _layout.splitOf(chunk[r].addr, set, tag);
        _plan.set[i] = set;
        _plan.tag[i] = tag;
        if (_planHead[set] == kPlanNone)
            _planTouched.push_back(set);
        _planNext[i] = _planHead[set];
        _planHead[set] = i;
    }
    _plan.hits = 0;
    _plan.misses = 0;
    _plan.evictions = 0;
    _plan.dirtyEvictions = 0;
    _plan.count = count;

    // Stage C: simulate each touched set's batch.
    switch (_config.replacement) {
      case ReplKind::Lru:
        planSets<ReplKind::Lru>(chunk);
        break;
      case ReplKind::TreePlru:
        planSets<ReplKind::TreePlru>(chunk);
        break;
      default:
        planSets<ReplKind::Fifo>(chunk);
        break;
    }

    // Reset only the touched heads so the next chunk starts clean.
    for (const std::uint32_t set : _planTouched)
        _planHead[set] = kPlanNone;
    return _plan;
}

void
TagArray::registerStats(stats::Registry &reg, const std::string &prefix)
{
    reg.add(_hits, prefix);
    reg.add(_misses, prefix);
    reg.add(_evictions, prefix);
    reg.add(_dirtyEvictions, prefix);
}

void
TagArray::resetCounters()
{
    _hits.reset();
    _misses.reset();
    _evictions.reset();
    _dirtyEvictions.reset();
}

} // namespace c8t::mem
