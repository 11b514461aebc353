/**
 * @file
 * Set-associative cache tag state.
 *
 * The TagArray owns the architectural tag/valid/dirty state and the
 * replacement policy. It deliberately does NOT own block data: data
 * lives in the SRAM data array (one physical row per set) and, under
 * the proposed schemes, temporarily in the Set-Buffer — placement is
 * the controller's job (src/core/controller.hh). Keeping tags separate
 * guarantees every write scheme sees the identical hit/miss sequence.
 *
 * Hot-path layout (DESIGN.md §7): tag words, valid bits and dirty bits
 * are stored structure-of-arrays — a flat tag vector plus one 64-bit
 * valid and one 64-bit dirty bitmask per set — so a lookup is a
 * branchless way-compare producing a match mask, and dirty/valid
 * updates are single bit operations. Replacement is devirtualized:
 * every policy runs on one 64-bit word per set, updated inline with
 * zero virtual calls — LRU (ways <= 16) as a 4-bit-per-way recency
 * word, Tree-PLRU as tree bits, FIFO as a fill counter, Random as a
 * shared deterministic draw. The virtual reference policies live with
 * the tests (tests/repl_oracle.hh) as the encodings' oracle.
 */

#ifndef C8T_MEM_CACHE_HH
#define C8T_MEM_CACHE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "mem/replacement.hh"
#include "mem/simd.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "trace/access.hh"
#include "trace/rng.hh"

namespace c8t::mem
{

/** Shape and policy of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 64 * 1024;

    /** Associativity. */
    std::uint32_t ways = 4;

    /** Block size in bytes. */
    std::uint32_t blockBytes = 32;

    /** Replacement policy. */
    ReplKind replacement = ReplKind::Lru;

    /** Number of sets implied by the shape. */
    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(
            sizeBytes / (static_cast<std::uint64_t>(ways) * blockBytes));
    }

    /** Bytes in one set (= one SRAM row = the Set-Buffer size). */
    std::uint32_t setBytes() const { return ways * blockBytes; }

    /**
     * Check shape consistency (powers of two, exact division) and that
     * the replacement policy's encoding covers the associativity
     * (LRU <= 16 ways, Tree-PLRU a power of two).
     * @throws std::invalid_argument on violation.
     */
    void validate() const;

    /** "64KB/4w/32B/lru" style description. */
    std::string toString() const;

    /** Shape equality — the sweep drivers use it to share per-chunk
     *  access plans between controllers with identical caches. */
    bool operator==(const CacheConfig &other) const = default;
};

/** Result of a tag lookup. */
struct LookupResult
{
    /** True when the block is resident. */
    bool hit = false;

    /** Way holding the block (valid only when hit). */
    std::uint32_t way = 0;
};

/** Result of allocating a block (a fill). */
struct FillResult
{
    /** Way the new block was placed in. */
    std::uint32_t way = 0;

    /** True when a valid block was evicted. */
    bool evictedValid = false;

    /** True when the evicted block was dirty. */
    bool evictedDirty = false;

    /** Block base address of the evicted block (when evictedValid). */
    Addr evictedBlockAddr = 0;
};

/**
 * Per-chunk access plan (DESIGN.md §7): the tag-pipeline stage outputs.
 *
 * TagArray::planChunk() walks a replay chunk in per-set batches and
 * predicts, for every access, the full outcome of its tag lookup —
 * hit/miss, the way involved, the post-access replacement word, and
 * the eviction metadata of a fill — without committing any state.
 * The controller's scheme loops then consume the plan in original
 * request order, so every globally-ordered side effect (cycle clock,
 * port scheduling, buffer traffic, data movement) happens exactly
 * where the per-access path put it, while the tag compares and
 * replacement arithmetic have already been done batch-wise.
 *
 * Structure-of-arrays, sized by the first planChunk() call to the
 * chunk it plans: filling a plan is allocation-free in steady state,
 * and a TagArray that never plans never allocates one.
 */
struct ChunkPlan
{
    /** flags bits. */
    static constexpr std::uint8_t kHit = 1;        //!< lookup hit
    static constexpr std::uint8_t kEvictValid = 2; //!< fill evicted
    static constexpr std::uint8_t kEvictDirty = 4; //!< ... a dirty block

    std::vector<std::uint32_t> set;   //!< decoded set index
    std::vector<Addr> tag;            //!< decoded tag bits
    std::vector<std::uint8_t> way;    //!< hit way / filled way
    std::vector<std::uint8_t> flags;  //!< kHit / kEvict* bits
    std::vector<std::uint64_t> replWord; //!< post-access encoding
    std::vector<Addr> evictedAddr;    //!< block base (when kEvictValid)

    /** Chunk-wide sums, applied to the counters once per chunk. */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    /** Accesses planned (entries [0, count) are meaningful). */
    std::size_t count = 0;
};

/**
 * The tag array: lookup, fill, dirty tracking, statistics.
 */
class TagArray
{
  public:
    /**
     * @param config Cache shape; validated.
     * @throws std::invalid_argument on a bad shape.
     */
    explicit TagArray(const CacheConfig &config);

    /** The address layout in effect. */
    const AddrLayout &layout() const { return _layout; }

    /** The configuration in effect. */
    const CacheConfig &config() const { return _config; }

    /**
     * Probe for @p addr without changing any state (no LRU update,
     * no statistics).
     */
    LookupResult probe(Addr addr) const
    {
        const std::uint32_t set = _layout.setOf(addr);
        const std::uint64_t m = matchMask(set, _layout.tagOf(addr));
        if (m)
            return {true,
                    static_cast<std::uint32_t>(std::countr_zero(m))};
        return {false, 0};
    }

    /**
     * Look up @p addr, updating replacement state and hit/miss
     * statistics. Does not allocate on miss. On a hit the returned
     * way identifies the resident block.
     */
    LookupResult access(Addr addr)
    {
        const std::uint32_t set = _layout.setOf(addr);
        const std::uint64_t m = matchMask(set, _layout.tagOf(addr));
        if (m) {
            const auto way =
                static_cast<std::uint32_t>(std::countr_zero(m));
            recordHit(set, way);
            return {true, way};
        }
        ++_misses;
        return {false, 0};
    }

    /**
     * Record a demand hit on (set, way), which must hold the block:
     * access()'s hit path without the lookup, for callers that
     * already know the way (the L2's write-back burst).
     */
    void recordHit(std::uint32_t set, std::uint32_t way)
    {
        assert(isValid(set, way));
        ++_hits;
        _replWord[set] =
            replAfterHit(_config.replacement, _replWord[set], _ways, way);
    }

    /**
     * Allocate a block for @p addr (which must currently miss):
     * chooses a victim, installs the tag, marks it valid and clean,
     * and updates replacement state. Inline: runs once per miss
     * (DESIGN.md §7).
     */
    FillResult fill(Addr addr)
    {
        assert(!probe(addr).hit && "fill of a resident block");

        const std::uint32_t set = _layout.setOf(addr);
        const std::uint32_t way = victimWay(
            _config.replacement, _valid[set], _replWord[set], _ways,
            _victimRng);

        FillResult result;
        result.way = way;

        const std::uint64_t bit = 1ull << way;
        const std::size_t idx =
            static_cast<std::size_t>(set) * _ways + way;
        if (_valid[set] & bit) {
            result.evictedValid = true;
            result.evictedDirty = (_dirty[set] & bit) != 0;
            result.evictedBlockAddr =
                _layout.blockAddr(_tagStore[idx], set);
            ++_evictions;
            if (result.evictedDirty)
                ++_dirtyEvictions;
        }

        _tagStore[idx] = _layout.tagOf(addr);
        _valid[set] |= bit;
        _dirty[set] &= ~bit;
        _replWord[set] =
            replAfterFill(_config.replacement, _replWord[set], _ways, way);
        return result;
    }

    /**
     * Drop the block in (set, way): clears valid and dirty without
     * touching replacement state (the stale repl entry ages out
     * naturally; victimWay may pick the hole next, which is the
     * desired behaviour for a back-invalidated frame). Used by the
     * hierarchy's inclusion maintenance — an L2 eviction must
     * invalidate the line's L1 copy.
     */
    void invalidate(std::uint32_t set, std::uint32_t way)
    {
        const std::uint64_t bit = 1ull << way;
        _valid[set] &= ~bit;
        _dirty[set] &= ~bit;
    }

    /** Mark (set, way) dirty; the way comes from the lookup. */
    void markDirtyWay(std::uint32_t set, std::uint32_t way)
    {
        _dirty[set] |= 1ull << way;
    }

    /** Dirty state of way @p way in set @p set. */
    bool isDirty(std::uint32_t set, std::uint32_t way) const
    {
        return (_dirty[set] >> way) & 1;
    }

    /** Clear the dirty bit of (set, way). */
    void clearDirty(std::uint32_t set, std::uint32_t way)
    {
        _dirty[set] &= ~(1ull << way);
    }

    /** Valid state of way @p way in set @p set. */
    bool isValid(std::uint32_t set, std::uint32_t way) const
    {
        return (_valid[set] >> way) & 1;
    }

    /** Tag stored in (set, way); meaningful only when valid. */
    Addr tagAt(std::uint32_t set, std::uint32_t way) const
    {
        return _tagStore[static_cast<std::size_t>(set) * _ways + way];
    }

    /** Block base address stored in (set, way); requires valid. */
    Addr blockAddrAt(std::uint32_t set, std::uint32_t way) const;

    /** Write the @c ways tags of @p set into @p out (caller-provided,
     *  at least @c ways entries; invalid ways report tag 0). Used to
     *  load the Tag-Buffer, which mirrors a whole set. */
    void copyTagsOfSet(std::uint32_t set, Addr *out) const;

    /** Valid-way bitmask of @p set. */
    std::uint64_t validMask(std::uint32_t set) const
    {
        return _valid[set];
    }

    /** Demand lookups that hit. */
    std::uint64_t hits() const { return _hits.value(); }

    /** Demand lookups that missed. */
    std::uint64_t misses() const { return _misses.value(); }

    /** Valid blocks evicted by fills. */
    std::uint64_t evictions() const { return _evictions.value(); }

    /** Dirty blocks evicted by fills. */
    std::uint64_t dirtyEvictions() const
    {
        return _dirtyEvictions.value();
    }

    /**
     * True when planChunk() covers this shape: every deterministic
     * policy (LRU/Tree-PLRU/FIFO) at any associativity. Random is
     * excluded — its victim draws come from a shared RNG whose draw
     * order is architectural, and set-batched planning would reorder
     * them.
     */
    bool planEligible() const
    {
        return _config.replacement != ReplKind::Random;
    }

    /**
     * Plan @p count accesses from @p chunk (requires planEligible()).
     *
     * Stage 1 of the chunk pipeline: decodes every address, sorts the
     * chunk into per-set batches (stable within a set), and simulates
     * each set's tag/valid/dirty/replacement evolution on stack-local
     * state — SIMD way-compares included — recording the predicted
     * outcome per access. No TagArray state is modified and no
     * statistics move: the controller applies the plan in original
     * request order via applyPlannedHit()/applyPlannedFill() and
     * flushes the chunk-wide counter sums with addPlannedCounts().
     *
     * The prediction is exact because tag-state evolution is
     * scheme-independent (every access performs exactly one lookup
     * plus, on miss, one fill; writes dirty their way) and sets are
     * independent: batching by set preserves each set's access order.
     */
    const ChunkPlan &planChunk(const trace::MemAccess *chunk,
                               std::size_t count);

    /** Apply a planned hit: store the post-access replacement word.
     *  Pairs with a plan entry whose kHit flag is set. */
    void applyPlannedHit(std::uint32_t set, std::uint64_t repl_word)
    {
        _replWord[set] = repl_word;
    }

    /** Apply a planned fill: install the tag, mark valid and clean,
     *  store the post-access replacement word. The eviction metadata
     *  was captured in the plan before this overwrite. */
    void applyPlannedFill(std::uint32_t set, std::uint32_t way,
                          Addr tag, std::uint64_t repl_word)
    {
        const std::uint64_t bit = 1ull << way;
        _tagStore[static_cast<std::size_t>(set) * _ways + way] = tag;
        _valid[set] |= bit;
        _dirty[set] &= ~bit;
        _replWord[set] = repl_word;
    }

    /** Fold a plan's chunk-wide hit/miss/eviction sums into the
     *  counters (once per chunk; order-free, so deferring them off the
     *  per-access path cannot change any dump). */
    void addPlannedCounts(const ChunkPlan &plan)
    {
        _hits += plan.hits;
        _misses += plan.misses;
        _evictions += plan.evictions;
        _dirtyEvictions += plan.dirtyEvictions;
    }

    /** Reset statistics (contents untouched). */
    void resetCounters();

    /** Register the hit/miss/eviction counters with @p reg. */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = std::string());

  private:
    /** Valid-way match mask of @p tag in @p set (bit w set when way w
     *  is valid and holds the tag). One SIMD compare over the flat
     *  per-set tag words (mem/simd.hh). */
    std::uint64_t matchMask(std::uint32_t set, Addr tag) const
    {
        const Addr *tags =
            &_tagStore[static_cast<std::size_t>(set) * _ways];
        return simd::matchBits(tags, _ways, tag) & _valid[set];
    }

    // The replacement transitions, one copy for both paths: the live
    // per-access path passes the configured policy and the chunk
    // planner (planSets<K>) its compile-time K on stack-local state, so
    // both compute bit-identical words and victims.

    /** Replacement word @p repl after a hit on @p way under @p k
     *  (FIFO and Random hits leave it as it is). */
    static std::uint64_t replAfterHit(ReplKind k, std::uint64_t repl,
                                      std::uint32_t ways, std::uint32_t way)
    {
        switch (k) {
          case ReplKind::Lru:
            return lruMovedToFront(repl, way);
          case ReplKind::TreePlru:
            return plruPointedAway(repl, ways, way);
          case ReplKind::Fifo:
          case ReplKind::Random:
            break;
        }
        return repl;
    }

    /** Replacement word @p repl after a fill of @p way under @p k: a
     *  hit's update, except that FIFO counts the fill. */
    static std::uint64_t replAfterFill(ReplKind k, std::uint64_t repl,
                                       std::uint32_t ways, std::uint32_t way)
    {
        return k == ReplKind::Fifo ? repl + 1
                                   : replAfterHit(k, repl, ways, way);
    }

    /** The victim way of a set with valid-way mask @p valid and
     *  replacement word @p repl under @p k: invalid ways first, in
     *  ascending way order, then the policy's choice (a draw from
     *  @p rng under Random). */
    static std::uint32_t victimWay(ReplKind k, std::uint64_t valid,
                                   std::uint64_t repl, std::uint32_t ways,
                                   trace::Rng &rng)
    {
        const auto first_invalid =
            static_cast<std::uint32_t>(std::countr_one(valid));
        if (first_invalid < ways)
            return first_invalid;

        switch (k) {
          case ReplKind::Lru:
            return lruVictimOf(repl, ways);
          case ReplKind::TreePlru:
            return plruVictimOf(repl, ways);
          case ReplKind::Fifo:
            // Fills land on invalid ways in ascending order and the
            // only path to valid is a fill, so fill order is
            // round-robin: the oldest fill is the fill counter modulo
            // the associativity.
            return static_cast<std::uint32_t>(repl % ways);
          case ReplKind::Random:
            return static_cast<std::uint32_t>(rng.below(ways));
        }
        return 0;
    }

    // Pure packed-encoding transforms behind the transitions above.

    /** Nibble i of an LRU recency word holds the way at recency rank
     *  i (0 = MRU); ranks at or above the associativity stay 0. */
    static constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

    /** Recency word with @p way moved to the MRU nibble. */
    static std::uint64_t lruMovedToFront(std::uint64_t w,
                                         std::uint32_t way)
    {
        // Rank of @p way: the lowest zero nibble of w ^ way-broadcast.
        // The borrow trick can flag a false zero only above a true
        // one, and way's own rank is the lowest true zero (unused
        // ranks hold 0, but sit above every live rank).
        const std::uint64_t x = w ^ (way * kNibbleOnes);
        const std::uint64_t zeros =
            (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
        const auto p =
            static_cast<std::uint32_t>(std::countr_zero(zeros)) / 4;
        const std::uint64_t below = (1ull << (4 * p)) - 1;
        const std::uint64_t upto = (below << 4) | 0xfu;
        return (w & ~upto) | ((w & below) << 4) | way;
    }

    /** The LRU way of a full set: the nibble at rank ways - 1. */
    static std::uint32_t lruVictimOf(std::uint64_t w, std::uint32_t ways)
    {
        return static_cast<std::uint32_t>((w >> (4 * (ways - 1))) & 0xfu);
    }

    /** Tree word with every node on @p way's path pointed away. */
    static std::uint64_t plruPointedAway(std::uint64_t t,
                                         std::uint32_t ways,
                                         std::uint32_t way)
    {
        std::uint32_t node = 0;
        std::uint32_t span = ways;
        std::uint32_t base = 0;
        while (span > 1) {
            const std::uint32_t half = span / 2;
            const bool right = way >= base + half;
            const std::uint64_t bit = 1ull << node;
            t = right ? (t & ~bit) : (t | bit);
            node = 2 * node + (right ? 2 : 1);
            if (right)
                base += half;
            span = half;
        }
        return t;
    }

    /** Way the PLRU tree word points at. */
    static std::uint32_t plruVictimOf(std::uint64_t t,
                                      std::uint32_t ways)
    {
        std::uint32_t node = 0;
        std::uint32_t span = ways;
        std::uint32_t base = 0;
        while (span > 1) {
            const std::uint32_t half = span / 2;
            const bool right = (t >> node) & 1;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                base += half;
            span = half;
        }
        return base;
    }

    /** Size the plan and its set-sort scratch for chunks of up to
     *  @p capacity accesses; a no-op once they are that large. */
    void reservePlan(std::size_t capacity);

    /** Per-set batch simulation of one chain of planned accesses
     *  (planChunk() stage C), specialized per policy so the
     *  replacement arithmetic inlines without per-access dispatch. */
    template <ReplKind K>
    void planSets(const trace::MemAccess *chunk);

    CacheConfig _config;
    AddrLayout _layout;
    std::uint32_t _ways;

    // Structure-of-arrays tag state.
    std::vector<Addr> _tagStore;        //!< [set * ways + way]
    std::vector<std::uint64_t> _valid;  //!< per-set valid bitmask
    std::vector<std::uint64_t> _dirty;  //!< per-set dirty bitmask

    // Packed replacement state (the policy is _config.replacement).
    std::vector<std::uint64_t> _replWord; //!< per-set encoding
    trace::Rng _victimRng{12345};         //!< Random draws

    // Chunk-planner state, empty until the first planChunk(). The
    // per-set chains are intrusive linked lists over the access
    // indices: _planHead[set] is the first access touching the set
    // (kPlanNone when untouched this chunk), _planNext[i] the next
    // access to the same set. Only touched heads are reset between
    // chunks, so the cost scales with the chunk, not the cache.
    static constexpr std::uint32_t kPlanNone = 0xffffffffu;
    ChunkPlan _plan;
    std::vector<std::uint32_t> _planHead;    //!< per set, kPlanNone idle
    std::vector<std::uint32_t> _planNext;    //!< per access
    std::vector<std::uint32_t> _planTouched; //!< sets hit this chunk

    stats::Counter _hits{"cache.hits", "demand hits"};
    stats::Counter _misses{"cache.misses", "demand misses"};
    stats::Counter _evictions{"cache.evictions", "valid blocks evicted"};
    stats::Counter _dirtyEvictions{"cache.dirty_evictions",
                                   "dirty blocks evicted"};
};

} // namespace c8t::mem

#endif // C8T_MEM_CACHE_HH
