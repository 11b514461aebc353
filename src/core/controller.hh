/**
 * @file
 * The L1 data-cache controller: the paper's Algorithm 1 (WG and WG+RB)
 * plus all the baseline write schemes, over the shared substrates
 * (TagArray, SRAMArray, FunctionalMemory, PortScheduler, EnergyModel).
 *
 * Accounting model (DESIGN.md §3): "cache access frequency" — the
 * quantity every figure of the paper is about — is the number of data
 * array row operations caused by *demand* requests: row reads, RMW
 * write-backs, group write-backs and premature write-backs. Row
 * operations caused by miss handling (fills, victim extraction) are
 * counted separately so the paper's numbers can be reproduced exactly
 * while the full-system numbers remain available.
 *
 * Correctness invariant (property-tested): for any access stream, every
 * read returns the same value under every scheme, and after drain() +
 * flushCacheToMemory() the functional memory is byte-identical across
 * schemes.
 */

#ifndef C8T_CORE_CONTROLLER_HH
#define C8T_CORE_CONTROLLER_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/policies.hh"
#include "core/set_buffer.hh"
#include "core/tag_buffer.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "mem/functional_mem.hh"
#include "obs/event_ring.hh"
#include "sram/array.hh"
#include "sram/energy.hh"
#include "sram/ports.hh"
#include "sram/vmodel.hh"
#include "stats/distribution.hh"
#include "stats/registry.hh"
#include "trace/access.hh"

namespace c8t::core
{

/**
 * Shape and policy of one lower cache level (DESIGN.md §14).
 *
 * core::LevelStack derives a full ControllerConfig from it: process
 * constants (tech) and voltage-model constants (vmodel) are inherited
 * from the top-level configuration so the whole hierarchy shares one
 * technology, while geometry, write scheme, buffering and the supply
 * operating point are free per level — the canonical split runs a 6T
 * L1 at nominal Vdd over an 8T L2 at near-threshold.
 */
struct LevelConfig
{
    /** Cache shape (default: 256 KB / 8-way / 32 B / LRU). The block
     *  size must match the upper level's. */
    mem::CacheConfig cache{256 * 1024, 8, 32};

    /** Write scheme of this level's data array. */
    WriteScheme scheme = WriteScheme::Rmw;

    /** Set-Buffer / Tag-Buffer entries (grouping schemes). */
    std::uint32_t bufferEntries = 1;

    /** Detect silent stores in this level's Set-Buffer. */
    bool silentDetection = true;

    /** Bit-interleave degree of this level's data array. */
    std::uint32_t interleaveDegree = 4;

    /** Array timing; missPenaltyCycles is this level's own penalty to
     *  the level (or memory) behind it. */
    LatencyParams latency;

    /** Supply operating point (V); 0 = nominal/detached. */
    double vdd = 0.0;

    bool operator==(const LevelConfig &other) const = default;
};

/** Full configuration of one controller instance. */
struct ControllerConfig
{
    /** Cache shape (paper baseline: 64 KB / 4-way / 32 B / LRU). */
    mem::CacheConfig cache;

    /** Write scheme. */
    WriteScheme scheme = WriteScheme::Rmw;

    /** Set-Buffer / Tag-Buffer entries (paper: 1). */
    std::uint32_t bufferEntries = 1;

    /** Detect silent stores in the Set-Buffer (paper: on). */
    bool silentDetection = true;

    /** Bit-interleave degree of the data array. */
    std::uint32_t interleaveDegree = 4;

    /** Array timing. */
    LatencyParams latency;

    /** Process constants for the energy model. */
    sram::TechParams tech;

    /**
     * Lower levels of the hierarchy, nearest first ([0] is the L2).
     * Empty — the default — means a single-level cache backed directly
     * by the functional memory, byte-identical to historical builds.
     * The controller itself does not consume this list: each entry is
     * realised as a full CacheController of its own (tags, data array,
     * buffers, energy accounting, supply point) wired behind this one
     * by core::LevelStack (DESIGN.md §14), which replaced the old
     * tags-only l2Enabled shim.
     */
    std::vector<LevelConfig> lowerLevels;

    /**
     * Supply-voltage operating point (V). 0 — the default — or exactly
     * vmodel.nominalVdd means the voltage model is detached: energy
     * rates and latency cycles are the nominal ones, bit for bit, and
     * no vdd.* statistics are registered, so nominal runs are
     * byte-identical to pre-vmodel builds (DESIGN.md §10).
     */
    double vdd = 0.0;

    /** Voltage model constants (consulted only when vdd is attached). */
    sram::VddModelParams vmodel;

    bool operator==(const ControllerConfig &other) const = default;
};

/**
 * The array timing @p config runs at: the row-read, row-write and
 * Set-Buffer cycles scaled to its supply as ceil(cycles x delayFactor)
 * when a non-nominal supply is attached (DESIGN.md §10), the nominal
 * cycles otherwise. The miss penalty models the next level on its own
 * supply and stays unscaled. The controller runs at exactly this
 * timing, and core::sharesReplay() compares it.
 */
LatencyParams resolvedLatency(const ControllerConfig &config);

/**
 * The per-event dynamic energies of @p config's data array at its
 * supply: the nominal rates, scaled by the voltage model when a
 * non-nominal supply is attached. The controller prices its own
 * events at these; a run priced at another configuration's rates
 * (CacheController::dynamicEnergy(rates)) reads that configuration's
 * energy, since no rate ever feeds back into the replay.
 */
sram::EnergyEventRates eventRates(const ControllerConfig &config);

/** Per-access result. */
struct AccessOutcome
{
    /** The block was resident before the access. */
    bool hit = false;

    /** The request matched the Tag-Buffer (set + tag). */
    bool tagBufferHit = false;

    /** A read served from the Set-Buffer (WG+RB only). */
    bool bypassed = false;

    /** Loaded value for reads (little endian, access size bytes). */
    std::uint64_t data = 0;

    /** Request-to-completion latency in cycles. */
    std::uint64_t latencyCycles = 0;
};

/** Whether a controller stores its dirty victims in its memory. A plan
 *  group's members share one memory and evict the same bytes at the
 *  same access, so only the first, the Owner, stores them (DESIGN.md
 *  §7); only a level with no next level ever does. */
enum class MemoryRole : std::uint8_t { Owner, Follower };

/**
 * The controller. One instance per (scheme, shape) under test. The
 * levels of one hierarchy share one FunctionalMemory, and so do the
 * members of a plan group (applyPlanGroup()): they hold the same
 * architectural bytes, so one memory serves them all.
 */
class CacheController
{
  public:
    /**
     * @param config Validated configuration.
     * @param memory Backing store (must outlive the controller).
     * @param role   Whether dirty victims are stored in @p memory.
     * @throws std::invalid_argument on inconsistent configuration.
     */
    CacheController(const ControllerConfig &config,
                    mem::FunctionalMemory &memory,
                    MemoryRole role = MemoryRole::Owner);

    /** Service one request (Algorithm 1 for the grouping schemes). */
    AccessOutcome access(const trace::MemAccess &request);

    /** Replay chunk length the drivers use (MultiSchemeRunner). The
     *  chunk planner sizes its scratch on its first plan, to that
     *  chunk, so only controllers that actually plan pay for it. */
    static constexpr std::size_t kReplayChunkAccesses = 4096;

    /**
     * Service @p count requests from @p chunk back to back, as a plan
     * group of one (applyPlanGroup()). Result-, statistics-, event- and
     * audit-identical to calling access() per element. @p plan
     * optionally supplies a stage-1 result computed by a controller
     * with an identical cache; when this controller plans and none is
     * given it plans the chunk itself (planReplayChunk()), and when it
     * does not plan, @p plan is ignored and every access resolves live.
     */
    void accessChunk(const trace::MemAccess *chunk, std::size_t count,
                     const mem::ChunkPlan *plan = nullptr);

    /**
     * Stage 2 of the replay (DESIGN.md §7), the one loop every chunk
     * runs through. Access i is applied to every member of @p group,
     * in group order, before access i+1; each member runs its own
     * beginAccess/dispatch/miss sequence, so its counters, ring notes,
     * audit order and eviction hook are exactly those of access() on
     * it alone. With a stage-1 @p plan of @p chunk (planReplayChunk()
     * on the first member) each plan entry is decoded once, and a
     * planned miss reads its fill from the shared memory once into a
     * staged block that every member copies. With a null @p plan
     * (Random, hierarchy L1s) every member resolves each access live.
     *
     * Requires: same-shape members over the first member's memory, of
     * which only the Owner stores victims (MemoryRole), each
     * plannedChunkEligible() when @p plan is given.
     */
    static void applyPlanGroup(std::span<CacheController *const> group,
                               const trace::MemAccess *chunk,
                               std::size_t count,
                               const mem::ChunkPlan *plan);

    /** True when the batched pipeline may run: the replacement policy
     *  is deterministic (not Random) and no next level exists — an L1
     *  miss fetches from the next level, whose evictions can
     *  back-invalidate this level's tags behind the plan's back.
     *  Observers (ring, audit, eviction hook) fire from the shared
     *  miss body and do not disqualify. */
    bool plannedChunkEligible() const
    {
        return !_next && _tags.planEligible();
    }

    /**
     * Stage 1 only: plan @p count accesses against this controller's
     * tag state for sharing with same-shape controllers (their tag
     * trajectories are identical on identical streams, so one plan
     * serves all). Returns nullptr when the batched pipeline does not
     * apply here (plannedChunkEligible()) or @p count is 0, and the
     * chunk then replays live; the plan stays valid until the
     * next planReplayChunk()/accessChunk() call on this controller.
     */
    const mem::ChunkPlan *planReplayChunk(const trace::MemAccess *chunk,
                                          std::size_t count);

    /**
     * Write back every dirty Set-Buffer entry to the array (counted
     * separately, not as demand traffic). Call at end of simulation
     * before inspecting the array.
     */
    void drain();

    /**
     * Backdoor: copy every dirty cache line (freshest image: Set-Buffer
     * over array) to the functional memory and mark it clean. For
     * end-state comparison in tests; no events are counted.
     */
    void flushCacheToMemory();

    /**
     * Architectural value of the aligned 64-bit word at @p addr as the
     * hierarchy would return it (Set-Buffer > array > memory). Test
     * and verification access; no events are counted.
     */
    std::uint64_t peekWord(mem::Addr addr) const;

    // --- component access -------------------------------------------------

    /** The configuration in effect. */
    const ControllerConfig &config() const { return _config; }

    /** The tag array (hit/miss statistics). */
    const mem::TagArray &tags() const { return _tags; }

    /** The data array (circuit event counters). */
    const sram::SRAMArray &array() const { return _array; }

    /** The Tag-Buffer (probe statistics); null for non-grouping
     *  schemes. */
    const TagBuffer *tagBuffer() const { return _tagBuffer.get(); }

    /** The port scheduler (contention statistics). */
    const sram::PortScheduler &ports() const { return _ports; }

    /** The energy model used for accounting. */
    const sram::EnergyModel &energyModel() const { return _energy; }

    /** True when a non-nominal supply point is attached. */
    bool vddActive() const { return _vddActive; }

    /** The evaluated operating point; the nominal identity (all scale
     *  factors 1.0, zero failure probabilities) when detached. */
    const sram::VddPoint &vddPoint() const { return _vddPoint; }

    /** The cell flavour the configured scheme runs on (6T only for the
     *  direct-write baseline; everything else needs 8T). */
    sram::CellType cellType() const { return cellOf(_config.scheme); }

    // --- hierarchy (DESIGN.md §14) ----------------------------------------

    /**
     * Wire @p next as the backing level of this controller (nullptr
     * to detach). With a next level attached, miss fills fetch the
     * block from it — the miss penalty becomes the observed next-level
     * latency — and dirty victim write-backs become its write stream
     * instead of going straight to the functional memory. The next
     * level must share this controller's FunctionalMemory and block
     * size; core::LevelStack owns the wiring.
     *
     * @throws std::invalid_argument on a block-size mismatch.
     */
    void attachNextLevel(CacheController *next);

    /**
     * Inclusion-maintenance hook, fired once per valid victim this
     * controller evicts, with the victim's block address and its
     * row-image bytes staged in a controller-owned scratch buffer.
     * The hook may overwrite the bytes with a fresher upper-level copy
     * (back-invalidation) and returns true when that copy was dirty —
     * which forces the victim to be written down even if this level
     * held it clean. Installing a hook reserves the scratch buffer, so
     * the eviction path stays allocation-free.
     */
    using EvictionHook =
        std::function<bool(mem::Addr blockAddr, std::uint8_t *block,
                           std::uint32_t blockBytes)>;

    /** Install (or clear, with an empty function) the eviction hook. */
    void setEvictionHook(EvictionHook hook);

    /**
     * Back-invalidation entry point, called on an *upper* level when a
     * lower level evicts @p block_addr: if the line is resident here,
     * settle any buffered group covering its set, copy the freshest
     * line image over @p dst (an architectural move — uncounted, like
     * peekWord()), drop the line from the tags, and report whether it
     * was dirty. Returns false (and leaves @p dst untouched) when the
     * line is not resident. @p len must equal the block size.
     */
    bool extractInvalidate(mem::Addr block_addr, std::uint8_t *dst,
                           std::uint32_t len);

    /**
     * Service an upper level's miss: one demand read access for the
     * block (counted in this level's statistics exactly like a CPU
     * read of its first word) followed by an uncounted architectural
     * copy of the whole block image into @p dst — one move from the
     * freshest row image, at the way the access resolved. Returns the
     * observed request-to-completion latency in cycles — the upper
     * level's miss penalty.
     */
    std::uint64_t fetchBlock(mem::Addr block_addr, std::uint8_t *dst,
                             std::uint32_t len);

    /**
     * Accept an upper level's dirty victim: one demand write access
     * per 8-byte word of the block — the eviction burst that forms
     * this level's write stream, maximally same-set grouped, which is
     * exactly the profile the grouping schemes target (EXPERIMENTS:
     * hierarchy grouping comparison). Residency is resolved once per
     * burst; each word still counts as its own request and tag hit,
     * so the statistics equal four access() calls.
     */
    void acceptBlockWriteback(mem::Addr block_addr,
                              const std::uint8_t *src,
                              std::uint32_t len);

    /** Lines dropped here by lower-level evictions (upper levels). */
    std::uint64_t backInvalidations() const
    {
        return _backInvalidations.value();
    }

    /** Back-invalidated lines that were dirty (their bytes were merged
     *  into the outgoing lower-level victim). */
    std::uint64_t backInvalDirty() const
    {
        return _backInvalDirty.value();
    }

    /** Evictions whose victim absorbed fresher upper-level bytes
     *  (levels with an eviction hook installed). */
    std::uint64_t evictionsMerged() const
    {
        return _evictionsMerged.value();
    }

    // --- the paper's accounting -------------------------------------------

    /** Demand row reads (group-opening reads, RMW read phases, read
     *  requests served from the array). */
    std::uint64_t demandRowReads() const
    {
        return _demandRowReads.value();
    }

    /** Demand row writes (RMW write-backs, group write-backs,
     *  premature write-backs, direct writes). */
    std::uint64_t demandRowWrites() const
    {
        return _demandRowWrites.value();
    }

    /** The paper's "cache access frequency": demand row operations. */
    std::uint64_t demandAccesses() const
    {
        return demandRowReads() + demandRowWrites();
    }

    /** Row reads caused by miss handling. */
    std::uint64_t fillRowReads() const { return _fillRowReads.value(); }

    /** Row writes caused by miss handling. */
    std::uint64_t fillRowWrites() const { return _fillRowWrites.value(); }

    /** Row writes performed by drain(). */
    std::uint64_t drainWrites() const { return _drainWrites.value(); }

    /** Requests serviced. */
    std::uint64_t requests() const { return _requests.value(); }

    /** Read requests serviced. */
    std::uint64_t readRequests() const { return _readRequests.value(); }

    /** Write requests serviced. */
    std::uint64_t writeRequests() const { return _writeRequests.value(); }

    /** Writes absorbed by the Set-Buffer with zero array operations. */
    std::uint64_t groupedWrites() const { return _groupedWrites.value(); }

    /** Write-backs forced by a read hitting the Tag-Buffer (WG). */
    std::uint64_t prematureWritebacks() const
    {
        return _prematureWritebacks.value();
    }

    /** Group-ending write-backs (buffer entry eviction). */
    std::uint64_t groupWritebacks() const
    {
        return _groupWritebacks.value();
    }

    /** Groups whose write-back was elided because every write in the
     *  group was silent (Dirty bit never set). */
    std::uint64_t silentGroupsElided() const
    {
        return _silentGroupsElided.value();
    }

    /** Reads served from the Set-Buffer (WG+RB). */
    std::uint64_t bypassedReads() const
    {
        return _bypassedReads.value();
    }

    /** Silent stores detected by the Set-Buffer comparators. */
    std::uint64_t silentWritesDetected() const
    {
        return _silentWritesDetected.value();
    }

    /**
     * Deferred energy accounting (DESIGN.md §7): the access hot path
     * increments these integer event counts only; dynamicEnergy()
     * materializes joules on demand by multiplying them against the
     * constant per-event energies (sram::EnergyEventRates). Size-
     * dependent terms are bucketed by request size so every addend is
     * the exact value the historical per-access accumulation used.
     */
    struct EnergyCounts
    {
        /** Full row operations (demand and miss handling alike). */
        std::uint64_t rowReads = 0;
        std::uint64_t rowWrites = 0;

        /** Partial writes bucketed by request bytes (index 1..8). */
        std::uint64_t partialWrites[9] = {};

        /** Request-sized Set-Buffer accesses bucketed by bytes. */
        std::uint64_t setBufferReads[9] = {};
        std::uint64_t setBufferWrites[9] = {};

        /** Row-sized Set-Buffer accesses (write-back read, fill). */
        std::uint64_t setBufferReadRows = 0;
        std::uint64_t setBufferWriteRows = 0;

        /** Tag-Buffer probes. */
        std::uint64_t tagCompares = 0;
    };

    /** Energy event kinds reported to the audit hook. */
    enum class EnergyEvent : std::uint8_t {
        RowRead,
        RowWrite,
        PartialWrite,
        SetBufferRead,
        SetBufferWrite,
        TagCompare,
    };

    /** Audit callback: (context, kind, bytes). Bytes is 0 for the
     *  size-independent kinds. */
    using EnergyAuditFn = void (*)(void *, EnergyEvent, std::uint32_t);

    /**
     * Install a per-event energy audit hook (nullptr to remove). The
     * hook fires at every point the historical implementation added to
     * its running energy total, in the same order, so tests can verify
     * the deferred materialization against a sequential per-access
     * accumulation. Costs one predictable branch per energy event.
     */
    void setEnergyAudit(EnergyAuditFn fn, void *ctx)
    {
        _energyAuditFn = fn;
        _energyAuditCtx = ctx;
    }

    /** The raw deferred energy event counts. */
    const EnergyCounts &energyCounts() const { return _ecounts; }

    /** Dynamic energy (J) of the data path: the deferred event counts
     *  priced at @p rates, one count x rate addend per event kind in
     *  a fixed order. */
    double dynamicEnergy(const sram::EnergyEventRates &rates) const;

    /** Dynamic energy (J) priced at this controller's own supply
     *  (eventRates() of its configuration). */
    double dynamicEnergy() const { return dynamicEnergy(_rates); }

    /** Distribution of write-group sizes (writes per group). */
    const stats::Distribution &groupSizes() const { return _groupSizes; }

    /** Distribution of read latencies (cycles). */
    const stats::Distribution &readLatency() const
    {
        return _readLatency;
    }

    /** Current cycle (advances with request gaps and stalls). */
    std::uint64_t cycle() const { return _cycle; }

    /** Reset all statistics and the cycle clock; contents, tags and
     *  buffer state are untouched. An attached event ring is cleared
     *  too, so event totals always cover the same window as the
     *  counters. */
    void resetStats();

    // --- observability ----------------------------------------------------

    /**
     * Attach (or detach, with nullptr) an event ring. The controller
     * records one obs::Event per microarchitectural decision (see
     * obs::EventType); recording is allocation-free and changes no
     * simulation statistic. The ring must outlive the controller or
     * be detached first. Default: no ring — every hook is a single
     * predictable branch.
     */
    void attachEventRing(obs::EventRing *ring) { _events = ring; }

    /**
     * Register every statistic of the controller and its components
     * (tag array, data array, ports, buffers) with @p reg under
     * @p prefix (see stats::Registry prefixed registration). The
     * default empty prefix is the historical single-level layout; a
     * LevelStack registers lower levels under "l2.", "l3.", ... so one
     * registry carries the whole hierarchy without name collisions.
     */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = std::string());

    /** Convenience: register into a fresh registry and dump it
     *  (gem5 stats.txt flavour) to @p os. */
    void dumpStats(std::ostream &os);

  private:
    // Request paths: two bodies, both templates over the resolver that
    // makes the block resident — the live tag lookup (ensureResident)
    // or the planned-outcome application (applyPlanned) — so both
    // paths execute the identical scheme logic. Every scheme fact they
    // need is read from _traits (defined in controller.cc; used only
    // there).

    /** The schemes without a grouping buffer: array reads, and writes
     *  as one merge (rowReadsPerWrite 0) or a read-modify-write on
     *  _traits.writePortUse. */
    template <typename ResolveFn>
    AccessOutcome accessUngroupedImpl(const trace::MemAccess &a,
                                      ResolveFn &&resolve);

    /** Algorithm 1 (WG, WG+RB): Tag-Buffer probe, grouped writes,
     *  premature write-backs and, with canBypassReads, read bypass. */
    template <typename ResolveFn>
    AccessOutcome accessGroupedImpl(const trace::MemAccess &a,
                                    ResolveFn &&resolve);

    /** Run @p request's body — grouped or ungrouped, by
     *  _traits.needsGroupingBuffer — with residency resolved by
     *  @p resolve (access(), applyPlanGroup(), the L2 bursts). */
    template <typename ResolveFn>
    AccessOutcome dispatch(const trace::MemAccess &request,
                           ResolveFn &&resolve);

    /** Outcome of ensureResident(): hit state plus the resident way,
     *  so the request paths never pay a second tag lookup. */
    struct ResidentRef
    {
        bool hit = false;
        std::uint32_t way = 0;
    };

    /** Ensure the block is resident; reports whether it already was
     *  and the way now holding it. */
    ResidentRef ensureResident(mem::Addr block_addr);

    /** One plan entry as a plan group applies it: decoded once per
     *  access and shared by every member. */
    struct PlannedStep
    {
        std::uint32_t set = 0;
        std::uint32_t way = 0;
        std::uint8_t flags = 0;
        std::uint64_t replWord = 0;
        mem::Addr tag = 0;          //!< misses only
        mem::Addr evictedAddr = 0;  //!< misses with kEvictValid
        const std::uint8_t *fill = nullptr; //!< staged block (misses)
    };

    /** Planned-path equivalent of ensureResident(): apply @p step in
     *  request order — a hit stores the planned replacement word, a
     *  miss runs handleMiss() with the planned fill and the group's
     *  staged block. */
    ResidentRef applyPlanned(mem::Addr block_addr, const PlannedStep &step);

    /** applyPlanGroup()'s loop: every member of @p group runs access
     *  i's body with the resolver @p resolver(i) returns, called as
     *  resolve(member, block_addr). Inline (controller.cc), once per
     *  resolver kind. */
    template <typename ResolverFn>
    static void lockstep(std::span<CacheController *const> group,
                         const trace::MemAccess *chunk, std::size_t count,
                         ResolverFn &&resolver);

    /** Miss handling: victim write-back + fill; returns the filled
     *  way. @p fill_tags performs the tag-side allocation —
     *  TagArray::fill() live, or a planned fill — and returns its
     *  FillResult. The fill is copied from the staged block
     *  @p staged; a live miss passes nullptr and stages it here,
     *  from the next level or the memory. A dirty victim goes to the
     *  next level, or to the memory when this controller is its
     *  memory's Owner. */
    template <typename FillFn>
    std::uint32_t handleMiss(mem::Addr block_addr, FillFn &&fill_tags,
                             const std::uint8_t *staged);

    /** Per-request prologue shared by access() and applyPlanGroup():
     *  request counters and the inter-request clock advance. */
    void beginAccess(const trace::MemAccess &request)
    {
        assert(request.size >= 1 && request.size <= 8);
        assert(_tags.layout().blockOffset(request.addr) + request.size <=
               _config.cache.blockBytes);

        ++_requests;
        if (request.isRead())
            ++_readRequests;
        else
            ++_writeRequests;

        _cycle += request.gap + 1;
        _requestCycle = _cycle;
    }

    /** Report an energy event to the audit hook (no-op when unset). */
    void auditEnergy(EnergyEvent ev, std::uint32_t bytes)
    {
        if (_energyAuditFn)
            _energyAuditFn(_energyAuditCtx, ev, bytes);
    }

    /** Write entry @p e's row image back to the array. */
    void writebackEntry(std::uint32_t e, stats::Counter &cause);

    /** Close entry @p e's write group: record its size, write back or
     *  elide, and reset the per-entry group state. */
    void endGroup(std::uint32_t e, stats::Counter &cause);

    /** End the buffered group of @p set, if any, counting a write-back
     *  under @p cause, and invalidate its entry (the set's contents are
     *  about to change). */
    void settleSet(std::uint32_t set, stats::Counter &cause);

    /** Find the buffer entry holding @p set; entries() if none. */
    std::uint32_t entryOfSet(std::uint32_t set) const;

    /** The freshest image of @p set's row: the Set-Buffer while the
     *  set is buffered, else the array row. Uncounted. */
    sram::RowView freshestRow(std::uint32_t set) const;

    /** Byte offset of @p addr within its set's row image. */
    std::uint32_t rowOffsetOf(mem::Addr addr, std::uint32_t way) const;

    /** Extract an access-sized little-endian value from a row image. */
    std::uint64_t extractData(sram::RowView row,
                              std::uint32_t offset,
                              std::uint8_t size) const;

    /** Schedule a port operation with blocking back-pressure: the
     *  controller's clock advances to the operation's start cycle. */
    std::uint64_t scheduleOp(sram::PortUse use, std::uint64_t earliest,
                             std::uint32_t duration);

    /** Record @p type on the attached event ring (no-op when none). */
    void note(obs::EventType type, std::uint64_t addr, std::uint32_t set)
    {
        if (_events)
            _events->record(type, _requests.value(), _cycle, addr, set);
    }

    // Counted/energy-accounted array operations. Reads hand back a
    // view of the row image in place (DESIGN.md §7) — no copy.
    sram::RowView demandReadRef(std::uint32_t row);
    void demandMerge(std::uint32_t row, std::uint32_t offset,
                     const std::uint8_t *bytes, std::uint32_t len);

    /** The demand read every request path shares: schedule the read
     *  port at @p earliest, read @p set's row (counted), extract
     *  @p size bytes at @p offset into @p out, and record the
     *  request-to-completion latency. Inline (controller.cc): runs
     *  once per array read. */
    void demandRead(AccessOutcome &out, std::uint32_t set,
                    std::uint32_t offset, std::uint8_t size,
                    std::uint64_t earliest);

    ControllerConfig _config;

    /** Static traits of the configured scheme, resolved once. */
    SchemeTraits _traits;

    mem::FunctionalMemory &_mem;
    MemoryRole _role;
    mem::TagArray _tags;
    sram::SRAMArray _array;
    sram::EnergyModel _energy;
    sram::PortScheduler _ports;
    std::unique_ptr<TagBuffer> _tagBuffer;
    std::unique_ptr<SetBuffer> _setBuffer;

    std::uint64_t _cycle = 0;
    std::uint64_t _requestCycle = 0;

    /** Attached event ring; nullptr when tracing is off. */
    obs::EventRing *_events = nullptr;

    /** Service latency of the most recent miss (next level vs memory). */
    std::uint32_t _lastMissPenalty = 0;

    /** Backing level (non-owning; core::LevelStack wires it). */
    CacheController *_next = nullptr;

    /** Inclusion-maintenance hook; empty for single-level runs. */
    EvictionHook _evictionHook;

    /** Staged victim image for the eviction hook (pre-sized at
     *  setEvictionHook(); keeps the eviction path allocation-free). */
    std::vector<std::uint8_t> _victimScratch;

    /** The staged fill block of a miss: a live miss's next-level
     *  fetch or memory read, or a plan group's one read for all its
     *  members (the first member's). One block, sized at
     *  construction. */
    std::vector<std::uint8_t> _stagedBlock;

    /** Deferred energy accounting state (see dynamicEnergy()). */
    EnergyCounts _ecounts;
    sram::EnergyEventRates _rates;

    /** Supply operating point; identity while detached. Applied once
     *  at construction (rates + latency cycles), never on the hot
     *  path. */
    sram::VddPoint _vddPoint;
    bool _vddActive = false;
    EnergyAuditFn _energyAuditFn = nullptr;
    void *_energyAuditCtx = nullptr;

    /** Tag scratch for Tag-Buffer loads (pre-sized to the
     *  associativity; avoids a per-group-open heap allocation). */
    std::vector<mem::Addr> _tagScratch;

    /** Per-entry writes merged since the last write-back (silent-group
     *  elision accounting). */
    std::vector<std::uint32_t> _entryWritesSinceWb;

    /** Per-entry writes merged into the currently open group. */
    std::vector<std::uint32_t> _entryGroupSize;

    stats::Counter _requests{"ctrl.requests", "requests serviced"};
    stats::Counter _readRequests{"ctrl.reads", "read requests"};
    stats::Counter _writeRequests{"ctrl.writes", "write requests"};
    stats::Counter _demandRowReads{"ctrl.demand_row_reads",
                                   "demand row reads"};
    stats::Counter _demandRowWrites{"ctrl.demand_row_writes",
                                    "demand row writes"};
    stats::Counter _fillRowReads{"ctrl.fill_row_reads",
                                 "miss-handling row reads"};
    stats::Counter _fillRowWrites{"ctrl.fill_row_writes",
                                  "miss-handling row writes"};
    stats::Counter _drainWrites{"ctrl.drain_writes",
                                "drain() write-backs"};
    stats::Counter _groupedWrites{"ctrl.grouped_writes",
                                  "writes absorbed by the Set-Buffer"};
    stats::Counter _prematureWritebacks{
        "ctrl.premature_writebacks",
        "write-backs forced by Tag-Buffer read hits"};
    stats::Counter _groupWritebacks{"ctrl.group_writebacks",
                                    "group-ending write-backs"};
    stats::Counter _missFlushWritebacks{
        "ctrl.miss_flush_writebacks",
        "write-backs forced by misses to the buffered set"};
    stats::Counter _silentGroupsElided{
        "ctrl.silent_groups_elided",
        "groups whose write-back was skipped (Dirty clear)"};
    stats::Counter _bypassedReads{"ctrl.bypassed_reads",
                                  "reads served from the Set-Buffer"};
    stats::Counter _silentWritesDetected{
        "ctrl.silent_writes_detected",
        "silent stores caught by comparison"};

    /** Hierarchy counters; registered only when this controller is
     *  part of a level stack (next level or eviction hook wired), so
     *  single-level dumps stay byte-identical. */
    stats::Counter _backInvalidations{
        "hier.back_invalidations",
        "lines dropped by lower-level evictions"};
    stats::Counter _backInvalDirty{
        "hier.back_inval_dirty",
        "back-invalidated lines that were dirty"};
    stats::Counter _backInvalFlushes{
        "hier.back_inval_flushes",
        "buffered-group write-backs forced by back-invalidation"};
    stats::Counter _evictionsMerged{
        "hier.evictions_merged",
        "victims that absorbed fresher upper-level bytes"};

    stats::Distribution _groupSizes{"ctrl.group_sizes",
                                    "writes per write-group", 0, 64, 64};
    stats::Distribution _readLatency{"ctrl.read_latency",
                                     "read latency (cycles)", 0, 64, 64};

    /** Operating-point gauges; registered only when a non-nominal
     *  supply is attached, so nominal dumps stay byte-identical. */
    stats::Gauge _vddSupply{"vdd.supply", "supply voltage (V)"};
    stats::Gauge _vddEnergyScale{"vdd.energy_scale",
                                 "dynamic energy multiplier vs nominal"};
    stats::Gauge _vddLeakScale{"vdd.leakage_scale",
                               "leakage power multiplier vs nominal"};
    stats::Gauge _vddDelayFactor{"vdd.delay_factor",
                                 "array delay multiplier vs nominal"};
    stats::Gauge _vddPfailRead{"vdd.pfail_read",
                               "per-cell read failure probability"};
    stats::Gauge _vddPfailWrite{"vdd.pfail_write",
                                "per-cell write failure probability"};
};

} // namespace c8t::core

#endif // C8T_CORE_CONTROLLER_HH
