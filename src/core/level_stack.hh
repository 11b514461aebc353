/**
 * @file
 * The composable cache-level stack (DESIGN.md §14).
 *
 * A LevelStack realises a ControllerConfig with lowerLevels as a chain
 * of full CacheController instances over one shared FunctionalMemory:
 * the top level ([0], the L1) services the CPU stream; every miss
 * fetches its block from the level below (the observed next-level
 * latency becomes the miss penalty) and every dirty victim becomes a
 * same-set write burst into the level below. The hierarchy is
 * inclusive and write-back: a lower-level eviction back-invalidates
 * every upper copy of the line, merging fresher upper-level bytes into
 * the outgoing victim, so every valid upper-level line is present
 * below at all times (the inclusion invariant, property-tested in
 * tests/hierarchy_test.cc).
 *
 * Each level keeps its own tag/data arrays, Set-/Tag-Buffers, energy
 * accounting, event ring and supply operating point, so the canonical
 * split — a 6T L1 at nominal Vdd over an 8T L2 at near-threshold — is
 * a pure configuration choice.
 *
 * A stack over a config with no lowerLevels degenerates to exactly the
 * historical single controller: no hooks, no next level, byte-identical
 * statistics and tables.
 */

#ifndef C8T_CORE_LEVEL_STACK_HH
#define C8T_CORE_LEVEL_STACK_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.hh"
#include "mem/functional_mem.hh"
#include "stats/registry.hh"

namespace c8t::core
{

/**
 * The hierarchy shape rule: every level of @p lower is a valid cache
 * shape with the block size of @p top, a supply >= 0, and at least the
 * capacity of the level above it (inclusion needs the room).
 * @throws std::invalid_argument naming the "levels[]" field at fault.
 */
void validateLevels(const mem::CacheConfig &top,
                    const std::vector<LevelConfig> &lower);

/**
 * An inclusive write-back stack of cache levels behind one functional
 * memory. Non-copyable and non-movable: the inter-level wiring holds
 * pointers into the stack.
 */
class LevelStack
{
  public:
    /**
     * Build the chain described by @p config: the top level from the
     * config itself, one further level per lowerLevels entry (nearest
     * first). Lower levels inherit the top's process (tech) and
     * voltage-model constants; geometry, scheme, buffering and Vdd are
     * per level. All levels share @p memory. The bottom level stores
     * its dirty victims in @p memory when @p role is Owner; a plan
     * group's followers share their first member's memory and do not
     * (CacheController::applyPlanGroup()).
     *
     * @throws std::invalid_argument when the lower levels break
     *         validateLevels().
     */
    LevelStack(const ControllerConfig &config,
               mem::FunctionalMemory &memory,
               MemoryRole role = MemoryRole::Owner);

    LevelStack(const LevelStack &) = delete;
    LevelStack &operator=(const LevelStack &) = delete;

    /** Number of levels (1 = the classic single-level cache). */
    std::size_t depth() const { return _levels.size(); }

    /** Level @p i ([0] = L1, [1] = L2, ...). */
    CacheController &level(std::size_t i) { return *_levels.at(i); }
    const CacheController &level(std::size_t i) const
    {
        return *_levels.at(i);
    }

    /** The top (CPU-facing) level. */
    CacheController &top() { return *_levels.front(); }
    const CacheController &top() const { return *_levels.front(); }

    /** The shared backing memory. */
    mem::FunctionalMemory &memory() { return _mem; }

    /** Service one request through the top level. */
    AccessOutcome access(const trace::MemAccess &request)
    {
        return top().access(request);
    }

    /** Replay a chunk through the top level, as a plan group of one
     *  (see CacheController). */
    void accessChunk(const trace::MemAccess *chunk, std::size_t count,
                     const mem::ChunkPlan *plan = nullptr)
    {
        top().accessChunk(chunk, count, plan);
    }

    /** Stage-1 planning on the top level (nullptr when ineligible —
     *  always, for a stacked hierarchy). */
    const mem::ChunkPlan *planReplayChunk(const trace::MemAccess *chunk,
                                          std::size_t count)
    {
        return top().planReplayChunk(chunk, count);
    }

    /** Drain every level's buffered groups into its array. */
    void drain();

    /**
     * Backdoor: flush every dirty line of every level to the
     * functional memory, lowest level first so upper (fresher) copies
     * overwrite stale lower ones. For end-state comparison in tests.
     */
    void flushToMemory();

    /**
     * Architectural value of the aligned 64-bit word at @p addr as the
     * whole hierarchy would return it: the topmost level holding the
     * line wins; memory otherwise. Uncounted.
     */
    std::uint64_t peekWord(mem::Addr addr) const;

    /** Reset statistics and cycle clocks on every level. */
    void resetStats();

    /**
     * Register every level's statistics with @p reg: the top level
     * unprefixed (the historical single-level layout, byte-identical
     * for depth 1) and level i under "l<i+1>." ("l2.", "l3.", ...).
     */
    void registerStats(stats::Registry &reg);

  private:
    mem::FunctionalMemory &_mem;
    std::vector<std::unique_ptr<CacheController>> _levels;
};

/**
 * The configuration level @p i of @p config's stack is built from
 * (0 = the top level), without the levels behind it: a lower level
 * takes its process (tech) and voltage-model constants from the top
 * configuration and the rest from lowerLevels[i - 1].
 */
ControllerConfig levelConfig(const ControllerConfig &config, std::size_t i);

/** Stats prefix of level @p i: "" for 0, "l2."/"l3."/... below. */
std::string levelStatsPrefix(std::size_t i);

} // namespace c8t::core

#endif // C8T_CORE_LEVEL_STACK_HH
