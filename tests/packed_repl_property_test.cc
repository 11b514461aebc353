/**
 * @file
 * Differential property test of the packed (devirtualized) tag
 * pipeline against the virtual reference policies (repl_oracle.hh).
 *
 * The TagArray's structure-of-arrays layout and per-set replacement
 * encodings (DESIGN.md §7) must be observably identical to the
 * reference model: a per-way tag loop plus a virtual policy object.
 * This test replays randomized access/fill/dirty streams through both
 * and compares the hit/miss sequence, the hit way, every victim
 * choice (fill way and eviction info) and the final
 * tag/valid/dirty state — for all four ReplKinds over assorted way
 * counts up to each encoding's bound: LRU's 4-bit-per-way recency word
 * to 16 ways, Tree-PLRU's tree bits and FIFO's fill counter to 64.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "mem/cache.hh"
#include "repl_oracle.hh"
#include "trace/rng.hh"

namespace
{

using namespace c8t::mem;

/**
 * The reference model: the historical array-of-structures TagArray
 * semantics — a per-way compare loop over per-way valid/dirty flags,
 * replacement delegated to the virtual policy classes.
 */
class OracleTags
{
  public:
    explicit OracleTags(const CacheConfig &cfg)
        : _layout(cfg.blockBytes, cfg.numSets()), _ways(cfg.ways),
          _tags(static_cast<std::size_t>(cfg.numSets()) * cfg.ways, 0),
          _valid(_tags.size(), false), _dirty(_tags.size(), false),
          _repl(makeReplacementPolicy(cfg.replacement, cfg.numSets(),
                                      cfg.ways))
    {}

    LookupResult access(Addr addr)
    {
        const std::uint32_t set = _layout.setOf(addr);
        const Addr tag = _layout.tagOf(addr);
        for (std::uint32_t w = 0; w < _ways; ++w) {
            const std::size_t i = index(set, w);
            if (_valid[i] && _tags[i] == tag) {
                _repl->touch(set, w);
                return {true, w};
            }
        }
        return {false, 0};
    }

    FillResult fill(Addr addr)
    {
        const std::uint32_t set = _layout.setOf(addr);
        const std::uint32_t way = _repl->victim(set, validMask(set));
        const std::size_t i = index(set, way);

        FillResult r;
        r.way = way;
        if (_valid[i]) {
            r.evictedValid = true;
            r.evictedDirty = _dirty[i];
            r.evictedBlockAddr = _layout.blockAddr(_tags[i], set);
        }
        _tags[i] = _layout.tagOf(addr);
        _valid[i] = true;
        _dirty[i] = false;
        _repl->insert(set, way);
        return r;
    }

    void markDirty(std::uint32_t set, std::uint32_t way)
    {
        _dirty[index(set, way)] = true;
    }

    std::uint64_t validMask(std::uint32_t set) const
    {
        std::uint64_t m = 0;
        for (std::uint32_t w = 0; w < _ways; ++w)
            m |= static_cast<std::uint64_t>(_valid[index(set, w)]) << w;
        return m;
    }

    bool isValid(std::uint32_t set, std::uint32_t way) const
    {
        return _valid[index(set, way)];
    }

    bool isDirty(std::uint32_t set, std::uint32_t way) const
    {
        return _dirty[index(set, way)];
    }

    Addr tagAt(std::uint32_t set, std::uint32_t way) const
    {
        return _tags[index(set, way)];
    }

    const AddrLayout &layout() const { return _layout; }

  private:
    std::size_t index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * _ways + way;
    }

    AddrLayout _layout;
    std::uint32_t _ways;
    std::vector<Addr> _tags;
    std::vector<bool> _valid;
    std::vector<bool> _dirty;
    std::unique_ptr<ReplacementPolicy> _repl;
};

struct Shape
{
    ReplKind kind;
    std::uint32_t ways;
    /** 8 sets keep conflict pressure high so victims are exercised
     *  constantly. */
    std::uint32_t sets = 8;
};

std::string
shapeName(const Shape &s)
{
    std::ostringstream os;
    os << toString(s.kind) << "/" << s.ways << "w";
    return os.str();
}

CacheConfig
configOf(const Shape &s)
{
    // 3x-ways distinct tags per set guarantee evictions.
    CacheConfig cfg;
    cfg.blockBytes = 32;
    cfg.ways = s.ways;
    cfg.sizeBytes =
        static_cast<std::uint64_t>(s.sets) * s.ways * cfg.blockBytes;
    cfg.replacement = s.kind;
    return cfg;
}

/** Replay one randomized stream through both models, comparing every
 *  observable step and the complete final state. */
void
runDifferential(const Shape &shape, std::uint64_t seed,
                std::uint64_t steps)
{
    const CacheConfig cfg = configOf(shape);
    TagArray dut(cfg);
    OracleTags oracle(cfg);

    c8t::trace::Rng rng(seed);
    const std::uint32_t tagSpan = 3 * shape.ways;

    for (std::uint64_t i = 0; i < steps; ++i) {
        const std::uint32_t set =
            rng.below(cfg.numSets()); // uniform over the 8 sets
        const Addr tag = rng.below(tagSpan);
        const Addr addr = oracle.layout().blockAddr(tag, set);

        const LookupResult d = dut.access(addr);
        const LookupResult o = oracle.access(addr);
        ASSERT_EQ(d.hit, o.hit)
            << shapeName(shape) << " step " << i;
        if (d.hit) {
            ASSERT_EQ(d.way, o.way)
                << shapeName(shape) << " step " << i;
        } else {
            const FillResult fd = dut.fill(addr);
            const FillResult fo = oracle.fill(addr);
            ASSERT_EQ(fd.way, fo.way)
                << shapeName(shape) << " victim at step " << i;
            ASSERT_EQ(fd.evictedValid, fo.evictedValid)
                << shapeName(shape) << " step " << i;
            ASSERT_EQ(fd.evictedDirty, fo.evictedDirty)
                << shapeName(shape) << " step " << i;
            if (fd.evictedValid) {
                ASSERT_EQ(fd.evictedBlockAddr, fo.evictedBlockAddr)
                    << shapeName(shape) << " step " << i;
            }
        }

        // Dirty the touched block half the time, through the
        // way-direct hot-path entry point.
        if (rng.below(2) == 0) {
            const LookupResult where = dut.probe(addr);
            ASSERT_TRUE(where.hit);
            dut.markDirtyWay(set, where.way);
            oracle.markDirty(set, where.way);
        }
    }

    // Final state: every way's tag/valid/dirty must agree.
    for (std::uint32_t set = 0; set < cfg.numSets(); ++set) {
        ASSERT_EQ(dut.validMask(set), oracle.validMask(set))
            << shapeName(shape) << " set " << set;
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            ASSERT_EQ(dut.isValid(set, w), oracle.isValid(set, w))
                << shapeName(shape) << " set " << set << " way " << w;
            ASSERT_EQ(dut.isDirty(set, w), oracle.isDirty(set, w))
                << shapeName(shape) << " set " << set << " way " << w;
            if (dut.isValid(set, w)) {
                ASSERT_EQ(dut.tagAt(set, w), oracle.tagAt(set, w))
                    << shapeName(shape) << " set " << set << " way "
                    << w;
            }
        }
    }
}

class PackedReplDifferential : public ::testing::TestWithParam<Shape>
{};

TEST_P(PackedReplDifferential, MatchesOracleOnRandomStreams)
{
    for (std::uint64_t seed : {1ull, 42ull, 20260805ull})
        runDifferential(GetParam(), seed, 4000);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndWays, PackedReplDifferential,
    ::testing::Values(
        // LRU: 4-bit-per-way recency word, up to its 16-way bound
        // (12 leaves the top ranks of the word unused).
        Shape{ReplKind::Lru, 1}, Shape{ReplKind::Lru, 2},
        Shape{ReplKind::Lru, 4}, Shape{ReplKind::Lru, 8},
        Shape{ReplKind::Lru, 12}, Shape{ReplKind::Lru, 16},
        // Tree-PLRU: tree bits (ways must be a power of two); 64 ways
        // use 63 of the word's bits.
        Shape{ReplKind::TreePlru, 2}, Shape{ReplKind::TreePlru, 4},
        Shape{ReplKind::TreePlru, 8}, Shape{ReplKind::TreePlru, 16},
        Shape{ReplKind::TreePlru, 32}, Shape{ReplKind::TreePlru, 64},
        // FIFO: per-set fill counter.
        Shape{ReplKind::Fifo, 1}, Shape{ReplKind::Fifo, 2},
        Shape{ReplKind::Fifo, 4}, Shape{ReplKind::Fifo, 8},
        Shape{ReplKind::Fifo, 16}, Shape{ReplKind::Fifo, 32},
        Shape{ReplKind::Fifo, 64},
        // Random: stateless, shared deterministic RNG; equivalence
        // relies on both sides drawing only for full sets.
        Shape{ReplKind::Random, 1}, Shape{ReplKind::Random, 2},
        Shape{ReplKind::Random, 4}, Shape{ReplKind::Random, 8},
        Shape{ReplKind::Random, 16}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        std::ostringstream os;
        os << toString(info.param.kind) << "_" << info.param.ways
           << "w";
        return os.str();
    });

/** The chunked controller replay path must also be step-identical to
 *  per-access replay at the tag level: access()+fill() driven through
 *  mixed probe orders keeps statistics consistent. */
TEST(PackedRepl, StatisticsMatchOracleCounts)
{
    const Shape shape{ReplKind::Lru, 4};
    const CacheConfig cfg = configOf(shape);
    TagArray dut(cfg);
    OracleTags oracle(cfg);

    c8t::trace::Rng rng(7);
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = oracle.layout().blockAddr(
            rng.below(12), rng.below(cfg.numSets()));
        if (dut.access(addr).hit) {
            ++hits;
            (void)oracle.access(addr);
        } else {
            ++misses;
            (void)oracle.access(addr);
            const FillResult f = dut.fill(addr);
            (void)oracle.fill(addr);
            if (f.evictedValid)
                ++evictions;
        }
    }
    EXPECT_EQ(dut.hits(), hits);
    EXPECT_EQ(dut.misses(), misses);
    EXPECT_EQ(dut.evictions(), evictions);
}

} // namespace
