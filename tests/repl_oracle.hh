/**
 * @file
 * Reference replacement policies: the test oracle for the TagArray's
 * packed per-set encodings (DESIGN.md §7).
 *
 * Each policy keeps its state in the most literal form — per-way
 * recency or fill stamps, a byte per PLRU tree node — behind a virtual
 * interface, so tests/packed_repl_property_test.cc can check the
 * packed words step for step against an independent model.
 */

#ifndef C8T_TESTS_REPL_ORACLE_HH
#define C8T_TESTS_REPL_ORACLE_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "mem/replacement.hh"
#include "trace/rng.hh"

namespace c8t::mem
{

/**
 * Replacement state for one cache (all sets).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record a hit/use of (set, way). */
    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

    /** Record a fill into (set, way). */
    virtual void insert(std::uint32_t set, std::uint32_t way) = 0;

    /**
     * Pick the victim way of @p set. Invalid ways (bit clear in
     * @p valid_mask) are preferred before any replacement heuristics.
     */
    virtual std::uint32_t victim(std::uint32_t set,
                                 std::uint64_t valid_mask) = 0;

    /** Policy name. */
    virtual std::string name() const = 0;

  protected:
    /** The lowest invalid way, or @p ways if all are valid. */
    static std::uint32_t firstInvalid(std::uint64_t valid_mask,
                                      std::uint32_t ways)
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!((valid_mask >> w) & 1))
                return w;
        }
        return ways;
    }
};

/** True LRU via per-set recency stamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways)
        : _ways(ways), _stamp(static_cast<std::size_t>(sets) * ways, 0)
    {
        assert(ways >= 1 && ways <= 64);
    }

    void touch(std::uint32_t set, std::uint32_t way) override
    {
        _stamp[static_cast<std::size_t>(set) * _ways + way] = ++_clock;
    }

    void insert(std::uint32_t set, std::uint32_t way) override
    {
        touch(set, way);
    }

    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t valid_mask) override
    {
        const std::uint32_t inv = firstInvalid(valid_mask, _ways);
        if (inv < _ways)
            return inv;
        const std::uint64_t *s =
            &_stamp[static_cast<std::size_t>(set) * _ways];
        std::uint32_t victim_way = 0;
        for (std::uint32_t w = 1; w < _ways; ++w) {
            if (s[w] < s[victim_way])
                victim_way = w;
        }
        return victim_way;
    }

    std::string name() const override { return "lru"; }

  private:
    std::uint32_t _ways;
    std::uint64_t _clock = 0;
    std::vector<std::uint64_t> _stamp; // [set * ways + way]
};

/** Tree pseudo-LRU (binary decision tree per set; ways must be 2^n). */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::uint32_t sets, std::uint32_t ways)
        : _ways(ways), _nodes(ways - 1),
          _tree(static_cast<std::size_t>(sets) * (ways - 1), 0)
    {
        assert(isPowerOfTwo(ways) && ways <= 64);
    }

    void touch(std::uint32_t set, std::uint32_t way) override
    {
        // Walk from the root; at each node, point *away* from the
        // touched way's subtree.
        std::uint8_t *tree =
            _tree.data() + static_cast<std::size_t>(set) * _nodes;
        std::uint32_t node = 0;
        std::uint32_t span = _ways;
        std::uint32_t base = 0;
        while (span > 1) {
            const std::uint32_t half = span / 2;
            const bool right = way >= base + half;
            tree[node] = right ? 0 : 1; // 0 = victim left, 1 = right
            node = 2 * node + (right ? 2 : 1);
            if (right)
                base += half;
            span = half;
        }
    }

    void insert(std::uint32_t set, std::uint32_t way) override
    {
        touch(set, way);
    }

    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t valid_mask) override
    {
        const std::uint32_t inv = firstInvalid(valid_mask, _ways);
        if (inv < _ways)
            return inv;
        const std::uint8_t *tree =
            _tree.data() + static_cast<std::size_t>(set) * _nodes;
        std::uint32_t node = 0;
        std::uint32_t span = _ways;
        std::uint32_t base = 0;
        while (span > 1) {
            const std::uint32_t half = span / 2;
            const bool right = tree[node] != 0;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                base += half;
            span = half;
        }
        return base;
    }

    std::string name() const override { return "plru"; }

  private:
    std::uint32_t _ways;
    std::uint32_t _nodes; // ways - 1 internal nodes per set
    std::vector<std::uint8_t> _tree; // [set * nodes + node]
};

/** FIFO: evict in fill order. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    FifoPolicy(std::uint32_t sets, std::uint32_t ways)
        : _ways(ways),
          _fillStamp(static_cast<std::size_t>(sets) * ways, 0)
    {
        assert(ways >= 1 && ways <= 64);
    }

    void touch(std::uint32_t, std::uint32_t) override {} // ignores hits

    void insert(std::uint32_t set, std::uint32_t way) override
    {
        _fillStamp[static_cast<std::size_t>(set) * _ways + way] =
            ++_clock;
    }

    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t valid_mask) override
    {
        const std::uint32_t inv = firstInvalid(valid_mask, _ways);
        if (inv < _ways)
            return inv;
        const std::uint64_t *s =
            &_fillStamp[static_cast<std::size_t>(set) * _ways];
        std::uint32_t victim_way = 0;
        for (std::uint32_t w = 1; w < _ways; ++w) {
            if (s[w] < s[victim_way])
                victim_way = w;
        }
        return victim_way;
    }

    std::string name() const override { return "fifo"; }

  private:
    std::uint32_t _ways;
    std::uint64_t _clock = 0;
    std::vector<std::uint64_t> _fillStamp; // [set * ways + way]
};

/** Uniform random victim selection (deterministic seed). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::uint32_t, std::uint32_t ways, std::uint64_t seed)
        : _ways(ways), _rng(seed)
    {
        assert(ways >= 1 && ways <= 64);
    }

    void touch(std::uint32_t, std::uint32_t) override {}
    void insert(std::uint32_t, std::uint32_t) override {}

    std::uint32_t victim(std::uint32_t,
                         std::uint64_t valid_mask) override
    {
        const std::uint32_t inv = firstInvalid(valid_mask, _ways);
        if (inv < _ways)
            return inv;
        return static_cast<std::uint32_t>(_rng.below(_ways));
    }

    std::string name() const override { return "random"; }

  private:
    std::uint32_t _ways;
    trace::Rng _rng;
};

/**
 * Construct a policy instance.
 *
 * @param kind Policy selector.
 * @param sets Number of sets.
 * @param ways Associativity (<= 64).
 * @param seed Seed for the Random policy (ignored by others); the
 *             default matches the TagArray's victim RNG.
 */
inline std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplKind kind, std::uint32_t sets, std::uint32_t ways,
                      std::uint64_t seed = 12345)
{
    switch (kind) {
      case ReplKind::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
      case ReplKind::TreePlru:
        return std::make_unique<TreePlruPolicy>(sets, ways);
      case ReplKind::Fifo:
        return std::make_unique<FifoPolicy>(sets, ways);
      case ReplKind::Random:
        return std::make_unique<RandomPolicy>(sets, ways, seed);
    }
    throw std::invalid_argument("unknown replacement kind");
}

} // namespace c8t::mem

#endif // C8T_TESTS_REPL_ORACLE_HH
