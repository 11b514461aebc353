/**
 * @file
 * Cross-job memoization of generated access streams.
 *
 * Figure sweeps replay the identical calibrated stream through many
 * (cache config × scheme) combinations: every job regenerating its
 * MarkovStream from scratch is redundant work whose outcome is known
 * in advance. StreamCache generates each distinct workload once into
 * an immutable ref-counted trace::PackedStream (16 bytes an access)
 * and hands every subsequent job a trace::ReplayGenerator over it.
 *
 * Keying: a deterministic workload signature string (for SPEC profiles
 * trace::streamSignature, which serialises every generation-relevant
 * StreamParams field exactly). Equal keys therefore guarantee
 * byte-identical streams, so replays cannot perturb results — the
 * sweep engine's bit-identical determinism contract holds with the
 * cache on or off (tests/stream_identity_test.cc).
 *
 * Storage is a core::Memo (core/memo.hh): concurrent first requests
 * for one key generate once, a failing workload leaves no entry, and
 * streams are charged their packed bytes against a budget from
 * C8T_STREAM_CACHE_MB (default 512 MiB, "0" disables) or c8tsim
 * --stream-cache, evicted least-recently-used. Two rules stay here: a
 * stream whose requested length alone exceeds the budget bypasses the
 * cache (the cap bounds transient memory too), and a shorter,
 * non-exhausted buffer is regenerated at the longer length.
 */

#ifndef C8T_CORE_STREAM_CACHE_HH
#define C8T_CORE_STREAM_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/memo.hh"
#include "trace/access.hh"
#include "trace/replay.hh"

namespace c8t::core
{

/**
 * Process-wide cache of generated access streams.
 */
class StreamCache
{
  public:
    /** Builds the workload on a miss (a SweepJob::makeGenerator). */
    using GeneratorFactory =
        std::function<std::unique_ptr<trace::AccessGenerator>()>;

    /** The memo's counters plus bypasses: acquire() calls with
     *  caching disabled or a stream that alone exceeds the budget. */
    struct Stats : MemoStats
    {
        std::uint64_t bypasses = 0;
    };

    /** @param byte_budget Cap on resident buffer bytes; 0 disables. */
    explicit StreamCache(std::size_t byte_budget = defaultByteBudget());

    /**
     * A generator for the stream identified by @p key (a deterministic
     * workload signature, non-empty): a ReplayGenerator over the first
     * @p accesses accesses (fewer if the stream ends early), which
     * @p make builds on a miss. A stored buffer serves when it is at
     * least that long or its generator was exhausted (the replay then
     * ends where a live one would); otherwise it is regenerated. When
     * caching is off or @p accesses alone exceeds the budget, @p make's
     * generator is returned unwrapped.
     * @throws std::invalid_argument on an empty key or null factory.
     */
    std::unique_ptr<trace::AccessGenerator>
    acquire(const std::string &key, std::uint64_t accesses,
            const GeneratorFactory &make);

    /** Change the budget (evicts immediately if now over). 0 disables
     *  caching for subsequent acquire() calls and drops all entries. */
    void setByteBudget(std::size_t bytes);

    /** Current byte budget. */
    std::size_t byteBudget() const { return _memo.byteBudget(); }

    /** Whether acquire() may cache at all. */
    bool enabled() const { return byteBudget() > 0; }

    /** Snapshot of the counters. */
    Stats stats() const;

    /** Drop every entry (counters keep accumulating). */
    void clear() { _memo.clear(); }

    /** Budget from C8T_STREAM_CACHE_MB (default 512 MiB; "0"
     *  disables; invalid values warn once and use the default). */
    static std::size_t defaultByteBudget();

    /** Largest budget in MiB whose byte count fits a size_t. */
    static constexpr std::uint64_t kMaxBudgetMb = SIZE_MAX >> 20;

    /** @p mb MiB in bytes, or nullopt above kMaxBudgetMb (the shift
     *  would wrap): C8T_STREAM_CACHE_MB's and --stream-cache's. */
    static std::optional<std::size_t> budgetBytes(std::uint64_t mb)
    {
        if (mb > kMaxBudgetMb)
            return std::nullopt;
        return static_cast<std::size_t>(mb) << 20;
    }

  private:
    /** One generated window of a workload. */
    struct Stream
    {
        trace::PackedStream accesses;
        std::string name;       ///< the generator's reported name
        bool exhausted = false; ///< the generator ended early
    };

    struct Charge
    {
        std::uint64_t operator()(const std::string &,
                                 const Stream &s) const
        {
            return s.accesses.bytes();
        }
    };

    Memo<Stream, Charge> _memo;
    std::atomic<std::uint64_t> _bypasses{0};
};

/** The process-global stream cache every sweep shares. */
StreamCache &globalStreamCache();

} // namespace c8t::core

#endif // C8T_CORE_STREAM_CACHE_HH
