/**
 * @file
 * StreamCache implementation.
 */

#include "core/stream_cache.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/decimal.hh"
#include "obs/prof.hh"

namespace c8t::core
{

namespace
{

/** Fallback budget: 512 MiB holds every default-length figure sweep
 *  (25 profiles × 330 k accesses × 24 B ≈ 198 MiB) with headroom. */
constexpr std::size_t kDefaultBudgetBytes = 512ull << 20;

} // anonymous namespace

std::size_t
StreamCache::defaultByteBudget()
{
    static const std::size_t chosen = [] {
        const char *env = std::getenv("C8T_STREAM_CACHE_MB");
        if (!env)
            return kDefaultBudgetBytes;
        const auto mb = parseDecimal(env);
        const auto bytes = mb ? budgetBytes(*mb) : std::nullopt;
        if (!bytes) {
            std::cerr << "stream-cache: ignoring invalid "
                         "C8T_STREAM_CACHE_MB=\""
                      << env << "\" (want 0.." << kMaxBudgetMb
                      << " MiB)\n";
            return kDefaultBudgetBytes;
        }
        return *bytes;
    }();
    return chosen;
}

StreamCache::StreamCache(std::size_t byte_budget) : _memo(byte_budget) {}

StreamCache::Stats
StreamCache::stats() const
{
    return {_memo.stats(), _bypasses.load(std::memory_order_relaxed)};
}

void
StreamCache::setByteBudget(std::size_t bytes)
{
    // Disabling drops the entries without counting them as evictions.
    if (bytes == 0)
        _memo.clear();
    _memo.setByteBudget(bytes);
}

std::unique_ptr<trace::AccessGenerator>
StreamCache::acquire(const std::string &key, std::uint64_t accesses,
                     const GeneratorFactory &make)
{
    if (key.empty())
        throw std::invalid_argument("StreamCache: empty key");
    if (!make)
        throw std::invalid_argument("StreamCache: null factory");

    // Streams that alone exceed the budget are never buffered, so the
    // cap bounds transient memory too, not just residency.
    const std::size_t budget = byteBudget();
    if (budget == 0 || accesses > budget / sizeof(trace::MemAccess)) {
        _bypasses.fetch_add(1, std::memory_order_relaxed);
        return make();
    }

    // Miss (or a shorter buffer than this request needs): build the
    // workload and capture the whole requested window in one pass.
    // This is the bulk of the process's stream-generation time, so it
    // carries the StreamGenerate phase scope (replays out of the
    // buffer are near-free and show up under Replay instead).
    const auto generate = [&] {
        const obs::prof::ScopedPhase gen_scope(
            obs::prof::Phase::StreamGenerate);
        const std::unique_ptr<trace::AccessGenerator> gen = make();
        if (!gen)
            throw std::invalid_argument(
                "StreamCache: factory returned null");
        gen->reset();

        Stream s;
        s.accesses.resize(static_cast<std::size_t>(accesses));
        const std::size_t filled = gen->fillChunk(
            s.accesses.data(), static_cast<std::size_t>(accesses));
        s.exhausted = filled < accesses;
        s.accesses.resize(filled);
        s.accesses.shrink_to_fit();
        s.name = gen->name();
        return s;
    };
    const auto covers = [accesses](const Stream &s) {
        return s.accesses.size() >= accesses || s.exhausted;
    };

    bool hit = false;
    const auto stream = _memo.getOrCompute(key, generate, hit, covers);
    // The replay buffer aliases the memo's value, keeping it alive.
    return std::make_unique<trace::ReplayGenerator>(
        stream->name,
        trace::ReplayGenerator::Buffer(stream, &stream->accesses));
}

StreamCache &
globalStreamCache()
{
    static StreamCache cache;
    return cache;
}

} // namespace c8t::core
