/**
 * @file
 * StreamCache implementation.
 */

#include "core/stream_cache.hh"

#include <algorithm>
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
 *  (25 profiles × 330 k accesses × 16 B ≈ 126 MiB) with headroom. */
constexpr std::size_t kDefaultBudgetBytes = 512ull << 20;

/** Accesses generated per fillChunk() call on a miss. */
constexpr std::size_t kGenerateChunk = 4096;

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
    if (budget == 0 || accesses > budget / sizeof(trace::PackedAccess)) {
        _bypasses.fetch_add(1, std::memory_order_relaxed);
        return make();
    }

    // Miss (or a shorter stream than this request needs): build the
    // workload and pack the requested window chunk by chunk through
    // one reused scratch window. This is the bulk of the process's
    // stream-generation time, so it carries the StreamGenerate phase
    // scope (replays only unpack, a small fraction of that cost).
    const auto generate = [&] {
        const obs::prof::ScopedPhase gen_scope(
            obs::prof::Phase::StreamGenerate);
        const std::unique_ptr<trace::AccessGenerator> gen = make();
        if (!gen)
            throw std::invalid_argument(
                "StreamCache: factory returned null");
        gen->reset();

        const auto want = static_cast<std::size_t>(accesses);
        Stream s{trace::PackedStream(want), {}, false};
        std::vector<trace::MemAccess> window(
            std::min(want, kGenerateChunk));
        while (s.accesses.size() < want) {
            const std::size_t n =
                std::min(window.size(), want - s.accesses.size());
            const std::size_t got = gen->fillChunk(window.data(), n);
            s.accesses.append(window.data(), got);
            if (got < n) {
                s.exhausted = true;
                break;
            }
        }
        s.accesses.shrinkToFit();
        s.name = gen->name();
        return s;
    };
    const auto covers = [accesses](const Stream &s) {
        return s.accesses.size() >= accesses || s.exhausted;
    };

    bool hit = false;
    const auto stream = _memo.getOrCompute(key, generate, hit, covers);
    // The replayed stream aliases the memo's value, keeping it alive.
    return std::make_unique<trace::ReplayGenerator>(
        stream->name,
        trace::ReplayGenerator::Packed(stream, &stream->accesses));
}

StreamCache &
globalStreamCache()
{
    static StreamCache cache;
    return cache;
}

} // namespace c8t::core
