/**
 * @file
 * SIMD level resolution (environment override + CPU detection).
 */

#include "mem/simd.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>

namespace c8t::mem::simd
{

namespace
{

/** Sentinel for "not resolved yet". */
constexpr int kUnresolved = -1;

/** Resolved level, or kUnresolved before first use. Atomic because
 *  the first TagArrays of a sweep are built on several workers at
 *  once, and each resolves the level on first use. */
std::atomic<int> g_level{kUnresolved};

/**
 * Time one kernel over a small in-cache fixture; returns the best of
 * three rounds (seconds). The fixture mirrors the micro bench: 64
 * sets x 8 ways of xorshift tags, needles cycling through hit ways.
 */
double
timeLevel(SimdLevel level, const Addr *tags, const Addr *needles,
          std::uint32_t sets, std::uint32_t ways)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kRounds = 3;
    constexpr int kPasses = 64;
    double best = 1e30;
    std::uint64_t sink = 0;
    for (int round = -1; round < kRounds; ++round) { // -1 = warm-up
        const auto t0 = Clock::now();
        for (int pass = 0; pass < kPasses; ++pass) {
            for (std::uint32_t s = 0; s < sets; ++s)
                sink += matchBits(level, tags + s * ways, ways,
                                  needles[s]);
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (round >= 0 && secs < best)
            best = secs;
    }
    // Keep the accumulator observable so the loops cannot be elided.
    static volatile std::uint64_t g_sink;
    g_sink = sink;
    return best;
}

/** Measure every supported kernel and return the fastest. */
SimdLevel
calibrate()
{
    const SimdLevel best = bestSupported();
    if (best == SimdLevel::Scalar)
        return best;

    constexpr std::uint32_t kSets = 64;
    constexpr std::uint32_t kWays = 8;
    Addr tags[kSets * kWays];
    Addr needles[kSets];
    std::uint64_t x = 0x9e3779b97f4a7c15ull; // xorshift64
    for (auto &t : tags) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t = static_cast<Addr>(x);
    }
    for (std::uint32_t s = 0; s < kSets; ++s)
        needles[s] = tags[s * kWays + s % kWays]; // always one hit

    // Highest level first so an (unlikely) exact tie keeps the wider
    // kernel; every candidate produces bit-identical masks, so the
    // stopwatch is the only tie-breaker that matters.
    SimdLevel fastest = best;
    double fastest_secs =
        timeLevel(best, tags, needles, kSets, kWays);
    for (int l = static_cast<int>(best) - 1; l >= 0; --l) {
        const SimdLevel level = static_cast<SimdLevel>(l);
        const double secs =
            timeLevel(level, tags, needles, kSets, kWays);
        if (secs < fastest_secs) {
            fastest = level;
            fastest_secs = secs;
        }
    }
    return fastest;
}

} // anonymous namespace

const char *
toString(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Sse2:
        return "sse2";
      case SimdLevel::Avx2:
        return "avx2";
    }
    return "?";
}

SimdLevel
bestSupported()
{
#if defined(C8T_SIMD_X86_64) && defined(C8T_HAVE_AVX2) && \
    defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#endif
#ifdef C8T_SIMD_X86_64
    return SimdLevel::Sse2; // baseline on x86-64
#else
    return SimdLevel::Scalar;
#endif
}

SimdLevel
autoCalibratedLevel()
{
    static const SimdLevel calibrated = calibrate();
    return calibrated;
}

SimdLevel
parseLevel(const std::string &spec)
{
    const SimdLevel best = bestSupported();
    if (spec == "scalar")
        return SimdLevel::Scalar;
    if (spec == "sse2")
        return best < SimdLevel::Sse2 ? best : SimdLevel::Sse2;
    if (spec == "avx2")
        return best < SimdLevel::Avx2 ? best : SimdLevel::Avx2;
    // "auto", empty, or anything unrecognised: the measured-fastest
    // level — not blindly the widest, which loses ~2x on hosts that
    // emulate 256-bit ops.
    return autoCalibratedLevel();
}

SimdLevel
activeLevel()
{
    int level = g_level.load(std::memory_order_acquire);
    if (level == kUnresolved) {
        // Racing first users parse the same environment to the same
        // level; the first store wins and every caller returns it.
        const char *env = std::getenv("C8T_SIMD");
        const int parsed =
            static_cast<int>(parseLevel(env ? std::string(env) : ""));
        if (g_level.compare_exchange_strong(level, parsed,
                                            std::memory_order_acq_rel))
            level = parsed;
    }
    return static_cast<SimdLevel>(level);
}

SimdLevel
setLevel(SimdLevel level)
{
    const SimdLevel best = bestSupported();
    const SimdLevel installed = level < best ? level : best;
    g_level.store(static_cast<int>(installed), std::memory_order_release);
    return installed;
}

#if defined(C8T_SIMD_X86_64) && !defined(C8T_HAVE_AVX2)
// Toolchain cannot target AVX2: the Avx2 level is never selected by
// bestSupported(), but keep the symbol defined for direct kernel
// benchmarking (it reports SSE2 numbers).
std::uint64_t
matchBitsAvx2(const Addr *tags, std::uint32_t ways, Addr tag)
{
    return matchBitsSse2(tags, ways, tag);
}
#endif

} // namespace c8t::mem::simd
