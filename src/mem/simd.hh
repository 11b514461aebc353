/**
 * @file
 * SIMD dispatch for the way-compare hot path.
 *
 * The TagArray and Tag-Buffer store their per-set tag words flat
 * (structure-of-arrays, DESIGN.md §7), so a lookup is "compare one tag
 * against W consecutive 64-bit words and collect a match mask" — the
 * textbook data-parallel shape. This header provides that kernel at
 * three ISA levels behind one runtime-dispatched entry point:
 *
 *   - Scalar: the portable fallback, identical to the historical loop.
 *   - SSE2:   x86-64 baseline (always available there), two ways per
 *             compare. SSE2 has no 64-bit integer equality, so it is
 *             emulated with a 32-bit compare, a lane-pair swap and an
 *             AND — exact for all bit patterns.
 *   - AVX2:   four ways per compare; compiled in a separate translation
 *             unit with -mavx2 (see src/mem/simd_avx2.cc) so the rest
 *             of the library stays runnable on any x86-64.
 *
 * The active level resolves once from the C8T_SIMD environment variable
 * (scalar|sse2|avx2|auto) intersected with what the CPU supports;
 * tests force levels via setLevel(). Every level produces bit-identical
 * match masks, so dispatch never changes simulation results — the
 * simd_identity_test suite pins this end to end.
 */

#ifndef C8T_MEM_SIMD_HH
#define C8T_MEM_SIMD_HH

#include <cstdint>
#include <string>

#include "mem/addr.hh"

#if defined(__x86_64__) || defined(_M_X64)
#define C8T_SIMD_X86_64 1
#include <emmintrin.h>
#endif

namespace c8t::mem::simd
{

/** Instruction-set level of the way-compare kernel. */
enum class SimdLevel : std::uint8_t {
    Scalar, //!< portable loop
    Sse2,   //!< 128-bit, x86-64 baseline
    Avx2,   //!< 256-bit, runtime-detected
};

/** Human-readable level name ("scalar", "sse2", "avx2"). */
const char *toString(SimdLevel level);

/** Highest level this binary + CPU supports. */
SimdLevel bestSupported();

/**
 * The measured-fastest supported level. The first call times every
 * supported kernel on a small in-cache fixture (one warm-up round,
 * best-of-three timed rounds each) and caches the winner; subsequent
 * calls are free. This exists because "highest ISA" is not "fastest"
 * everywhere: on hosts that emulate 256-bit ops (some VMs) the AVX2
 * kernel measures ~2x slower than SSE2, and since every level returns
 * bit-identical masks the choice can safely follow the stopwatch.
 * bench/micro_perf's BM_WayCompare times the calibrated pick (its
 * "auto=<level>" row) next to the named levels.
 */
SimdLevel autoCalibratedLevel();

/**
 * The level in effect. First use resolves the C8T_SIMD environment
 * variable (scalar|sse2|avx2|auto; auto and unset mean
 * autoCalibratedLevel() — the measured-fastest level, not blindly the
 * highest; named levels above hardware support are clamped down) and
 * caches the result; subsequent calls are a load.
 */
SimdLevel activeLevel();

/** Force the active level (clamped to bestSupported()); returns the
 *  level actually installed. Test hook: the store is atomic, but a
 *  TagArray built concurrently may still capture the old level. */
SimdLevel setLevel(SimdLevel level);

/**
 * Parse a C8T_SIMD-style spec. Returns autoCalibratedLevel() for
 * "auto", empty or unknown strings; named levels are clamped to
 * hardware support.
 */
SimdLevel parseLevel(const std::string &spec);

/** Portable way-compare: bit w set when tags[w] == tag (w < ways). */
inline std::uint64_t
matchBitsScalar(const Addr *tags, std::uint32_t ways, Addr tag)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        m |= static_cast<std::uint64_t>(tags[w] == tag) << w;
    return m;
}

#ifdef C8T_SIMD_X86_64
/** SSE2 way-compare: two 64-bit lanes per step, scalar tail. */
inline std::uint64_t
matchBitsSse2(const Addr *tags, std::uint32_t ways, Addr tag)
{
    const __m128i needle = _mm_set1_epi64x(static_cast<long long>(tag));
    std::uint64_t m = 0;
    std::uint32_t w = 0;
    for (; w + 2 <= ways; w += 2) {
        const __m128i row = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + w));
        // SSE2 lacks a 64-bit equality: compare 32-bit halves, swap the
        // halves within each 64-bit lane, and AND — a lane is all-ones
        // exactly when both halves matched.
        const __m128i eq32 = _mm_cmpeq_epi32(row, needle);
        const __m128i eq64 =
            _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0xB1));
        const int lanes =
            _mm_movemask_pd(_mm_castsi128_pd(eq64)); // 2 bits
        m |= static_cast<std::uint64_t>(lanes) << w;
    }
    for (; w < ways; ++w)
        m |= static_cast<std::uint64_t>(tags[w] == tag) << w;
    return m;
}

/** AVX2 way-compare: four 64-bit lanes per step (simd_avx2.cc, built
 *  with -mavx2; resolves to the SSE2 kernel when the toolchain cannot
 *  target AVX2). */
std::uint64_t matchBitsAvx2(const Addr *tags, std::uint32_t ways,
                            Addr tag);
#endif // C8T_SIMD_X86_64

/**
 * Way-compare at @p level: bit w set when tags[w] == tag. The caller
 * ANDs the result with its valid mask. On non-x86 targets every level
 * resolves to the scalar loop.
 */
inline std::uint64_t
matchBits(SimdLevel level, const Addr *tags, std::uint32_t ways,
          Addr tag)
{
#ifdef C8T_SIMD_X86_64
    switch (level) {
      case SimdLevel::Avx2:
        return matchBitsAvx2(tags, ways, tag);
      case SimdLevel::Sse2:
        return matchBitsSse2(tags, ways, tag);
      case SimdLevel::Scalar:
        break;
    }
#else
    (void)level;
#endif
    return matchBitsScalar(tags, ways, tag);
}

} // namespace c8t::mem::simd

#endif // C8T_MEM_SIMD_HH
