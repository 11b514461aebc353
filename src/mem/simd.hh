/**
 * @file
 * The way-compare kernel of the tag lookup hot path.
 *
 * The TagArray and Tag-Buffer store their per-set tag words flat
 * (DESIGN.md §7), so a lookup compares one tag against W consecutive
 * 64-bit words and collects a match mask. Exactly one kernel is built,
 * chosen at compile time: SSE2 on x86-64 (part of the baseline ISA, so
 * no CPU detection), the portable scalar loop elsewhere. The scalar
 * loop is also the reference tests/simd_identity_test.cc compares the
 * built kernel against.
 */

#ifndef C8T_MEM_SIMD_HH
#define C8T_MEM_SIMD_HH

#include <cstdint>

#include "mem/addr.hh"

#if defined(__x86_64__) || defined(_M_X64)
#define C8T_WAY_COMPARE_SSE2 1
#include <emmintrin.h>
#endif

namespace c8t::mem::simd
{

/** Instruction-set level of a way-compare kernel. */
enum class SimdLevel : std::uint8_t {
    Scalar, //!< portable loop
    Sse2,   //!< 128-bit, x86-64 baseline
};

/** Human-readable level name ("scalar", "sse2"). */
constexpr const char *
toString(SimdLevel level)
{
    return level == SimdLevel::Sse2 ? "sse2" : "scalar";
}

/** The level of the kernel matchBits() runs, fixed at compile time. */
constexpr SimdLevel
activeLevel()
{
#ifdef C8T_WAY_COMPARE_SSE2
    return SimdLevel::Sse2;
#else
    return SimdLevel::Scalar;
#endif
}

/** Portable way-compare: bit w set when tags[w] == tag (w < ways). */
inline std::uint64_t
matchBitsScalar(const Addr *tags, std::uint32_t ways, Addr tag)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        m |= static_cast<std::uint64_t>(tags[w] == tag) << w;
    return m;
}

/**
 * Way-compare with the built kernel: bit w set when tags[w] == tag.
 * The caller ANDs the result with its valid mask.
 */
inline std::uint64_t
matchBits(const Addr *tags, std::uint32_t ways, Addr tag)
{
#ifdef C8T_WAY_COMPARE_SSE2
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
#else
    return matchBitsScalar(tags, ways, tag);
#endif
}

} // namespace c8t::mem::simd

#endif // C8T_MEM_SIMD_HH
