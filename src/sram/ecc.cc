/**
 * @file
 * Hamming(72,64) SEC-DED implementation.
 */

#include "sram/ecc.hh"

#include <bit>
#include <cassert>

namespace c8t::sram
{

bool
Codeword72::get(std::uint32_t idx) const
{
    assert(idx < bits);
    return (_w[idx >> 6] >> (idx & 63)) & 1;
}

void
Codeword72::set(std::uint32_t idx, bool v)
{
    assert(idx < bits);
    const std::uint64_t mask = 1ull << (idx & 63);
    if (v)
        _w[idx >> 6] |= mask;
    else
        _w[idx >> 6] &= ~mask;
}

void
Codeword72::flip(std::uint32_t idx)
{
    assert(idx < bits);
    _w[idx >> 6] ^= 1ull << (idx & 63);
}

const char *
toString(EccStatus s)
{
    switch (s) {
      case EccStatus::Ok:
        return "ok";
      case EccStatus::Corrected:
        return "corrected";
      case EccStatus::DetectedUncorrectable:
        return "detected_uncorrectable";
    }
    return "?";
}

namespace
{

/** Parity of @p x. */
constexpr bool
parity(std::uint64_t x)
{
    return std::popcount(x) & 1;
}

/**
 * Syndrome masks: entry j selects the codeword positions 1..71 whose
 * index has bit j set, as {positions 0..63, positions 64..71}. The
 * check bit at position 2^j is the only check position in mask j.
 */
constexpr auto kSyndromeMasks = [] {
    std::array<std::array<std::uint64_t, 2>, 7> masks{};
    for (std::uint32_t j = 0; j < 7; ++j) {
        for (std::uint32_t pos = 1; pos < Codeword72::bits; ++pos) {
            if ((pos >> j) & 1)
                masks[j][pos >> 6] |= 1ull << (pos & 63);
        }
    }
    return masks;
}();

/**
 * The data positions between check positions 2^j and 2^(j+1) form one
 * run: positions 2^j+1 .. 2^(j+1)-1 hold data bits 2^j-j-1 onwards.
 * Runs j = 1..5 lie in the low word (runMask(j) is their width); run 6
 * is positions 65..71, data bits 57..63, bits 1..7 of the high word.
 */
constexpr std::uint64_t
runMask(std::uint32_t j)
{
    return (1ull << ((1u << j) - 1)) - 1;
}

constexpr std::uint32_t
runDataShift(std::uint32_t j)
{
    return (1u << j) - j - 1;
}

static_assert(runDataShift(6) == 57);

/** The Hamming syndrome of the codeword words @p lo / @p hi: the xor
 *  of the indices of its set positions 1..71. */
std::uint32_t
syndromeOf(std::uint64_t lo, std::uint64_t hi)
{
    std::uint32_t syndrome = 0;
    for (std::uint32_t j = 0; j < 7; ++j) {
        syndrome |= static_cast<std::uint32_t>(parity(
                        (lo & kSyndromeMasks[j][0]) ^
                        (hi & kSyndromeMasks[j][1])))
                    << j;
    }
    return syndrome;
}

} // namespace

Codeword72
SecDed72::encode(std::uint64_t data)
{
    // Scatter the data bits into the non-power-of-two positions.
    std::uint64_t lo = 0;
    for (std::uint32_t j = 1; j <= 5; ++j)
        lo |= ((data >> runDataShift(j)) & runMask(j)) << ((1u << j) + 1);
    std::uint64_t hi = (data >> runDataShift(6)) << 1;

    // Check bit 2^j is the parity of the positions under mask j; it
    // is the only check position in its own mask, so the order of the
    // assignments does not matter.
    const std::uint32_t checks = syndromeOf(lo, hi);
    for (std::uint32_t j = 0; j < 6; ++j)
        lo |= static_cast<std::uint64_t>((checks >> j) & 1) << (1u << j);
    hi |= checks >> 6;

    // Overall parity over positions 1..71 stored at position 0.
    lo |= parity(lo ^ hi);

    Codeword72 cw;
    cw._w = {lo, hi};
    return cw;
}

EccDecodeResult
SecDed72::decode(const Codeword72 &cw)
{
    std::uint64_t lo = cw._w[0];
    std::uint64_t hi = cw._w[1];
    const std::uint32_t syndrome = syndromeOf(lo, hi);
    // Parity of all 72 bits: set when positions 1..71 disagree with
    // the stored overall parity.
    const bool parity_error = parity(lo ^ hi);

    EccDecodeResult result;
    if (syndrome == 0 && !parity_error) {
        result.status = EccStatus::Ok;
    } else if (parity_error) {
        // Odd number of errors; assume one and correct it. A syndrome
        // of zero means the overall-parity bit itself flipped, which
        // carries no data.
        if (syndrome <= 71) {
            if (syndrome < 64)
                lo ^= 1ull << syndrome;
            else
                hi ^= 1ull << (syndrome - 64);
            result.status = EccStatus::Corrected;
        } else {
            result.status = EccStatus::DetectedUncorrectable;
        }
    } else {
        // Even number of errors with a non-zero syndrome: double error.
        result.status = EccStatus::DetectedUncorrectable;
    }

    // Gather the (possibly corrected) data bits.
    for (std::uint32_t j = 1; j <= 5; ++j)
        result.data |= ((lo >> ((1u << j) + 1)) & runMask(j))
                       << runDataShift(j);
    result.data |= ((hi >> 1) & 0x7f) << runDataShift(6);
    return result;
}

} // namespace c8t::sram
