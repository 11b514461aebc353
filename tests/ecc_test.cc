/**
 * @file
 * Unit and exhaustive property tests for the Hamming(72,64) SEC-DED
 * codec, plus a differential test against a bit-at-a-time reference
 * codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sram/ecc.hh"
#include "trace/rng.hh"

namespace
{

using namespace c8t::sram;

/**
 * Bit-at-a-time reference codec: the textbook Hamming construction,
 * one codeword position per step. The word-parallel SecDed72 must
 * agree with it bit for bit.
 */
namespace oracle
{

bool
isCheckPosition(std::uint32_t pos)
{
    return (pos & (pos - 1)) == 0;
}

Codeword72
encode(std::uint64_t data)
{
    Codeword72 cw;
    std::uint32_t data_idx = 0;
    for (std::uint32_t pos = 1; pos <= 71; ++pos) {
        if (isCheckPosition(pos))
            continue;
        cw.set(pos, (data >> data_idx) & 1);
        ++data_idx;
    }
    for (std::uint32_t p = 1; p <= 64; p <<= 1) {
        bool parity = false;
        for (std::uint32_t pos = 1; pos <= 71; ++pos) {
            if (pos != p && (pos & p))
                parity ^= cw.get(pos);
        }
        cw.set(p, parity);
    }
    bool overall = false;
    for (std::uint32_t pos = 1; pos <= 71; ++pos)
        overall ^= cw.get(pos);
    cw.set(0, overall);
    return cw;
}

EccDecodeResult
decode(const Codeword72 &cw)
{
    std::uint32_t syndrome = 0;
    for (std::uint32_t pos = 1; pos <= 71; ++pos) {
        if (cw.get(pos))
            syndrome ^= pos;
    }
    bool parity_error = cw.get(0);
    for (std::uint32_t pos = 1; pos <= 71; ++pos)
        parity_error ^= cw.get(pos);

    Codeword72 fixed = cw;
    EccDecodeResult result;
    if (syndrome == 0 && !parity_error) {
        result.status = EccStatus::Ok;
    } else if (parity_error && syndrome == 0) {
        fixed.flip(0);
        result.status = EccStatus::Corrected;
    } else if (parity_error && syndrome <= 71) {
        fixed.flip(syndrome);
        result.status = EccStatus::Corrected;
    } else {
        result.status = EccStatus::DetectedUncorrectable;
    }
    std::uint32_t data_idx = 0;
    for (std::uint32_t pos = 1; pos <= 71; ++pos) {
        if (isCheckPosition(pos))
            continue;
        if (fixed.get(pos))
            result.data |= 1ull << data_idx;
        ++data_idx;
    }
    return result;
}

} // namespace oracle

/** Encode @p data with both codecs, apply @p flips to both codewords
 *  and require identical raw words, status and data. */
void
expectMatchesOracle(std::uint64_t data,
                    const std::vector<std::uint32_t> &flips)
{
    Codeword72 cw = SecDed72::encode(data);
    Codeword72 ref = oracle::encode(data);
    ASSERT_EQ(cw.raw(), ref.raw()) << std::hex << "data " << data;
    for (const std::uint32_t bit : flips) {
        cw.flip(bit);
        ref.flip(bit);
    }
    EXPECT_EQ(cw.raw()[1] >> 8, 0u) << "bits 72..127 must stay zero";
    const EccDecodeResult got = SecDed72::decode(cw);
    const EccDecodeResult want = oracle::decode(ref);
    EXPECT_EQ(got.status, want.status) << std::hex << "data " << data;
    EXPECT_EQ(got.data, want.data) << std::hex << "data " << data;
}

TEST(SecDedOracle, RandomWordsWithUpToFourFlips)
{
    c8t::trace::Rng rng(11);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t data = rng.next();
        std::vector<std::uint32_t> flips;
        const auto n = static_cast<std::uint32_t>(rng.below(5));
        while (flips.size() < n) {
            const auto bit =
                static_cast<std::uint32_t>(rng.below(Codeword72::bits));
            if (std::find(flips.begin(), flips.end(), bit) == flips.end())
                flips.push_back(bit);
        }
        expectMatchesOracle(data, flips);
    }
}

TEST(SecDedOracle, EverySingleAndDoubleFlipOfFixedWords)
{
    for (const std::uint64_t data :
         {0ull, ~0ull, 0x123456789abcdef0ull, 0x8000000000000001ull,
          0xfe00000000000000ull}) {
        for (std::uint32_t i = 0; i < Codeword72::bits; ++i) {
            expectMatchesOracle(data, {i});
            for (std::uint32_t j = i + 1; j < Codeword72::bits; ++j)
                expectMatchesOracle(data, {i, j});
        }
    }
}

TEST(Codeword72, GetSetFlip)
{
    Codeword72 cw;
    EXPECT_FALSE(cw.get(0));
    cw.set(0, true);
    cw.set(71, true);
    EXPECT_TRUE(cw.get(0));
    EXPECT_TRUE(cw.get(71));
    cw.flip(71);
    EXPECT_FALSE(cw.get(71));
}

TEST(SecDed, CleanDecodeRoundTrips)
{
    c8t::trace::Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t data = rng.next();
        const auto r = SecDed72::decode(SecDed72::encode(data));
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, data);
    }
}

TEST(SecDed, ZeroAndAllOnes)
{
    for (std::uint64_t data : {0ull, ~0ull}) {
        const auto r = SecDed72::decode(SecDed72::encode(data));
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, data);
    }
}

TEST(SecDed, EverySingleBitErrorIsCorrected)
{
    c8t::trace::Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint64_t data = rng.next();
        for (std::uint32_t bit = 0; bit < Codeword72::bits; ++bit) {
            Codeword72 cw = SecDed72::encode(data);
            cw.flip(bit);
            const auto r = SecDed72::decode(cw);
            EXPECT_EQ(r.status, EccStatus::Corrected)
                << "bit " << bit;
            EXPECT_EQ(r.data, data) << "bit " << bit;
        }
    }
}

TEST(SecDed, EveryDoubleBitErrorIsDetected)
{
    // Exhaustive over all C(72,2) = 2556 double-bit patterns.
    const std::uint64_t data = 0x123456789abcdef0ull;
    for (std::uint32_t i = 0; i < Codeword72::bits; ++i) {
        for (std::uint32_t j = i + 1; j < Codeword72::bits; ++j) {
            Codeword72 cw = SecDed72::encode(data);
            cw.flip(i);
            cw.flip(j);
            const auto r = SecDed72::decode(cw);
            EXPECT_EQ(r.status, EccStatus::DetectedUncorrectable)
                << "bits " << i << ", " << j;
        }
    }
}

TEST(SecDed, DoubleErrorNeverSilentlyCorrupts)
{
    // Double errors must never decode to Ok/Corrected-with-wrong-data.
    c8t::trace::Rng rng(3);
    for (int trial = 0; trial < 500; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint32_t i =
            static_cast<std::uint32_t>(rng.below(Codeword72::bits));
        std::uint32_t j;
        do {
            j = static_cast<std::uint32_t>(rng.below(Codeword72::bits));
        } while (j == i);

        Codeword72 cw = SecDed72::encode(data);
        cw.flip(i);
        cw.flip(j);
        const auto r = SecDed72::decode(cw);
        if (r.status != EccStatus::DetectedUncorrectable) {
            EXPECT_EQ(r.data, data);
        }
    }
}

TEST(SecDed, StatusNames)
{
    EXPECT_STREQ(toString(EccStatus::Ok), "ok");
    EXPECT_STREQ(toString(EccStatus::Corrected), "corrected");
    EXPECT_STREQ(toString(EccStatus::DetectedUncorrectable),
                 "detected_uncorrectable");
}

/** Parameterized single-bit sweep across data patterns. */
class SecDedDataPattern : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SecDedDataPattern, SingleErrorCorrectionHolds)
{
    const std::uint64_t data = GetParam();
    for (std::uint32_t bit = 0; bit < Codeword72::bits; ++bit) {
        Codeword72 cw = SecDed72::encode(data);
        cw.flip(bit);
        const auto r = SecDed72::decode(cw);
        EXPECT_EQ(r.status, EccStatus::Corrected);
        EXPECT_EQ(r.data, data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SecDedDataPattern,
    ::testing::Values(0ull, ~0ull, 0x5555555555555555ull,
                      0xaaaaaaaaaaaaaaaaull, 0x0123456789abcdefull,
                      0x8000000000000001ull, 0x00000000ffffffffull));

} // anonymous namespace
