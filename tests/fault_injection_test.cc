/**
 * @file
 * Tests for the multi-bit-upset campaign: interleaving + SEC-DED must
 * recover every burst up to the interleave degree; non-interleaved
 * rows must not. Also pins the streamed fault-map campaign to the
 * materialised map evaluated row by row.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "trace/rng.hh"

#include "sram/fault_injection.hh"

namespace
{

using namespace c8t::sram;

TEST(EccProtectedRow, CleanReadsRoundTrip)
{
    EccProtectedRow row(8, 4);
    for (std::uint32_t w = 0; w < 8; ++w)
        row.writeWord(w, 0x1111111111111111ull * (w + 1));
    for (std::uint32_t w = 0; w < 8; ++w) {
        const auto r = row.readWord(w);
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, 0x1111111111111111ull * (w + 1));
    }
}

TEST(EccProtectedRow, SingleStrikeCorrected)
{
    EccProtectedRow row(8, 4);
    row.writeWord(3, 0xdeadbeefull);
    row.strike(100);
    const std::uint32_t hit_word = row.wordOfColumn(100);
    const auto r = row.readWord(hit_word);
    EXPECT_EQ(r.status, EccStatus::Corrected);
}

TEST(EccProtectedRow, BurstWithinDegreeLandsInDistinctWords)
{
    EccProtectedRow row(8, 4);
    for (std::uint32_t start = 0; start + 4 <= row.columns();
         start += 97) {
        std::set<std::uint32_t> words;
        for (std::uint32_t i = 0; i < 4; ++i)
            words.insert(row.wordOfColumn(start + i));
        EXPECT_EQ(words.size(), 4u);
    }
}

TEST(UpsetCampaign, InterleavedDoubleBurstAlwaysRecovers)
{
    // Degree 4 vs burst length 2: every word absorbs at most one bit,
    // SEC-DED corrects everything, zero silent corruption.
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 2;
    cfg.trials = 2000;
    const UpsetStats s = runUpsetCampaign(cfg);
    EXPECT_EQ(s.trials, 2000u);
    EXPECT_EQ(s.multiBitWords, 0u);
    EXPECT_EQ(s.silentCorruptions, 0u);
    EXPECT_EQ(s.detectedUncorrectable, 0u);
    EXPECT_EQ(s.fullyRecoveredTrials, 2000u);
    EXPECT_EQ(s.corrected, 2u * 2000u);
}

TEST(UpsetCampaign, NonInterleavedDoubleBurstDefeatsSecDed)
{
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 1;
    cfg.burstLength = 2;
    cfg.trials = 2000;
    const UpsetStats s = runUpsetCampaign(cfg);
    // Almost every burst lands both bits in one word.
    EXPECT_GT(s.multiBitWords, 1800u);
    EXPECT_GT(s.detectedUncorrectable, 1800u);
    EXPECT_LT(s.fullyRecoveredTrials, 200u);
}

TEST(UpsetCampaign, InterleavedFourBurstStillRecovers)
{
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 4;
    cfg.trials = 1000;
    const UpsetStats s = runUpsetCampaign(cfg);
    EXPECT_EQ(s.multiBitWords, 0u);
    EXPECT_EQ(s.fullyRecoveredTrials, 1000u);
}

TEST(UpsetCampaign, BurstBeyondDegreeBreaksInterleaving)
{
    // Burst longer than the degree must place two bits in some word.
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 5;
    cfg.trials = 500;
    const UpsetStats s = runUpsetCampaign(cfg);
    // A burst fully inside one interleave group must double-hit a word;
    // the rare bursts straddling a group boundary can escape.
    EXPECT_GT(s.multiBitWords, 480u);
    EXPECT_GT(s.detectedUncorrectable, 400u);
}

TEST(UpsetCampaign, DeterministicGivenSeed)
{
    UpsetCampaign cfg;
    cfg.trials = 200;
    cfg.degree = 1;
    const UpsetStats a = runUpsetCampaign(cfg);
    const UpsetStats b = runUpsetCampaign(cfg);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.detectedUncorrectable, b.detectedUncorrectable);
    EXPECT_EQ(a.fullyRecoveredTrials, b.fullyRecoveredTrials);
}

TEST(UpsetCampaign, SingleBitBurstAlwaysCorrectedAnyDegree)
{
    for (std::uint32_t degree : {1u, 2u, 4u, 8u}) {
        UpsetCampaign cfg;
        cfg.words = 8;
        cfg.degree = degree;
        cfg.burstLength = 1;
        cfg.trials = 500;
        const UpsetStats s = runUpsetCampaign(cfg);
        EXPECT_EQ(s.fullyRecoveredTrials, 500u) << "degree " << degree;
        EXPECT_EQ(s.silentCorruptions, 0u);
    }
}

/**
 * Reference fault-map evaluation: materialise the whole map with
 * buildFaultMap, then strike and decode every faulted row through an
 * EccProtectedRow. runFaultMapCampaign streams the same draw and must
 * agree field for field.
 */
FaultMapStats
evaluateMaterialised(const FaultMapConfig &cfg)
{
    const FaultMap map = buildFaultMap(cfg);
    FaultMapStats out;
    out.words = static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow;
    const std::uint64_t columns =
        static_cast<std::uint64_t>(cfg.wordsPerRow) * Codeword72::bits;

    std::uint64_t fill_state = faultMapSeed(cfg) ^ 0x9e3779b97f4a7c15ull;
    c8t::trace::Rng fill_rng(c8t::trace::splitmix64(fill_state));
    std::vector<std::uint64_t> original(cfg.wordsPerRow);
    std::size_t next_fault = 0;
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
        const std::uint64_t row_base = r * columns;
        const std::uint64_t row_end = row_base + columns;
        EccProtectedRow row(cfg.wordsPerRow, cfg.degree);
        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w) {
            original[w] = fill_rng.next();
            row.writeWord(w, original[w]);
        }
        std::vector<std::uint32_t> hits(cfg.wordsPerRow, 0);
        for (; next_fault < map.faultyCells.size() &&
               map.faultyCells[next_fault] < row_end;
             ++next_fault) {
            const auto col = static_cast<std::uint32_t>(
                map.faultyCells[next_fault] - row_base);
            row.strike(col);
            ++hits[row.wordOfColumn(col)];
        }
        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w) {
            const EccDecodeResult res = row.readWord(w);
            if (hits[w] == 0)
                ++out.cleanWords;
            else if (res.status == EccStatus::DetectedUncorrectable)
                ++out.detectedUncorrectable;
            else if (res.data != original[w])
                ++out.silentCorruptions;
            else
                ++out.corrected;
        }
    }
    return out;
}

TEST(FaultMapCampaign, StreamedMatchesMaterialisedMap)
{
    c8t::trace::Rng rng(5);
    int configs = 0;
    for (const double p : {0.0, 1e-4, 3e-3, 0.02, 0.3, 0.45, 1.0}) {
        for (const std::uint32_t degree : {1u, 2u, 4u, 8u}) {
            FaultMapConfig cfg;
            cfg.runSeed = rng.next();
            cfg.vdd = 0.5 + 0.5 * rng.uniform();
            cfg.cell = rng.chance(0.5) ? CellType::SixT : CellType::EightT;
            cfg.pfailCell = p;
            cfg.rows = static_cast<std::uint32_t>(rng.between(1, 300));
            cfg.wordsPerRow = degree * static_cast<std::uint32_t>(
                                           rng.between(1, 32 / degree));
            cfg.degree = degree;

            const FaultMapStats got = runFaultMapCampaign(cfg);
            const FaultMapStats want = evaluateMaterialised(cfg);
            SCOPED_TRACE(::testing::Message()
                         << "p=" << p << " degree=" << degree
                         << " rows=" << cfg.rows
                         << " words=" << cfg.wordsPerRow);
            EXPECT_EQ(got.words, want.words);
            EXPECT_EQ(got.cleanWords, want.cleanWords);
            EXPECT_EQ(got.corrected, want.corrected);
            EXPECT_EQ(got.detectedUncorrectable,
                      want.detectedUncorrectable);
            EXPECT_EQ(got.silentCorruptions, want.silentCorruptions);
            if (p == 0.0) {
                EXPECT_EQ(got.cleanWords, got.words);
            }
            if (p == 1.0) {
                EXPECT_EQ(got.cleanWords, 0u);
            }
            ++configs;
        }
    }
    EXPECT_EQ(configs, 28);
}

TEST(FaultMapCampaign, SingleRowSingleWord)
{
    // The smallest array: one row of one word, at every extreme.
    for (const double p : {0.0, 0.01, 0.5, 1.0}) {
        FaultMapConfig cfg;
        cfg.rows = 1;
        cfg.wordsPerRow = 1;
        cfg.degree = 1;
        cfg.pfailCell = p;
        const FaultMapStats got = runFaultMapCampaign(cfg);
        const FaultMapStats want = evaluateMaterialised(cfg);
        EXPECT_EQ(got.words, 1u);
        EXPECT_EQ(got.cleanWords, want.cleanWords) << p;
        EXPECT_EQ(got.corrected, want.corrected) << p;
        EXPECT_EQ(got.detectedUncorrectable, want.detectedUncorrectable)
            << p;
        EXPECT_EQ(got.silentCorruptions, want.silentCorruptions) << p;
    }
}

} // anonymous namespace
