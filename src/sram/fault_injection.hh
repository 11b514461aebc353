/**
 * @file
 * Multi-bit-upset fault injection over ECC-protected, bit-interleaved
 * rows.
 *
 * Reproduces the motivation behind bit interleaving (paper §2): a
 * particle strike upsets a *burst* of physically adjacent cells; with
 * interleaving the burst lands in different logical words and per-word
 * SEC-DED corrects everything; without it the burst concentrates in one
 * word and defeats the code.
 */

#ifndef C8T_SRAM_FAULT_INJECTION_HH
#define C8T_SRAM_FAULT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "sram/cell.hh"
#include "sram/ecc.hh"
#include "sram/interleave.hh"
#include "trace/rng.hh"

namespace c8t::sram
{

/**
 * An ECC-protected row: N logical words, each stored as a 72-bit
 * SEC-DED codeword, laid out physically through an InterleaveMap over
 * the 72-bit codeword columns.
 */
class EccProtectedRow
{
  public:
    /**
     * @param words  Number of 64-bit data words in the row.
     * @param degree Interleave degree (1 = non-interleaved).
     */
    EccProtectedRow(std::uint32_t words, std::uint32_t degree);

    /** Store @p data into logical word @p w (re-encodes the codeword). */
    void writeWord(std::uint32_t w, std::uint64_t data);

    /** Decode logical word @p w. */
    EccDecodeResult readWord(std::uint32_t w) const;

    /** Flip the physical column @p col (0 .. words*72-1). */
    void strike(std::uint32_t col);

    /** Logical word that physical column @p col belongs to. */
    std::uint32_t wordOfColumn(std::uint32_t col) const
    {
        return _map.wordOf(col);
    }

    /** Total physical columns. */
    std::uint32_t columns() const { return _map.columns(); }

    /** Number of logical words. */
    std::uint32_t words() const { return _map.words(); }

  private:
    InterleaveMap _map;
    std::vector<Codeword72> _codewords;
};

/** Configuration of one upset campaign. */
struct UpsetCampaign
{
    /** Logical words per row. */
    std::uint32_t words = 16;

    /** Interleave degree. */
    std::uint32_t degree = 4;

    /** Number of independent strike trials. */
    std::uint32_t trials = 10000;

    /** Burst length in physically adjacent cells. */
    std::uint32_t burstLength = 2;

    /** RNG seed. */
    std::uint64_t seed = 7;
};

/** Outcome counts of an upset campaign. */
struct UpsetStats
{
    /** Trials executed. */
    std::uint64_t trials = 0;

    /** Words that absorbed 2+ upset bits in one trial. */
    std::uint64_t multiBitWords = 0;

    /** Word decodes ending in correction. */
    std::uint64_t corrected = 0;

    /** Word decodes ending in detected-uncorrectable. */
    std::uint64_t detectedUncorrectable = 0;

    /**
     * Word decodes that returned Ok/Corrected but WRONG data — silent
     * data corruption, the failure mode interleaving must prevent.
     */
    std::uint64_t silentCorruptions = 0;

    /** Trials after which every word decoded to its original data. */
    std::uint64_t fullyRecoveredTrials = 0;
};

/**
 * Run an upset campaign: per trial, fill a fresh row with random data,
 * strike a random physically-contiguous burst, decode every word and
 * classify the outcome.
 */
UpsetStats runUpsetCampaign(const UpsetCampaign &cfg);

// --- Monte-Carlo voltage-scaling fault maps (DESIGN.md §10) ------------
//
// Where the upset campaign above models *transient* particle strikes,
// the fault map models *static* variation-induced cell failures at a
// low supply voltage: every physical cell of an array independently
// fails with the per-cell probability the VddModel assigns to the
// operating point. The map is drawn once per (run seed, Vdd, geometry,
// cell type) — deterministically, so every sweep worker that evaluates
// the same operating point sees the same faulty cells.

/** Geometry + operating point of one fault-map draw. */
struct FaultMapConfig
{
    /** Campaign-level seed (the sweep's run seed). */
    std::uint64_t runSeed = 1;

    /** Supply voltage of the operating point (hashed into the draw
     *  seed, so neighbouring grid points get independent maps). */
    double vdd = 1.0;

    /** Cell flavour (hashed into the draw seed). */
    CellType cell = CellType::EightT;

    /** Per-cell failure probability at the operating point (from
     *  VddModel::at().pfailCell). */
    double pfailCell = 0.0;

    /** Rows in the modelled array. */
    std::uint32_t rows = 1024;

    /** Logical 64-bit words per row. */
    std::uint32_t wordsPerRow = 16;

    /** Interleave degree of the physical layout. */
    std::uint32_t degree = 4;
};

/**
 * A drawn fault map: the flattened physical-cell indices
 * (row * columns + column) that are faulty, in ascending order.
 */
struct FaultMap
{
    /** The configuration the map was drawn from. */
    FaultMapConfig config;

    /** Faulty cells as flattened indices, ascending. */
    std::vector<std::uint64_t> faultyCells;

    /** Total physical cells in the array. */
    std::uint64_t totalCells = 0;

    /** Fraction of cells faulty in this draw. */
    double faultFraction() const
    {
        return totalCells == 0
                   ? 0.0
                   : static_cast<double>(faultyCells.size()) /
                         static_cast<double>(totalCells);
    }
};

/** Per-word SEC-DED outcome counts over one evaluated fault map. */
struct FaultMapStats
{
    /** Words decoded (rows * wordsPerRow). */
    std::uint64_t words = 0;

    /** Words with no faulty cell. */
    std::uint64_t cleanWords = 0;

    /** Words whose single faulty cell the code corrected. */
    std::uint64_t corrected = 0;

    /** Words flagged detected-uncorrectable (2 faulty cells). */
    std::uint64_t detectedUncorrectable = 0;

    /** Words that decoded Ok/Corrected but to WRONG data (3+ faulty
     *  cells aliasing) — silent data corruption. */
    std::uint64_t silentCorruptions = 0;

    /** Words lost despite ECC (detected-uncorrectable + silent). */
    std::uint64_t failedWords() const
    {
        return detectedUncorrectable + silentCorruptions;
    }

    /** Post-ECC word failure rate — the quantity the min-Vdd search
     *  thresholds. */
    double postEccFailureRate() const
    {
        return words == 0 ? 0.0
                          : static_cast<double>(failedWords()) /
                                static_cast<double>(words);
    }
};

/**
 * The fault-map draw seed of @p cfg, derived from (runSeed, vdd, rows,
 * wordsPerRow, degree, cell) via splitmix64, so the same operating
 * point always yields the same map regardless of which sweep worker
 * asks.
 */
std::uint64_t faultMapSeed(const FaultMapConfig &cfg);

/**
 * Draw the fault map for @p cfg: each of the rows * wordsPerRow * 72
 * physical cells fails independently with probability cfg.pfailCell,
 * from the draw seeded by faultMapSeed(cfg).
 */
FaultMap buildFaultMap(const FaultMapConfig &cfg);

/**
 * Evaluate the fault map of @p cfg through the interleaved SEC-DED
 * layout: fill every row with deterministic pseudo-random data, flip
 * the faulty cells, decode every struck word and classify the outcome.
 *
 * The campaign streams the draw buildFaultMap(cfg) collects row by row
 * and never materialises the map, so it runs in O(wordsPerRow) memory
 * at any failure probability; only struck words are encoded.
 */
FaultMapStats runFaultMapCampaign(const FaultMapConfig &cfg);

} // namespace c8t::sram

#endif // C8T_SRAM_FAULT_INJECTION_HH
