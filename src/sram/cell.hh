/**
 * @file
 * 6T and 8T SRAM cell models.
 *
 * Two complementary views are provided:
 *
 *  1. A *functional* single-cell model (Cell6T / Cell8T) implementing the
 *     transistor-level behaviour the paper's Figure 1 describes: write
 *     through the write access devices, read through the decoupled stack
 *     (8T) or the shared access devices (6T), and the half-select
 *     disturb semantics that motivate the whole paper.
 *
 *  2. An *analytic* stability model: static noise margin (SNM) as a
 *     function of supply voltage for read/hold/write conditions, the
 *     variation-induced failure probability, and a Vmin solver. These
 *     reproduce the qualitative motivation (6T read stability collapses
 *     under voltage scaling; the 8T read stack decouples the storage
 *     node and keeps read SNM equal to hold SNM).
 *
 * The analytic constants are representative of a 45 nm bulk process and
 * are documented next to their definitions; only the *relative*
 * behaviour of the two cells matters for the experiments.
 */

#ifndef C8T_SRAM_CELL_HH
#define C8T_SRAM_CELL_HH

#include <cstdint>

namespace c8t::sram
{

/** SRAM cell flavour. */
enum class CellType : std::uint8_t {
    SixT,
    EightT,
};

/** Human readable cell name. */
const char *toString(CellType t);

/** Operating condition for stability analysis. */
enum class CellOp : std::uint8_t {
    Hold,
    Read,
    Write,
};

/**
 * Functional 6T cell.
 *
 * Reads go through the same access transistors as writes, so a read
 * (or a half-select: word line high, bit lines precharged) disturbs the
 * storage node; below the read-stability voltage the cell may flip.
 */
class Cell6T
{
  public:
    /** Write @p v through the access devices (word line asserted). */
    void write(bool v) { _q = v; }

    /**
     * Read the cell (word line asserted, bit lines precharged).
     * At or above @p vdd_stable the read is non-destructive; below it
     * the read disturb flips the cell (worst-case model).
     *
     * @param vdd        Operating supply voltage.
     * @param vdd_stable Minimum voltage for a stable read.
     * @return The value sensed on the bit lines (pre-disturb value).
     */
    bool read(double vdd, double vdd_stable);

    /**
     * Half-select event: the word line is asserted for a write to some
     * other column. A 6T cell sees a read-like bias, so the disturb
     * semantics match read().
     */
    void halfSelect(double vdd, double vdd_stable);

    /** Stored value (test/inspection access; no bias applied). */
    bool value() const { return _q; }

  private:
    bool _q = false;
};

/**
 * Functional 8T cell (Figure 1 of the paper).
 *
 * The read stack (M7/M8) only gates the read bit line from the storage
 * node, so reads never disturb the cell at any voltage. Writes assert
 * the write word line, which drives the *write bit line values* into
 * the cell — which is exactly why a half-selected 8T cell is corrupted
 * by whatever happens to be on its column's write bit lines unless the
 * array performs read-modify-write.
 */
class Cell8T
{
  public:
    /** Write @p v through M5/M6 (write word line asserted). */
    void write(bool v) { _q = v; }

    /**
     * Read through the decoupled stack: RBL is precharged and
     * discharges through M7/M8 iff Q == 0. Never disturbs the cell.
     *
     * @return The stored value.
     */
    bool read() const { return _q; }

    /**
     * Half-select during a write: WWL is asserted for the whole row, so
     * this cell is *written* with whatever its write bit lines carry.
     *
     * @param wbl Value on the write bit line pair.
     */
    void halfSelectWrite(bool wbl) { _q = wbl; }

    /** Stored value (test/inspection access). */
    bool value() const { return _q; }

  private:
    bool _q = false;
};

/**
 * Analytic cell stability model.
 *
 * SNM model (representative 45 nm constants):
 *   hold  SNM(v) = kHold  * (v - vth)
 *   read  SNM(v) = kRead  * (v - vth)        (6T: kRead << kHold)
 *                 = hold SNM                  (8T: decoupled read)
 *   write margin(v) = kWrite * (v - vth)
 *
 * Variation: margins are Gaussian with sigma proportional to
 * sigmaVth / sqrt(v); a cell fails an operation when its margin
 * sample falls below zero. failureProbability() returns that tail
 * probability; vmin() inverts it.
 */
struct StabilityParams
{
    /** Threshold voltage (V). */
    double vth = 0.45;

    /** Hold SNM slope (V of SNM per V of overdrive). */
    double kHold = 0.38;

    /** 6T read SNM slope — degraded by the read-disturb divider. */
    double kRead6T = 0.16;

    /** Write margin slope. */
    double kWrite = 0.30;

    /** Vth variation (sigma, V) at the reference cell size. Chosen so
     *  the 6T read-failure target of 1e-6 lands just below 1.0 V and
     *  the 8T equivalent near 0.7 V — representative of the regime the
     *  paper describes (6T caps Vmin; 8T unlocks low-voltage levels). */
    double sigmaVth = 0.018;

    bool operator==(const StabilityParams &other) const = default;
};

/**
 * Static noise margin / write margin of a cell at voltage @p vdd.
 * Clamped at zero below threshold.
 */
double noiseMargin(CellType type, CellOp op, double vdd,
                   const StabilityParams &p = StabilityParams{});

/**
 * Probability that a single cell fails operation @p op at @p vdd due to
 * Vth variation (Gaussian tail of the margin distribution).
 */
double failureProbability(CellType type, CellOp op, double vdd,
                          const StabilityParams &p = StabilityParams{});

/**
 * Minimum supply voltage at which the per-cell failure probability for
 * the worst-case operation of @p type stays at or below @p target_pfail.
 * Solved by bisection on [vth, 1.4 V].
 */
double vmin(CellType type, double target_pfail,
            const StabilityParams &p = StabilityParams{});

} // namespace c8t::sram

#endif // C8T_SRAM_CELL_HH
