/**
 * @file
 * "cacti-lite": an analytic energy / latency / area model for the cache
 * data array and the proposed buffers, in the spirit of the CACTI tool
 * the paper cites for geometry arguments.
 *
 * The model is deliberately first-order: every energy is a switched
 * capacitance (sum of per-cell wire loads over the wire's span) times
 * V^2 times an activity factor, every latency is a lumped RC, every
 * area is a cell count times a per-cell footprint plus a periphery
 * overhead. Constants are representative of a 45 nm bulk process —
 * documented inline — and only *relative* magnitudes matter for the
 * paper's claims (a Set-Buffer access is far cheaper than a row access;
 * the Set-Buffer adds < 0.2 % area).
 */

#ifndef C8T_SRAM_ENERGY_HH
#define C8T_SRAM_ENERGY_HH

#include <cstdint>

#include "sram/array.hh"

namespace c8t::sram
{

/** Process / circuit constants (representative 45 nm values). */
struct TechParams
{
    /** Supply voltage (V). */
    double vdd = 1.0;

    /** Bit line capacitance contributed by one cell (F). */
    double cBitlinePerCell = 0.10e-15;

    /** Word line capacitance contributed by one cell (F). */
    double cWordlinePerCell = 0.07e-15;

    /** Sense amp / column latch input capacitance per column (F). */
    double cSensePerColumn = 1.2e-15;

    /** Capacitance of one Set-Buffer latch bit (F). */
    double cLatchBit = 0.9e-15;

    /** Capacitance of one tag-comparator XOR input (F). */
    double cCompareBit = 0.6e-15;

    /** Effective driver resistance (ohm) for RC latency estimates. */
    double rDriver = 4.0e3;

    /** Effective cell pull-down resistance (ohm). */
    double rCell = 9.0e3;

    /** 6T cell footprint (m^2): 0.374 um^2 at 45 nm. */
    double area6T = 0.374e-12;

    /** 8T cell footprint (m^2): ~30 % over 6T at 45 nm. */
    double area8T = 0.486e-12;

    /** Periphery (decoders, drivers, mux) area overhead fraction. */
    double peripheryOverhead = 0.35;

    /** Leakage per cell (W). */
    double leakPerCell = 15.0e-12;

    /** Rows per subarray after vertical partitioning. */
    std::uint32_t rowsPerSubarray = 128;

    /** Columns per subarray after horizontal partitioning. */
    std::uint32_t colsPerSubarray = 256;

    bool operator==(const TechParams &other) const = default;
};

/**
 * Per-event energy constants for deferred (count-then-multiply)
 * accounting. The controller's hot path increments integer event
 * counters only; the accumulated dynamic energy is materialized on
 * demand by multiplying each count against the constant below — every
 * constant is produced by the exact EnergyModel call the historical
 * per-access accumulation made, so the materialized total matches the
 * per-access sum to summation-order rounding (ULPs).
 */
struct EnergyEventRates
{
    /** Largest request size with its own bucket (bytes). */
    static constexpr std::uint32_t kMaxRequestBytes = 8;

    /** Full row read / write. */
    double rowRead = 0.0;
    double rowWrite = 0.0;

    /** Partial (6T / word-granular) writes, indexed by bytes 1..8. */
    double partialWrite[kMaxRequestBytes + 1] = {};

    /** Request-sized Set-Buffer accesses, indexed by bytes 1..8. */
    double setBufferRead[kMaxRequestBytes + 1] = {};
    double setBufferWrite[kMaxRequestBytes + 1] = {};

    /** Row-sized Set-Buffer accesses (write-back latch read, fill). */
    double setBufferReadRow = 0.0;
    double setBufferWriteRow = 0.0;

    /** One Tag-Buffer probe of the configured geometry. */
    double tagCompare = 0.0;
};

/**
 * Energy / latency / area model for one data array plus the WG/WG+RB
 * buffers attached to it.
 */
class EnergyModel
{
  public:
    /**
     * @param geom Array organisation (rows = sets, bytesPerRow = set
     *             size in bytes).
     * @param tech Process constants.
     */
    EnergyModel(ArrayGeometry geom, TechParams tech = TechParams{});

    // --- per-operation energies (J) -------------------------------------

    /** Full row read: precharge + RBL swing + RWL + sense. */
    double rowReadEnergy() const;

    /** Full row write: WBL pair swing + WWL + cell internal nodes. */
    double rowWriteEnergy() const;

    /**
     * Partial write of @p bytes (a 6T or word-granular-WWL write):
     * the word line still spans the row but only the selected columns'
     * bit lines are driven.
     */
    double partialWriteEnergy(std::uint32_t bytes) const;

    /** Read of @p bytes from the Set-Buffer latches. */
    double setBufferReadEnergy(std::uint32_t bytes) const;

    /** Write of @p bytes into the Set-Buffer latches. */
    double setBufferWriteEnergy(std::uint32_t bytes) const;

    /** One Tag-Buffer probe (@p tag_bits wide, @p ways comparators). */
    double tagCompareEnergy(std::uint32_t tag_bits,
                            std::uint32_t ways) const;

    /**
     * Precompute the per-event constants for deferred accounting.
     *
     * @param tag_bits  Tag width of the attached Tag-Buffer probes.
     * @param ways      Comparators per probe.
     * @param row_bytes Row image size (= set bytes) for the row-sized
     *                  Set-Buffer transfers.
     */
    EnergyEventRates eventRates(std::uint32_t tag_bits,
                                std::uint32_t ways,
                                std::uint32_t row_bytes) const;

    // --- latencies (s) ---------------------------------------------------

    /** Row read latency: RWL RC + RBL discharge RC + sense. */
    double rowReadLatency() const;

    /** Row write latency: WWL RC + WBL drive. */
    double rowWriteLatency() const;

    /** Set-Buffer access latency (small latch array, mux). */
    double setBufferLatency() const;

    // --- static power / area ---------------------------------------------

    /** Array leakage power (W). */
    double leakagePower() const;

    /** Data array area (m^2), cells + periphery, for @p cell_type. */
    double dataArrayArea(CellType cell_type) const;

    /** Set-Buffer area (m^2): one row of latches (2x cell footprint). */
    double setBufferArea() const;

    /**
     * Set-Buffer area overhead relative to the 8T data array
     * (the paper's §5.4: < 0.2 % for the 64 KB baseline).
     */
    double setBufferOverheadFraction() const;

    /**
     * Tag-Buffer storage bits: set index + @p ways tags of
     * @p tag_bits each + the Dirty bit (paper: < 150 bits for the
     * baseline with 48-bit physical addresses).
     */
    static std::uint32_t tagBufferBits(std::uint32_t set_index_bits,
                                       std::uint32_t tag_bits,
                                       std::uint32_t ways);

    /** The geometry this model was built for. */
    const ArrayGeometry &geometry() const { return _geom; }

    /** The technology constants in effect. */
    const TechParams &tech() const { return _tech; }

  private:
    /** Columns of one subarray actually cycled by a row operation. */
    double activeColumns() const;

    /** Bit line capacitance seen by one column (F). */
    double bitlineCap() const;

    /** Word line capacitance across the active columns (F). */
    double wordlineCap() const;

    ArrayGeometry _geom;
    TechParams _tech;
};

} // namespace c8t::sram

#endif // C8T_SRAM_ENERGY_HH
