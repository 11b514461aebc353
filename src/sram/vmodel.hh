/**
 * @file
 * Supply-voltage operating-point model (DESIGN.md §10).
 *
 * The paper's premise is that 8T cells *permit aggressive voltage
 * scaling* that 6T cells cannot survive; everything before this module
 * simulated a single implicit nominal Vdd. VddModel maps a supply
 * voltage to the three quantities the rest of the stack needs:
 *
 *  1. Energy: every per-event energy constant (sram::EnergyEventRates)
 *     is switched capacitance times V^2, so dynamic energy scales as
 *     (vdd / nominal)^2; static power follows a leakage term that
 *     decays exponentially as the supply drops (DIBL-dominated
 *     subthreshold leakage).
 *
 *  2. Reliability: per-cell read/write failure probability, separately
 *     for 6T and 8T cells, through the analytic stability model in
 *     sram/cell.hh. The 8T read curve is flat (read margin == hold
 *     margin, the decoupled read stack) while the 6T read margin
 *     collapses first — exactly the paper's stability argument. The
 *     per-cell probabilities feed the Monte-Carlo fault maps in
 *     sram/fault_injection.hh and, post-SEC-DED, the per-scheme
 *     min-operational-Vdd search in core::VddSweep.
 *
 *  3. Latency: an alpha-power-law delay factor
 *     delay(v) = v / (v - vth)^alpha (normalised to 1.0 at nominal)
 *     that the controller converts into extra stall cycles by scaling
 *     its array access latencies (ceil), while the system clock keeps
 *     its nominal period.
 *
 * The nominal point is an exact identity: energyScale, leakageScale
 * and delayFactor are all exactly 1.0 at vdd == nominalVdd, and the
 * controller treats a model attached at nominal as detached, so
 * nominal-Vdd runs are bit-identical to runs with no model at all
 * (pinned by tests/vdd_sweep_test.cc).
 */

#ifndef C8T_SRAM_VMODEL_HH
#define C8T_SRAM_VMODEL_HH

#include <cstdint>
#include <vector>

#include "sram/cell.hh"
#include "sram/energy.hh"

namespace c8t::sram
{

/** Constants of the voltage model (representative 45 nm values). */
struct VddModelParams
{
    /** Nominal supply (V); the voltage every energy/latency constant
     *  elsewhere in the simulator is calibrated at. */
    double nominalVdd = 1.0;

    /** Alpha-power-law exponent (velocity-saturated short channel:
     *  1 < alpha < 2; Sakurai-Newton's classic fit uses ~1.3). */
    double alpha = 1.3;

    /** Leakage decay voltage (V): leakage scales as
     *  exp((vdd - nominal) / leakDecayV). 0.12 V per e-fold is a
     *  DIBL-dominated 45 nm-class figure. */
    double leakDecayV = 0.12;

    /** System clock at nominal (GHz); fixed across the sweep — the
     *  array slows down relative to it (extra stall cycles). */
    double clockGhz = 2.0;

    /** Cell stability constants (shared with sram/cell.hh). */
    StabilityParams stability;

    /** @throws std::invalid_argument on non-physical constants. */
    void validate() const;

    bool operator==(const VddModelParams &other) const = default;
};

/** One evaluated operating point for a specific cell type. */
struct VddPoint
{
    /** Supply voltage (V). */
    double vdd = 1.0;

    /** Dynamic-energy multiplier (vdd / nominal)^2. */
    double energyScale = 1.0;

    /** Leakage-power multiplier exp((vdd - nominal) / leakDecayV). */
    double leakageScale = 1.0;

    /** Array delay multiplier (alpha-power law, 1.0 at nominal). */
    double delayFactor = 1.0;

    /** Per-cell read failure probability at this point. */
    double pfailRead = 0.0;

    /** Per-cell write failure probability at this point. */
    double pfailWrite = 0.0;

    /** Worst-case per-cell failure probability (hold/read/write) —
     *  the rate the Monte-Carlo fault maps draw from. */
    double pfailCell = 0.0;

    bool operator==(const VddPoint &other) const = default;
};

/**
 * The supply-voltage model. A small value type (constants only) so it
 * can be copied into ControllerConfig / SweepJob and shipped across
 * sweep worker threads without shared state.
 */
class VddModel
{
  public:
    /** @throws std::invalid_argument via VddModelParams::validate(). */
    explicit VddModel(VddModelParams params = VddModelParams{});

    /** The constants in effect. */
    const VddModelParams &params() const { return _p; }

    /** Full operating point for @p cell at @p vdd. */
    VddPoint at(double vdd, CellType cell) const;

    /** Dynamic energy multiplier (vdd / nominal)^2; exactly 1.0 at
     *  nominal. */
    double energyScale(double vdd) const;

    /** Leakage power multiplier; exactly 1.0 at nominal. */
    double leakageScale(double vdd) const;

    /**
     * Alpha-power-law delay multiplier d(vdd) / d(nominal) with
     * d(v) = v / (v - vth)^alpha; exactly 1.0 at nominal. The
     * overdrive is clamped at 20 mV so deep-subthreshold points
     * saturate instead of diverging.
     */
    double delayFactor(double vdd) const;

    /**
     * Array latency in cycles at @p vdd: ceil(cycles * delayFactor).
     * The difference against @p cycles is the extra stall the
     * controller pays per operation.
     */
    std::uint32_t scaleCycles(std::uint32_t cycles, double vdd) const;

    /**
     * Scale every entry of @p nominal by energyScale(vdd). At nominal
     * the multiplier is exactly 1.0, so the returned rates are
     * bit-identical to the input.
     */
    EnergyEventRates scaleRates(const EnergyEventRates &nominal,
                                double vdd) const;

    /** System clock period (s) — fixed across the sweep. */
    double clockPeriod() const { return 1e-9 / _p.clockGhz; }

    /**
     * Analytic post-SEC-DED word failure probability at @p vdd: the
     * probability that two or more of @p word_bits cells fail, i.e.
     * 1 - (1-p)^n - n*p*(1-p)^(n-1) with p the worst-case per-cell
     * rate. The Monte-Carlo fault maps converge to this.
     */
    double wordFailureProbability(double vdd, CellType cell,
                                  std::uint32_t word_bits = 72) const;

    /**
     * The default sweep grid: nominal (1.0 V) down to 0.50 V in 50 mV
     * steps, descending — 11 operating points.
     */
    static std::vector<double> defaultGrid();

  private:
    VddModelParams _p;
};

} // namespace c8t::sram

#endif // C8T_SRAM_VMODEL_HH
