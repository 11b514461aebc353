/**
 * @file
 * The write-scheme taxonomy: the paper's two proposals plus every
 * baseline the paper discusses.
 */

#ifndef C8T_CORE_WRITE_SCHEME_HH
#define C8T_CORE_WRITE_SCHEME_HH

#include <cstdint>
#include <string>
#include <vector>

namespace c8t::core
{

/**
 * How the L1 data array services writes.
 */
enum class WriteScheme : std::uint8_t {
    /**
     * Conventional 6T array: partial writes are safe (half-selected
     * cells tolerate the read-like bias), one array access per request.
     * The no-column-selection-problem reference point.
     */
    SixTDirect,

    /**
     * 8T array with Morita et al. read-modify-write: every write costs
     * a row read plus a row write and occupies both ports.
     */
    Rmw,

    /**
     * Park et al. local RMW: hierarchical read bit lines confine the
     * RMW's read phase to one sub-array, freeing the global read port;
     * access counts equal RMW, timing improves.
     */
    LocalRmw,

    /**
     * Chang et al. word-granular write word lines on a non-interleaved
     * array: partial writes are safe again (one access per write) at
     * the cost of multi-bit ECC and larger WWL drivers.
     */
    WordGranular,

    /**
     * This paper's Write Grouping: Set-Buffer + Tag-Buffer group
     * same-set writes into one RMW and elide silent groups.
     */
    WriteGrouping,

    /**
     * Write Grouping + Read Bypassing: additionally serves Tag-Buffer
     * read hits from the Set-Buffer.
     */
    WriteGroupingReadBypass,
};

/** Human readable scheme name ("6T", "RMW", "WG", "WG+RB", ...). */
const char *toString(WriteScheme s);

/** Parse a scheme name as printed by toString().
 *  @throws std::invalid_argument on unknown names. */
WriteScheme parseWriteScheme(const std::string &name);

/** The paper's voltage story: the 6T direct-write baseline against the
 *  8T RMW, WG and WG+RB. The default scheme set of a Vdd sweep and of
 *  an explore. */
const std::vector<WriteScheme> &voltageStorySchemes();

/** Array access latencies (cycles) and the L1 miss penalty. */
struct LatencyParams
{
    /** Full row read (precharge + sense). */
    std::uint32_t rowReadCycles = 2;

    /** Full row write. */
    std::uint32_t rowWriteCycles = 2;

    /** Set-Buffer access (paper §5.5: less than the cache latency). */
    std::uint32_t setBufferCycles = 1;

    /** Demand miss penalty (next level round trip). */
    std::uint32_t missPenaltyCycles = 40;

    bool operator==(const LatencyParams &other) const = default;
};

} // namespace c8t::core

#endif // C8T_CORE_WRITE_SCHEME_HH
