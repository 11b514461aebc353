/**
 * @file
 * Static per-scheme cost traits.
 *
 * A compact, declarative statement of what each write scheme costs per
 * request class. The controller implements the dynamics; this table is
 * the single place where the *static* properties live, and the docs,
 * area bench and tests all read from it so prose and code cannot
 * drift apart.
 */

#ifndef C8T_CORE_POLICIES_HH
#define C8T_CORE_POLICIES_HH

#include <cstdint>

#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "sram/array.hh"
#include "sram/cell.hh"
#include "sram/ports.hh"

namespace c8t::core
{

/** Static cost/requirement traits of one write scheme. */
struct SchemeTraits
{
    /** Row reads per (non-grouped) demand write. */
    std::uint32_t rowReadsPerWrite = 0;

    /** Row writes per (non-grouped) demand write. */
    std::uint32_t rowWritesPerWrite = 1;

    /** Ports a demand write occupies. */
    sram::PortUse writePortUse = sram::PortUse::WritePort;

    /** Ports a write-back from the Set-Buffer occupies (grouping
     *  schemes only; the row image is already latched so no read
     *  phase is needed). */
    sram::PortUse writebackPortUse = sram::PortUse::WritePort;

    /** The scheme needs the Set-Buffer / Tag-Buffer pair. */
    bool needsGroupingBuffer = false;

    /** The scheme can serve reads from the Set-Buffer. */
    bool canBypassReads = false;

    /** The array must be non-interleaved (word-granular WWL). */
    bool requiresNonInterleaved = false;

    /** The array needs multi-bit-correcting ECC (no interleaving). */
    bool requiresMultiBitEcc = false;

    /** The cell type the scheme is defined for. */
    bool requiresEightT = true;
};

/** Look up the traits of @p s. */
SchemeTraits schemeTraits(WriteScheme s);

/** The cell flavour @p s's data array is built from (6T only for the
 *  direct-write baseline; everything else needs 8T). */
sram::CellType cellOf(WriteScheme s);

/** The data array a controller running @p s builds on @p cache: one
 *  row per set, bit-interleaved @p degree ways unless the scheme needs
 *  a non-interleaved array. */
sram::ArrayGeometry dataArrayGeometry(const mem::CacheConfig &cache,
                                      WriteScheme s, std::uint32_t degree);

} // namespace c8t::core

#endif // C8T_CORE_POLICIES_HH
