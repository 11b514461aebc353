/**
 * @file
 * Scheme traits table.
 */

#include "core/policies.hh"

namespace c8t::core
{

SchemeTraits
schemeTraits(WriteScheme s)
{
    SchemeTraits t;
    switch (s) {
      case WriteScheme::SixTDirect:
        t.rowReadsPerWrite = 0;
        t.rowWritesPerWrite = 1;
        t.writePortUse = sram::PortUse::WritePort;
        t.requiresEightT = false;
        break;

      case WriteScheme::Rmw:
        t.rowReadsPerWrite = 1;
        t.rowWritesPerWrite = 1;
        // The RMW read phase occupies the read port too (§2).
        t.writePortUse = sram::PortUse::BothPorts;
        break;

      case WriteScheme::LocalRmw:
        t.rowReadsPerWrite = 1;
        t.rowWritesPerWrite = 1;
        // Park et al.: the read phase is confined to the sub-array's
        // local RBL segment, so the global read port stays free.
        t.writePortUse = sram::PortUse::WritePort;
        break;

      case WriteScheme::WordGranular:
        t.rowReadsPerWrite = 0;
        t.rowWritesPerWrite = 1;
        t.writePortUse = sram::PortUse::WritePort;
        t.requiresNonInterleaved = true;
        t.requiresMultiBitEcc = true;
        break;

      case WriteScheme::WriteGrouping:
        t.rowReadsPerWrite = 1; // once per group, not per write
        t.rowWritesPerWrite = 1;
        t.writePortUse = sram::PortUse::ReadPort; // the group-opening read
        t.needsGroupingBuffer = true;
        break;

      case WriteScheme::WriteGroupingReadBypass:
        t.rowReadsPerWrite = 1;
        t.rowWritesPerWrite = 1;
        t.writePortUse = sram::PortUse::ReadPort;
        t.needsGroupingBuffer = true;
        t.canBypassReads = true;
        break;
    }
    return t;
}

sram::CellType
cellOf(WriteScheme s)
{
    return schemeTraits(s).requiresEightT ? sram::CellType::EightT
                                          : sram::CellType::SixT;
}

sram::ArrayGeometry
dataArrayGeometry(const mem::CacheConfig &cache, WriteScheme s,
                  std::uint32_t degree)
{
    // Only word-granular write word lines make a non-interleaved array
    // safe for partial writes, so the one trait sets both.
    const bool word_granular = schemeTraits(s).requiresNonInterleaved;
    return sram::ArrayGeometry{cache.numSets(), cache.setBytes(),
                               word_granular ? 1u : degree, word_granular};
}

} // namespace c8t::core
