/**
 * @file
 * Unit tests for the write-scheme taxonomy and the static traits table.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/policies.hh"
#include "core/write_scheme.hh"

namespace
{

using namespace c8t::core;

const WriteScheme allSchemes[] = {
    WriteScheme::SixTDirect,   WriteScheme::Rmw,
    WriteScheme::LocalRmw,     WriteScheme::WordGranular,
    WriteScheme::WriteGrouping, WriteScheme::WriteGroupingReadBypass,
};

TEST(WriteScheme, NamesRoundTrip)
{
    for (WriteScheme s : allSchemes)
        EXPECT_EQ(parseWriteScheme(toString(s)), s);
    EXPECT_THROW(parseWriteScheme("bogus"), std::invalid_argument);
}

TEST(WriteScheme, GroupingPredicates)
{
    const auto grouping = [](WriteScheme s) {
        return schemeTraits(s).needsGroupingBuffer;
    };
    EXPECT_TRUE(grouping(WriteScheme::WriteGrouping));
    EXPECT_TRUE(grouping(WriteScheme::WriteGroupingReadBypass));
    EXPECT_FALSE(grouping(WriteScheme::Rmw));
    EXPECT_FALSE(grouping(WriteScheme::SixTDirect));
}

TEST(WriteScheme, RmwPredicates)
{
    const auto rmw = [](WriteScheme s) {
        return schemeTraits(s).rowReadsPerWrite > 0;
    };
    EXPECT_TRUE(rmw(WriteScheme::Rmw));
    EXPECT_TRUE(rmw(WriteScheme::LocalRmw));
    EXPECT_TRUE(rmw(WriteScheme::WriteGrouping));
    EXPECT_FALSE(rmw(WriteScheme::SixTDirect));
    EXPECT_FALSE(rmw(WriteScheme::WordGranular));
}

TEST(WriteScheme, BypassOnlyInWgRb)
{
    for (WriteScheme s : allSchemes) {
        EXPECT_EQ(schemeTraits(s).canBypassReads,
                  s == WriteScheme::WriteGroupingReadBypass);
    }
}

TEST(SchemeTraits, RmwCostsAnExtraReadPerWrite)
{
    const SchemeTraits t = schemeTraits(WriteScheme::Rmw);
    EXPECT_EQ(t.rowReadsPerWrite, 1u);
    EXPECT_EQ(t.rowWritesPerWrite, 1u);
    EXPECT_EQ(t.writePortUse, c8t::sram::PortUse::BothPorts);
}

TEST(SchemeTraits, SixTWritesAreSingleAccess)
{
    const SchemeTraits t = schemeTraits(WriteScheme::SixTDirect);
    EXPECT_EQ(t.rowReadsPerWrite, 0u);
    EXPECT_EQ(t.rowWritesPerWrite, 1u);
    EXPECT_FALSE(t.requiresEightT);
}

TEST(SchemeTraits, LocalRmwFreesTheReadPort)
{
    // Park et al.'s contribution is purely about port availability.
    const SchemeTraits rmw = schemeTraits(WriteScheme::Rmw);
    const SchemeTraits local = schemeTraits(WriteScheme::LocalRmw);
    EXPECT_EQ(local.rowReadsPerWrite, rmw.rowReadsPerWrite);
    EXPECT_EQ(local.writePortUse, c8t::sram::PortUse::WritePort);
}

TEST(SchemeTraits, WordGranularNeedsNonInterleavedAndMultiBitEcc)
{
    const SchemeTraits t = schemeTraits(WriteScheme::WordGranular);
    EXPECT_TRUE(t.requiresNonInterleaved);
    EXPECT_TRUE(t.requiresMultiBitEcc);
    EXPECT_EQ(t.rowReadsPerWrite, 0u);
}

TEST(SchemeTraits, GroupingSchemesNeedBuffers)
{
    for (WriteScheme s : {WriteScheme::WriteGrouping,
                          WriteScheme::WriteGroupingReadBypass}) {
        const SchemeTraits t = schemeTraits(s);
        EXPECT_TRUE(t.needsGroupingBuffer);
        // The write-back carries a latched row image: write port only.
        EXPECT_EQ(t.writebackPortUse, c8t::sram::PortUse::WritePort);
    }
    EXPECT_TRUE(schemeTraits(WriteScheme::WriteGroupingReadBypass)
                    .canBypassReads);
    EXPECT_FALSE(schemeTraits(WriteScheme::WriteGrouping).canBypassReads);
}

TEST(LatencyParams, DefaultsAreConsistent)
{
    const LatencyParams l;
    // The Set-Buffer must be faster than the array (paper §5.5).
    EXPECT_LT(l.setBufferCycles, l.rowReadCycles);
    EXPECT_GT(l.missPenaltyCycles, l.rowReadCycles);
}

} // anonymous namespace
