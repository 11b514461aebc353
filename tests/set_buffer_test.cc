/**
 * @file
 * Unit tests for the Set-Buffer, including the silent-store comparator
 * semantics.
 */

#include <gtest/gtest.h>

#include "core/set_buffer.hh"

namespace
{

using namespace c8t::core;
using c8t::sram::RowData;

RowData
patternRow(std::uint32_t bytes, std::uint8_t seed)
{
    RowData r(bytes);
    for (std::uint32_t i = 0; i < bytes; ++i)
        r[i] = static_cast<std::uint8_t>(seed + i);
    return r;
}

TEST(SetBuffer, FillThenRowMatches)
{
    SetBuffer sb(1, 128);
    const RowData row = patternRow(128, 3);
    sb.fill(0, row);
    EXPECT_EQ(sb.row(0), row);
    EXPECT_EQ(sb.fills(), 1u);
}

TEST(SetBuffer, UpdateChangesBytesAndReportsChange)
{
    SetBuffer sb(1, 128);
    sb.fill(0, patternRow(128, 0));
    const std::uint8_t data[4] = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_TRUE(sb.updateBytes(0, 10, data, 4));
    EXPECT_EQ(sb.row(0)[10], 0xde);
    EXPECT_EQ(sb.row(0)[13], 0xef);
    EXPECT_EQ(sb.row(0)[9], 9);  // neighbours untouched
    EXPECT_EQ(sb.row(0)[14], 14);
}

TEST(SetBuffer, SilentUpdateDetected)
{
    // Writing the value already present must report "not changed" —
    // the comparator that makes the Dirty-bit optimisation work.
    SetBuffer sb(1, 128);
    sb.fill(0, patternRow(128, 0));
    const std::uint8_t same[4] = {10, 11, 12, 13};
    EXPECT_FALSE(sb.updateBytes(0, 10, same, 4));
    EXPECT_EQ(sb.silentUpdates(), 1u);
    EXPECT_EQ(sb.updates(), 1u);
}

TEST(SetBuffer, PartialMatchIsNotSilent)
{
    SetBuffer sb(1, 128);
    sb.fill(0, patternRow(128, 0));
    const std::uint8_t data[4] = {10, 11, 99, 13}; // one byte differs
    EXPECT_TRUE(sb.updateBytes(0, 10, data, 4));
    EXPECT_EQ(sb.silentUpdates(), 0u);
}

TEST(SetBuffer, ReadBytes)
{
    SetBuffer sb(1, 128);
    sb.fill(0, patternRow(128, 5));
    const c8t::sram::RowView out = sb.readRowRef(0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[32 + i], 5 + 32 + i);
    EXPECT_EQ(sb.reads(), 1u);
}

TEST(SetBuffer, MultipleEntriesIndependent)
{
    SetBuffer sb(2, 64);
    sb.fill(0, patternRow(64, 1));
    sb.fill(1, patternRow(64, 2));
    EXPECT_EQ(sb.row(0)[0], 1);
    EXPECT_EQ(sb.row(1)[0], 2);

    const std::uint8_t v = 0xff;
    sb.updateBytes(0, 0, &v, 1);
    EXPECT_EQ(sb.row(0)[0], 0xff);
    EXPECT_EQ(sb.row(1)[0], 2);
}

TEST(SetBuffer, RefillOverwritesWholeEntry)
{
    SetBuffer sb(1, 64);
    sb.fill(0, patternRow(64, 1));
    sb.fill(0, patternRow(64, 9));
    EXPECT_EQ(sb.row(0), patternRow(64, 9));
    EXPECT_EQ(sb.fills(), 2u);
}

TEST(SetBuffer, Accessors)
{
    SetBuffer sb(4, 256);
    EXPECT_EQ(sb.entries(), 4u);
    EXPECT_EQ(sb.rowBytes(), 256u);
}

TEST(SetBuffer, ResetCountersKeepsContents)
{
    SetBuffer sb(1, 64);
    sb.fill(0, patternRow(64, 7));
    sb.readRowRef(0);
    sb.resetCounters();
    EXPECT_EQ(sb.fills(), 0u);
    EXPECT_EQ(sb.reads(), 0u);
    EXPECT_EQ(sb.row(0), patternRow(64, 7));
}

} // anonymous namespace
