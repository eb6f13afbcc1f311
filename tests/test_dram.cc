/**
 * @file
 * Unit tests for the DRAM model: latency, posted writes, channel
 * occupancy, untimed flush accounting.
 */

#include <gtest/gtest.h>

#include "dram/dram.hh"

namespace refrint::test
{

TEST(Dram, ReadLatency)
{
    Dram d(40, 0);
    EXPECT_EQ(d.read(100), 140u);
    EXPECT_EQ(d.reads(), 1u);
}

TEST(Dram, WritesArePosted)
{
    Dram d(40, 0);
    EXPECT_EQ(d.write(100), 100u) << "writer does not wait for the array";
    EXPECT_EQ(d.writes(), 1u);
}

TEST(Dram, ChannelGapSerializesBackToBackAccesses)
{
    Dram d(40, 4);
    EXPECT_EQ(d.read(100), 140u);
    // Second access at the same tick waits for the channel.
    EXPECT_EQ(d.read(100), 144u);
    EXPECT_EQ(d.read(100), 148u);
    // After the channel drains, no extra delay.
    EXPECT_EQ(d.read(200), 240u);
}

TEST(Dram, ZeroGapDisablesBandwidthModel)
{
    Dram d(40, 0);
    EXPECT_EQ(d.read(100), 140u);
    EXPECT_EQ(d.read(100), 140u);
}

TEST(Dram, UntimedWritesOnlyCount)
{
    Dram d(40, 4);
    d.accountUntimedWrite();
    d.accountUntimedWrite();
    EXPECT_EQ(d.writes(), 2u);
    // The channel was not occupied by untimed writes.
    EXPECT_EQ(d.read(0), 40u);
}

TEST(Dram, AccessesSumsBoth)
{
    Dram d(40, 0);
    d.read(0);
    d.write(0);
    d.accountUntimedWrite();
    EXPECT_EQ(d.accesses(), 3u);
}

} // namespace refrint::test
