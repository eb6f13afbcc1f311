/**
 * @file
 * Unit tests for the torus network model: wrap-around distances,
 * message accounting, latency composition.
 */

#include <gtest/gtest.h>

#include "net/torus.hh"

namespace refrint::test
{

namespace
{
struct NetFixture
{
    TorusNetwork net{4, 2, 4}; // 4x4, 2 cyc/hop, 4 cyc data tax
};
} // namespace

TEST(Torus, SelfDistanceIsZero)
{
    NetFixture f;
    for (std::uint32_t n = 0; n < 16; ++n)
        EXPECT_EQ(f.net.hops(n, n), 0u);
}

TEST(Torus, NeighbourDistance)
{
    NetFixture f;
    EXPECT_EQ(f.net.hops(0, 1), 1u);  // +x
    EXPECT_EQ(f.net.hops(0, 4), 1u);  // +y
    EXPECT_EQ(f.net.hops(5, 6), 1u);
}

TEST(Torus, WrapAroundShortcut)
{
    NetFixture f;
    // Node 0 (0,0) to node 3 (3,0): wrap gives 1 hop, not 3.
    EXPECT_EQ(f.net.hops(0, 3), 1u);
    // (0,0) to (0,3): wrap in y.
    EXPECT_EQ(f.net.hops(0, 12), 1u);
    // Opposite corner (2,2) from (0,0) is the diameter: 2+2 = 4 hops.
    EXPECT_EQ(f.net.hops(0, 10), 4u);
}

TEST(Torus, DistanceIsSymmetric)
{
    NetFixture f;
    for (std::uint32_t a = 0; a < 16; ++a) {
        for (std::uint32_t b = 0; b < 16; ++b)
            EXPECT_EQ(f.net.hops(a, b), f.net.hops(b, a));
    }
}

TEST(Torus, DiameterBound)
{
    NetFixture f;
    for (std::uint32_t a = 0; a < 16; ++a) {
        for (std::uint32_t b = 0; b < 16; ++b)
            EXPECT_LE(f.net.hops(a, b), 4u); // 2 * floor(4/2)
    }
}

TEST(Torus, ControlLatencyIsHopsTimesHopLatency)
{
    NetFixture f;
    EXPECT_EQ(f.net.latencyOf(0, 10, MsgClass::Control), 8u);
    EXPECT_EQ(f.net.latencyOf(0, 0, MsgClass::Control), 0u);
}

TEST(Torus, DataPaysSerialization)
{
    NetFixture f;
    EXPECT_EQ(f.net.latencyOf(0, 1, MsgClass::Data), 2u + 4u);
    // Even a local (0-hop) data transfer pays the serialization tax.
    EXPECT_EQ(f.net.latencyOf(3, 3, MsgClass::Data), 4u);
}

TEST(Torus, TraverseAccumulatesCounters)
{
    NetFixture f;
    f.net.traverse(0, 10, MsgClass::Control); // 4 hops
    f.net.traverse(0, 1, MsgClass::Data);     // 1 hop
    EXPECT_EQ(f.net.totalMessages(), 2u);
    EXPECT_EQ(f.net.dataMessages(), 1u);
    EXPECT_EQ(f.net.totalHops(), 5u);
}

TEST(Torus, TraverseMatchesLatencyOf)
{
    NetFixture f;
    for (std::uint32_t a : {0u, 3u, 9u, 15u}) {
        for (std::uint32_t b : {0u, 5u, 12u}) {
            EXPECT_EQ(f.net.traverse(a, b, MsgClass::Data),
                      f.net.latencyOf(a, b, MsgClass::Data));
        }
    }
}

TEST(Torus, TwoByTwoTorus)
{
    TorusNetwork net(2, 1, 0);
    EXPECT_EQ(net.numNodes(), 4u);
    EXPECT_EQ(net.hops(0, 3), 2u);
    EXPECT_EQ(net.hops(0, 1), 1u);
}

} // namespace refrint::test
