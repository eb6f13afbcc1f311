/**
 * @file
 * 4x4 torus on-chip network model (Table 5.1).
 *
 * The evaluated CMP places one core + one L3 bank at every vertex of a
 * k x k torus.  L3 bank homes are a static address hash.  We model the
 * network as a latency calculator (dimension-order routing over the
 * wrap-around mesh) plus message/hop counters that feed the energy model.
 * Link contention is not modelled; the paper's network is far from
 * saturation for these workloads and the refresh policies do not change
 * that materially.
 */

#ifndef REFRINT_NET_TORUS_HH
#define REFRINT_NET_TORUS_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace refrint
{

/** Message classes used for accounting and latency calculation. */
enum class MsgClass : std::uint8_t
{
    Control = 0, ///< requests, invalidations, acks (8B)
    Data,        ///< full line transfers (64B + header)
};

class TorusNetwork
{
  public:
    /**
     * @param dim          Torus dimension k (the paper uses 4).
     * @param hopLatency   Cycles per router+link traversal.
     * @param dataSerial   Extra serialization cycles for a data message.
     */
    TorusNetwork(std::uint32_t dim, Tick hopLatency, Tick dataSerial);

    std::uint32_t dim() const { return dim_; }
    std::uint32_t numNodes() const { return dim_ * dim_; }

    /** Minimal wrap-around hop distance along one dimension. */
    std::uint32_t
    axisHops(std::uint32_t a, std::uint32_t b) const
    {
        std::uint32_t d = a > b ? a - b : b - a;
        return d <= dim_ / 2 ? d : dim_ - d;
    }

    /** Dimension-order hop count between nodes @p src and @p dst.
     *  Table lookup: traverse() runs several times per memory access
     *  and the divide/modulo coordinate math is too slow there. */
    std::uint32_t
    hops(std::uint32_t src, std::uint32_t dst) const
    {
        panicIf(src >= numNodes() || dst >= numNodes(),
                "node out of range");
        return hopTable_[src * numNodes() + dst];
    }

    /**
     * Account for one message and return its traversal latency.
     * Zero-hop (local bank) messages still pay the network-interface
     * serialization for data but no hop latency.
     */
    Tick
    traverse(std::uint32_t src, std::uint32_t dst, MsgClass cls)
    {
        const std::uint32_t h = hops(src, dst);
        if (cls == MsgClass::Data)
            ++dataMsgs_;
        else
            ++ctrlMsgs_;
        hops_ += h;
        Tick lat = static_cast<Tick>(h) * hopLatency_;
        if (cls == MsgClass::Data)
            lat += dataSerial_;
        return lat;
    }

    /** Latency without accounting (lookahead paths, tests). */
    Tick latencyOf(std::uint32_t src, std::uint32_t dst,
                   MsgClass cls) const;

    std::uint64_t totalHops() const { return hops_; }
    std::uint64_t totalMessages() const { return ctrlMsgs_ + dataMsgs_; }
    std::uint64_t dataMessages() const { return dataMsgs_; }
    std::uint64_t controlMessages() const { return ctrlMsgs_; }

  private:
    std::uint32_t dim_;
    Tick hopLatency_;
    Tick dataSerial_;

    /** Precomputed dimension-order hop counts, numNodes x numNodes. */
    std::vector<std::uint8_t> hopTable_;

    std::uint64_t ctrlMsgs_ = 0;
    std::uint64_t dataMsgs_ = 0;
    std::uint64_t hops_ = 0;
};

} // namespace refrint

#endif // REFRINT_NET_TORUS_HH
