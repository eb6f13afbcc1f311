#include "net/torus.hh"

namespace refrint
{

TorusNetwork::TorusNetwork(std::uint32_t dim, Tick hopLatency,
                           Tick dataSerial)
    : dim_(dim), hopLatency_(hopLatency), dataSerial_(dataSerial)
{
    panicIf(dim == 0, "torus dimension must be positive");
    const std::uint32_t n = numNodes();
    hopTable_.resize(static_cast<std::size_t>(n) * n);
    for (std::uint32_t src = 0; src < n; ++src) {
        const std::uint32_t sx = src % dim_, sy = src / dim_;
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            const std::uint32_t dx = dst % dim_, dy = dst / dim_;
            hopTable_[src * n + dst] = static_cast<std::uint8_t>(
                axisHops(sx, dx) + axisHops(sy, dy));
        }
    }
}

Tick
TorusNetwork::latencyOf(std::uint32_t src, std::uint32_t dst,
                        MsgClass cls) const
{
    const std::uint32_t h = hops(src, dst);
    Tick lat = static_cast<Tick>(h) * hopLatency_;
    if (cls == MsgClass::Data)
        lat += dataSerial_;
    return lat;
}

} // namespace refrint
