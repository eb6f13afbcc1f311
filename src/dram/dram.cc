#include "dram/dram.hh"

namespace refrint
{

Dram::Dram(Tick accessLatency, Tick minGap)
    : accessLatency_(accessLatency), minGap_(minGap)
{
}

Tick
Dram::channelAdmit(Tick now)
{
    Tick start = now;
    if (minGap_ > 0) {
        if (channelFree_ > start)
            start = channelFree_;
        channelFree_ = start + minGap_;
    }
    return start;
}

Tick
Dram::read(Tick now)
{
    ++reads_;
    return channelAdmit(now) + accessLatency_;
}

Tick
Dram::write(Tick now)
{
    ++writes_;
    return channelAdmit(now);
}

void
Dram::accountUntimedWrite()
{
    ++writes_;
}

} // namespace refrint
