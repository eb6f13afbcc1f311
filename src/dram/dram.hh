/**
 * @file
 * Off-chip DRAM model.
 *
 * The paper models main memory as a fixed 40 ns access (Table 5.1) and
 * charges a per-access energy so that policies that shed dirty/clean
 * lines early pay for the extra off-chip traffic (§6).  We keep the same
 * abstraction: fixed latency, read/write counters, optional bandwidth
 * gating through a single channel queue.
 */

#ifndef REFRINT_DRAM_DRAM_HH
#define REFRINT_DRAM_DRAM_HH

#include <cstdint>

#include "common/types.hh"

namespace refrint
{

class Dram
{
  public:
    /**
     * @param accessLatency Cycles for one line access (paper: 40).
     * @param minGap        Minimum cycles between successive accesses on
     *                      the channel (0 disables bandwidth modelling).
     */
    Dram(Tick accessLatency, Tick minGap);

    /**
     * Perform a read of one line at @p now.
     * @return the tick at which data is available.
     */
    Tick read(Tick now);

    /**
     * Perform a write of one line at @p now.
     * @return the tick at which the channel accepted the write.  Writes
     * are posted: the requester does not wait for the full latency.
     */
    Tick write(Tick now);

    /** Account a write that happens outside the timed window (the
     *  end-of-run dirty flush, §6: "at the end of the simulation all
     *  dirty data will be written back"). */
    void accountUntimedWrite();

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t accesses() const { return reads() + writes(); }

    Tick accessLatency() const { return accessLatency_; }

  private:
    /** Advance the channel and return the start tick of this access. */
    Tick channelAdmit(Tick now);

    Tick accessLatency_;
    Tick minGap_;
    Tick channelFree_ = 0;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace refrint

#endif // REFRINT_DRAM_DRAM_HH
