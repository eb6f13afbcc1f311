/**
 * @file
 * Outside-in tracing primitives: a cheap cycle clock, an in-memory
 * span log, and a Workload decorator that times CoreStream::next.
 * Spans are recorded around calls into the simulator's public API;
 * nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace perfbench
{

/** Raw clock ticks: the TSC where there is one (a few ns per read,
 *  cheap enough to bracket every simulation event), else steady_clock
 *  nanoseconds.  Convert with Clock::ns(). */
struct Clock
{
    static std::uint64_t
    now()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
#endif
    }

    /** Measure the tick rate against steady_clock (about 20 ms). */
    static void calibrate();

    /** Nanoseconds per tick (1 before calibrate() on TSC hosts). */
    static double nsPerTick();

    static double ns(std::uint64_t ticks) { return ticks * nsPerTick(); }
};

/** One timed interval at a layer boundary. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char *name = "";
    std::uint64_t start = 0, end = 0; ///< Clock ticks
    std::string label;                ///< scenario key or request kind
    std::vector<std::pair<const char *, double>> attrs;
};

/**
 * Spans kept in memory until the benchmark ends.  Each worker thread
 * appends to its own Buffer; buffers are merged when written out.
 */
class SpanLog
{
  public:
    class Buffer
    {
      public:
        explicit Buffer(SpanLog &log) : log_(log) {}

        /** Open a span; returns its index in this buffer. */
        std::size_t open(const char *name, std::uint64_t parent,
                         std::string label = {});
        void close(std::size_t idx) { spans_[idx].end = Clock::now(); }
        Span &at(std::size_t idx) { return spans_[idx]; }
        std::vector<Span> &spans() { return spans_; }

      private:
        SpanLog &log_;
        std::vector<Span> spans_;
    };

    std::unique_ptr<Buffer> buffer() { return std::make_unique<Buffer>(*this); }

    /** Hand a finished buffer's spans to the log. */
    void absorb(Buffer &b);

    std::uint64_t nextId();

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::mutex mu_;
    std::uint64_t next_ = 1;
    std::vector<Span> spans_;
};

/** Pulls and time spent in CoreStream::next for one scenario. */
struct NextCounter
{
    std::uint64_t pulls = 0;
    std::uint64_t ticks = 0;
};

/**
 * Decorator over a Workload: forwards every query and wraps each
 * per-core stream so that each next() is counted and timed into
 * @p counter.  The wrapped stream forwards the timed and untimed
 * next() variants to their exact counterparts, so the reference
 * stream the cores see is unchanged.
 */
class TimedWorkload : public refrint::Workload
{
  public:
    TimedWorkload(const refrint::Workload &inner, NextCounter &counter)
        : inner_(inner), counter_(counter)
    {
    }

    const char *name() const override { return inner_.name(); }
    int paperClass() const override { return inner_.paperClass(); }
    std::uint32_t codeLines() const override { return inner_.codeLines(); }
    std::string spec() const override { return inner_.spec(); }
    bool
    footprint(refrint::WorkloadFootprint &f) const override
    {
        return inner_.footprint(f);
    }

    std::unique_ptr<refrint::CoreStream>
    makeStream(refrint::CoreId core, std::uint32_t numCores,
               std::uint64_t seed) const override;

  private:
    const refrint::Workload &inner_;
    NextCounter &counter_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
