#include "layers.hh"

#include <chrono>
#include <thread>

#include "api/json.hh"

namespace perfbench
{

namespace
{

double gNsPerTick = 1.0;

class TimedStream : public refrint::CoreStream
{
  public:
    TimedStream(std::unique_ptr<refrint::CoreStream> inner,
                NextCounter &counter)
        : inner_(std::move(inner)), counter_(counter)
    {
    }

    refrint::MemRef
    next() override
    {
        const std::uint64_t t0 = Clock::now();
        const refrint::MemRef r = inner_->next();
        counter_.ticks += Clock::now() - t0;
        ++counter_.pulls;
        return r;
    }

    refrint::MemRef
    next(refrint::Tick now) override
    {
        const std::uint64_t t0 = Clock::now();
        const refrint::MemRef r = inner_->next(now);
        counter_.ticks += Clock::now() - t0;
        ++counter_.pulls;
        return r;
    }

    const std::vector<refrint::Tick> *
    requestLatencies() const override
    {
        return inner_->requestLatencies();
    }

  private:
    std::unique_ptr<refrint::CoreStream> inner_;
    NextCounter &counter_;
};

} // namespace

void
Clock::calibrate()
{
#if defined(__x86_64__) || defined(__i386__)
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t t1 = now();
    const auto w1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(w1 - w0).count();
    if (t1 > t0)
        gNsPerTick = ns / static_cast<double>(t1 - t0);
#endif
}

double
Clock::nsPerTick()
{
    return gNsPerTick;
}

std::size_t
SpanLog::Buffer::open(const char *name, std::uint64_t parent,
                      std::string label)
{
    Span s;
    s.id = log_.nextId();
    s.parent = parent;
    s.name = name;
    s.label = std::move(label);
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
}

std::uint64_t
SpanLog::nextId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_++;
}

void
SpanLog::absorb(Buffer &b)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Span &s : b.spans())
        spans_.push_back(std::move(s));
    b.spans().clear();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : spans_) {
        refrint::JsonValue o = refrint::JsonValue::object();
        o.set("id", refrint::JsonValue::number(static_cast<double>(s.id)));
        o.set("parent",
              refrint::JsonValue::number(static_cast<double>(s.parent)));
        o.set("name", refrint::JsonValue::string(s.name));
        o.set("start_ns", refrint::JsonValue::number(Clock::ns(s.start)));
        o.set("dur_ns",
              refrint::JsonValue::number(Clock::ns(s.end - s.start)));
        if (!s.label.empty())
            o.set("label", refrint::JsonValue::string(s.label));
        for (const auto &a : s.attrs)
            o.set(a.first, refrint::JsonValue::number(a.second));
        std::fprintf(f, "%s\n", o.dump(0).c_str());
    }
    return std::fclose(f) == 0;
}

std::unique_ptr<refrint::CoreStream>
TimedWorkload::makeStream(refrint::CoreId core, std::uint32_t numCores,
                          std::uint64_t seed) const
{
    return std::make_unique<TimedStream>(
        inner_.makeStream(core, numCores, seed), counter_);
}

} // namespace perfbench
