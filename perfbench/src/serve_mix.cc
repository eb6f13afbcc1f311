/**
 * @file
 * serve-mix: a closed loop of 2 clients against an in-process
 * `refrint serve` (1 job, unix socket) over a store pre-filled with
 * the paper grid at small refs.  Each client sends its next request
 * only after the last response ends, on a connection of its own.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "harness/pool.hh"
#include "service/serve.hh"
#include "service/store.hh"

#include "bench.hh"
#include "plans.hh"

namespace perfbench
{

namespace
{

using refrint::ExperimentPlan;
using refrint::RunResult;
using refrint::Session;
using refrint::ShardedStore;

/** Set-ups (store pre-fills) timed back to back. */
constexpr std::size_t kServeSetupReps = 3;

/** Requests per client per round: 10 blocks of 9 warm + 1 cold. */
constexpr std::size_t kRoundPerClient = 100;

struct ServeReq
{
    ReqKind kind = ReqKind::Warm;
    std::size_t slice = 0; ///< app slice of a warm request
    std::string line;      ///< the request, one line
    std::size_t scenarios = 0;
};

struct ServeReply
{
    double ms = 0;
    bool connected = false;
    Response resp;
};

/** Connect to a unix socket, retrying for about 2 s while the server
 *  binds.  -1 on failure. */
int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 40; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
}

/** One request on its own connection: send, read to the terminator,
 *  hang up.  The server answers connections one at a time, so a
 *  client that kept its connection open would starve the other. */
bool
roundTrip(const std::string &sock, const std::string &line, Response &r)
{
    const int fd = connectUnix(sock);
    if (fd < 0)
        return false;
    std::FILE *io = ::fdopen(fd, "r+");
    if (io == nullptr) {
        ::close(fd);
        return false;
    }
    std::fprintf(io, "%s\n", line.c_str());
    std::fflush(io);
    char *buf = nullptr;
    std::size_t cap = 0;
    ssize_t n;
    while ((n = ::getline(&buf, &cap, io)) >= 0)
        if (r.addLine(std::string(buf, static_cast<std::size_t>(n))))
            break;
    std::free(buf);
    std::fclose(io);
    return true;
}

/** Send an {"op":...} request and return its one-line answer. */
std::string
opRequest(const std::string &sock, const char *op)
{
    const int fd = connectUnix(sock);
    if (fd < 0)
        return "";
    std::FILE *io = ::fdopen(fd, "r+");
    if (io == nullptr) {
        ::close(fd);
        return "";
    }
    std::fprintf(io, "{\"op\":\"%s\"}\n", op);
    std::fflush(io);
    char *buf = nullptr;
    std::size_t cap = 0;
    std::string out;
    const ssize_t n = ::getline(&buf, &cap, io);
    if (n > 0)
        out.assign(buf, static_cast<std::size_t>(n));
    std::free(buf);
    std::fclose(io);
    return out;
}

double
jsonField(const std::string &line, const char *key)
{
    refrint::JsonValue doc;
    std::string err;
    if (!refrint::JsonValue::parse(line, doc, err) || !doc.isObject())
        return -1;
    const refrint::JsonValue *v = doc.get(key);
    return v != nullptr && v->isNumber() ? v->asNumber() : -1;
}

/** An in-process `refrint serve` with 1 job on a unix socket. */
class Server
{
  public:
    Server(std::string sock, const std::string &storeDir)
        : sock_(std::move(sock))
    {
        refrint::ServeOptions so;
        so.socketPath = sock_;
        so.storeDir = storeDir;
        so.jobs = 1;
        thread_ = std::thread([this, so]() { rc_ = refrint::runServe(so); });
    }
    ~Server() { stop(); }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Shut down and join; a server that does not answer is drained
     *  by the SIGTERM its own handler turns into a graceful exit. */
    int
    stop()
    {
        if (!thread_.joinable())
            return rc_;
        if (opRequest(sock_, "shutdown").find("\"bye\"") == std::string::npos)
            std::raise(SIGTERM);
        thread_.join();
        return rc_;
    }

  private:
    std::string sock_;
    int rc_ = 0;
    std::thread thread_;
};

/** What one serve-mix run set up. */
struct ServeSetup
{
    std::string dir;
    ExperimentPlan grid;
    std::vector<ExperimentPlan> slices;
    std::vector<std::string> sliceLines, sliceRows; ///< request, answer
    refrint::RunMetrics prefill;
    double paperErr = -1;
};

/** Pre-fill a fresh store with the paper grid at small refs, then
 *  capture each app slice's warm answer from a Session::run. */
ServeSetup
setUpServe(const Args &a, Scratch &scratch, Report &rep)
{
    ServeSetup s;
    s.dir = scratch.fresh("serve-store");
    s.grid = paperGrid(kSmallRefs, a.seed);
    Session session(std::make_unique<ShardedStore>(s.dir), kWorkers);
    Collect rows;
    s.prefill = session.run(s.grid, {&rows}).metrics;
    std::size_t missing = 0;
    for (char h : rows.have)
        missing += h == 0;
    rep.failures.attempt(s.grid.size());
    if (missing > 0)
        rep.failures.fail("no_row", missing);
    s.paperErr = headlineError(rows.norm);
    for (const std::string &app : appsOf(s.grid)) {
        s.slices.push_back(appSlice(s.grid, app));
        s.sliceLines.push_back(requestLine(s.slices.back()));
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *mem = ::open_memstream(&buf, &len);
        refrint::JsonLinesSink sink(mem);
        const refrint::SweepResult r =
            session.run(s.slices.back(), {&sink});
        std::fclose(mem);
        s.sliceRows.emplace_back(buf, len);
        std::free(buf);
        rep.failures.attempt(r.metrics.scenarios);
        if (r.metrics.cacheHits != r.metrics.scenarios)
            rep.failures.fail("warm_simulated",
                              r.metrics.scenarios - r.metrics.cacheHits);
    }
    return s;
}

struct Round
{
    double wall = 0;
    std::size_t requests = 0;
    double coldInstr = 0;
};

/** The closed loop: rounds of kRoundPerClient requests per client. */
class ServeLoop
{
  public:
    ServeLoop(const Args &a, const ServeSetup &s, std::string sock,
              Report &rep)
        : a_(a), s_(s), sock_(std::move(sock)), rep_(rep),
          rng_(a.seed * 0x9E3779B97F4A7C15ull + 29),
          warmPick_(s.slices.size(), a.seed * 0x9E3779B97F4A7C15ull + 31),
          coldPick_(s.slices.size(), a.seed * 0x9E3779B97F4A7C15ull + 37)
    {
    }

    /** One round; with @p log, one span per request. */
    Round
    round(SpanLog *log)
    {
        std::vector<std::vector<ServeReq>> reqs(kClients);
        for (auto &r : reqs)
            r = schedule();
        std::vector<std::vector<ServeReply>> replies(kClients);
        std::vector<std::unique_ptr<SpanLog::Buffer>> bufs(kClients);
        const auto t0 = Clk::now();
        std::vector<std::thread> clients;
        for (unsigned k = 0; k < kClients; ++k) {
            if (log != nullptr)
                bufs[k] = log->buffer();
            clients.emplace_back([&, k]() {
                for (const ServeReq &q : reqs[k]) {
                    ServeReply rep;
                    std::size_t sp = 0;
                    if (bufs[k])
                        sp = bufs[k]->open("request", 0,
                                           q.kind == ReqKind::Warm ? "warm"
                                                                   : "cold");
                    const auto r0 = Clk::now();
                    rep.connected = roundTrip(sock_, q.line, rep.resp);
                    rep.ms = since(r0) * 1e3;
                    if (bufs[k]) {
                        bufs[k]->close(sp);
                        bufs[k]->at(sp).attrs = {
                            {"server_ms", rep.resp.wallSeconds * 1e3},
                            {"overhead_ms",
                             rep.ms - rep.resp.wallSeconds * 1e3},
                            {"queue_depth",
                             static_cast<double>(rep.resp.queueDepth)}};
                    }
                    replies[k].push_back(std::move(rep));
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        Round out;
        out.wall = since(t0);
        for (unsigned k = 0; k < kClients; ++k) {
            if (bufs[k])
                log->absorb(*bufs[k]);
            for (std::size_t i = 0; i < reqs[k].size(); ++i)
                account(reqs[k][i], replies[k][i], out, log != nullptr);
        }
        return out;
    }

    std::vector<double> warmMs, coldMs;
    std::vector<double> overheadMs, queueDepth; ///< traced requests
    std::vector<ExperimentPlan> coldPlans;      ///< every cold request
    double tracedMs[2] = {0, 0}; ///< warm, cold: summed round trips
    double serverMs[2] = {0, 0}; ///< warm, cold: summed server plan time
    std::size_t byteMismatches = 0;

  private:
    std::vector<ServeReq>
    schedule()
    {
        std::vector<ServeReq> out;
        const std::vector<std::string> apps = appsOf(s_.grid);
        for (std::size_t b = 0; b < kRoundPerClient / 10; ++b) {
            const std::size_t coldAt = rng_() % 10;
            for (std::size_t j = 0; j < 10; ++j) {
                ServeReq q;
                if (j == coldAt) {
                    coldPlans.push_back(coldPlan(
                        apps[coldPick_.next()], 16, kSmallRefs,
                        (a_.seed << 24) + 2'000'000 + coldPlans.size()));
                    q.kind = ReqKind::Cold;
                    q.line = requestLine(coldPlans.back());
                    q.scenarios = 1;
                } else {
                    q.slice = warmPick_.next();
                    q.line = s_.sliceLines[q.slice];
                    q.scenarios = s_.slices[q.slice].size();
                }
                out.push_back(std::move(q));
            }
        }
        return out;
    }

    void
    account(const ServeReq &q, const ServeReply &r, Round &out, bool traced)
    {
        Failures &f = rep_.failures;
        f.attempt();
        ++out.requests;
        if (!r.connected) {
            f.fail("dropped_connection");
            return;
        }
        std::string why = classify(q.kind, q.scenarios, r.resp);
        if (why.empty() && q.kind == ReqKind::Warm &&
            r.resp.rowBytes != s_.sliceRows[q.slice]) {
            why = "warm_bytes_differ";
            ++byteMismatches;
        }
        if (!why.empty()) {
            f.fail(why);
            return;
        }
        if (q.kind == ReqKind::Warm) {
            warmMs.push_back(r.ms);
        } else {
            coldMs.push_back(r.ms);
            out.coldInstr += jsonField(r.resp.rowBytes, "instructions");
        }
        if (traced) {
            overheadMs.push_back(r.ms - r.resp.wallSeconds * 1e3);
            queueDepth.push_back(static_cast<double>(r.resp.queueDepth));
            const int k = q.kind == ReqKind::Warm ? 0 : 1;
            tracedMs[k] += r.ms;
            serverMs[k] += r.resp.wallSeconds * 1e3;
        }
    }

    const Args &a_;
    const ServeSetup &s_;
    std::string sock_;
    Report &rep_;
    std::mt19937_64 rng_; ///< where in each block of 10 the cold one sits
    Balanced warmPick_, coldPick_;
};

} // namespace

void
runServeMix(const Args &a, Scratch &scratch, Report &rep)
{
    std::vector<double> setups;
    ServeSetup s;
    for (std::size_t i = 0; i < kServeSetupReps; ++i) {
        const auto t0 = Clk::now();
        s = setUpServe(a, scratch, rep);
        setups.push_back(since(t0));
    }
    rep.note(fmt("store pre-filled with the %zu-run paper grid at %llu "
                 "refs/core; %zu warm plans of %zu scenarios",
                 s.grid.size(), static_cast<unsigned long long>(kSmallRefs),
                 s.slices.size(), s.slices[0].size()));

    const std::string sock = scratch.fresh("serve") + ".sock";
    std::vector<Round> plain, traced;
    SpanLog log;
    ServeLoop loop(a, s, sock, rep);
    std::string stats;
    {
        Server server(sock, s.dir);
        const auto timed = Clk::now();
        const double untracedFor = a.trace != 0 ? a.seconds / 2 : a.seconds;
        for (;;) {
            plain.push_back(loop.round(nullptr));
            const bool enough = a.trace != 0 ||
                                (loop.warmMs.size() >= samplesNeeded(99) &&
                                 loop.coldMs.size() >= samplesNeeded(90));
            if ((since(timed) >= untracedFor && enough && plain.size() >= 2) ||
                since(timed) > 4 * a.seconds + 60)
                break;
        }
        if (a.trace != 0) {
            Clock::calibrate();
            const auto t1 = Clk::now();
            do
                traced.push_back(loop.round(&log));
            while (since(t1) < a.seconds / 2 || traced.size() < 2);
        }
        stats = opRequest(sock, "stats");
        rep.check(server.stop() == 0, "serve shut down cleanly");
    }
    std::string walls;
    for (const Round &r : plain)
        walls += fmt(" %.4f", r.wall);
    rep.note(fmt("rounds of %zu requests: %zu, wall (s):%s",
                 kClients * kRoundPerClient, plain.size(), walls.c_str()));
    rep.check(loop.byteMismatches == 0,
              fmt("warm responses byte-identical to Session::run: %zu differ",
                  loop.byteMismatches));
    rep.check(!stats.empty(), "stats answered");

    // The rows serve-mix itself writes are its cold requests' rows; each
    // must validate clean.  Findings on the pre-filled small-refs grid
    // are a property of the fixture and are reported as
    // validate.violations instead.
    double vs = 0;
    const refrint::ValidateReport v = validateStore(s.dir, vs);
    {
        std::map<std::string, std::size_t> coldKeys;
        for (const ExperimentPlan &p : loop.coldPlans)
            coldKeys[keyOf(p, 0)] = 0;
        std::size_t own = 0;
        std::map<std::string, std::size_t> byCheck;
        for (const refrint::ValidateFinding &f : v.violations) {
            own += coldKeys.count(f.key);
            ++byCheck[f.check];
        }
        rep.check(own == 0, fmt("validate: %zu violations on the %zu cold "
                                "rows",
                                own, coldKeys.size()));
        std::string checks;
        for (const auto &kv : byCheck)
            checks += fmt(" %s=%zu", kv.first.c_str(), kv.second);
        rep.note(fmt("validate over the serve-mix store: %zu rows, %zu "
                     "violations%s",
                     v.rows, v.violations.size(), checks.c_str()));
        std::size_t decayed = 0;
        for (const auto &kv : ShardedStore(s.dir).snapshot())
            decayed += kv.second.decayed != 0;
        rep.check(decayed == 0,
                  fmt("stored rows with decayed hits: %zu", decayed));
    }

    const auto roundMedian = [](const std::vector<Round> &rs,
                                double (*f)(const Round &)) {
        std::vector<double> v;
        for (const Round &r : rs)
            v.push_back(f(r));
        return median(v);
    };
    if (a.trace == 0) {
        rep.metric("wall_s", "s",
                   roundMedian(plain, [](const Round &r) { return r.wall; }));
        rep.metric("setup_s", "s", median(setups));
        rep.metric("sim_minstr_per_s", "Minstr/s",
                   roundMedian(plain, [](const Round &r) {
                       return r.coldInstr / r.wall / 1e6;
                   }));
        rep.metric("peak_rss_mb", "MB", peakRssMb());
        rep.metric("paper_err", "abs", s.paperErr);
        rep.note(fmt("paper_err over the pre-fill grid at %llu refs/core",
                     static_cast<unsigned long long>(kSmallRefs)));
        latencyMetrics(loop.warmMs, loop.coldMs, rep);
        rep.metric("req_per_s", "1/s", roundMedian(plain, [](const Round &r) {
                       return static_cast<double>(r.requests) / r.wall;
                   }));
        rep.metric("ok_frac", "frac", rep.failures.okFraction());
        return;
    }

    // The simulations on serve-mix's path are its cold requests: trace
    // the first few against runOnce.
    ExperimentPlan cold;
    cold.name = "serve-mix-cold";
    for (std::size_t i = 0; i < loop.coldPlans.size() && i < 64; ++i)
        cold.addBaseline(loop.coldPlans[i].scenarios[0]);
    std::vector<RunResult> expect(cold.size());
    refrint::parallelFor(cold.size(), kWorkers, [&](std::size_t i) {
        const refrint::Scenario &sc = cold.scenarios[i];
        const refrint::MachineConfig cfg = sc.machine(cold.energy);
        expect[i] = refrint::runOnce(cfg, sc.resolveWorkload(), sc.sim,
                                     cold.energy);
        refrint::reconstructEnergyMatrix(
            expect[i].energy, cold.energy, cfg, expect[i].execTicks,
            static_cast<double>(expect[i].counts.l3Refreshes));
    });
    LayerInputs in;
    const TracedPlan tp =
        traceAndCompare(cold, expect, scratch.fresh("traced"), log, rep);
    in.pool = s.prefill;
    in.storeOpenSeconds = storeOpenSeconds(s.dir, s.grid.size(), rep);
    in.validate = v;
    in.validateSeconds = vs;
    in.planLine = s.sliceLines[0];
    layerMetrics(a.workload, tp, in, rep);
    // Where a request's time goes, from the request spans: the server's
    // plan run (store lookups, row rebuild, JSONL encoding, the cold
    // simulations) and everything outside it (framing, sockets, waiting
    // behind the other client).
    const double allMs = loop.tracedMs[0] + loop.tracedMs[1];
    for (int k = 0; k < 2; ++k)
        rep.note(fmt("%s requests: %.3f s round trip, %.1f%% in the "
                     "server's plan run, %.1f%% outside it (of all traced "
                     "request time)",
                     k == 0 ? "warm" : "cold", loop.tracedMs[k] / 1e3,
                     100.0 * loop.serverMs[k] / allMs,
                     100.0 * (loop.tracedMs[k] - loop.serverMs[k]) / allMs));
    const auto mean = [](const std::vector<double> &x) {
        double sum = 0;
        for (double d : x)
            sum += d;
        return x.empty() ? 0.0 : sum / static_cast<double>(x.size());
    };
    rep.metric("service.overhead_ms", "ms", mean(loop.overheadMs));
    rep.metric("service.queue_depth", "count", mean(loop.queueDepth));
    rep.metric("service.errors", "count", jsonField(stats, "errors"));
    rep.metric("service.shed", "count", jsonField(stats, "shed"));
    rep.metric("trace_overhead_s", "s",
               roundMedian(traced, [](const Round &r) { return r.wall; }) -
                   roundMedian(plain, [](const Round &r) { return r.wall; }));
    writeSpans(a, log, rep);
}

} // namespace perfbench
