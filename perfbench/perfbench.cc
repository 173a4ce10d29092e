/**
 * @file
 * Host-speed benchmark driver for the Mercury/Iridium simulator.
 *
 * One process, one thread, one named workload. The driver builds the
 * model(s), populates the working set, warms up, then runs a timed
 * window and prints one JSON object on stdout. run.py wraps it: it
 * builds this binary, compares the modeled-output digest with the
 * pin in pins.json and prints the benchmark's result line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *             [--perturb] [--digest-only]
 *
 * Modeled outputs are the correctness oracle, never a performance
 * metric: every request must satisfy rtt == breakdown.total(), every
 * cluster run must account for all its requests, and a fixed prefix
 * at the pinned seed must hash to the pinned digest. --perturb adds
 * one tick to the data device's latency, which must trip the digest.
 *
 * With --trace 1 the window alternates untraced and traced chunks on
 * the same model; traced chunks time the public calls into each
 * layer from outside (spans around ServerModel/ClusterSim calls and
 * DramModel/FlashController subclasses injected through
 * SharedStackDevices). Standalone replays of the workload's op
 * stream time kvstore::Store, net::NetworkPath, net::NicGetCache and
 * workload::WorkloadGenerator on their own.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "kvstore/store.hh"
#include "kvstore/udp_frame.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "net/datapath.hh"
#include "net/network.hh"
#include "server/server_model.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace
{

using namespace mercury;
using Clock = std::chrono::steady_clock;

/** Seed of the pinned oracle prefix (pins.json). */
constexpr std::uint64_t pinnedSeed = 1;
/** Set-ups per run; setup_s is their median. A cluster sets up in
 * half a second, so it takes more samples at little cost. */
constexpr unsigned nodeSetupReps = 3;
constexpr unsigned clusterSetupReps = 5;
/** Requests run after populate and before any measurement. */
constexpr unsigned warmupRequests = 2000;
/** Requests hashed into the single-node oracle digest. */
constexpr unsigned oracleRequests = 2000;
/** Length of one traced or untraced chunk of a --trace 1 window. */
constexpr double traceChunkSeconds = 0.25;
/** Ops replayed through each standalone layer probe. */
constexpr unsigned replayOps = 100000;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// --- Digest ---------------------------------------------------------

/** FNV-1a over the modeled outputs. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }

    void add(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void add(std::string_view s) { bytes(s.data(), s.size()); }

    void
    add(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(std::string_view(buf));
    }
};

// --- Registry snapshots ---------------------------------------------

/** Flat {"path": value} view of a registry, sorted by path so the
 * digest does not depend on registration order. */
using StatMap = std::map<std::string, double>;

StatMap
snapshot(const stats::Registry &registry)
{
    std::string text;
    registry.writeJson(text);
    StatMap out;
    std::size_t pos = text.find('"');
    while (pos != std::string::npos) {
        const std::size_t end = text.find('"', pos + 1);
        const std::size_t colon = text.find(':', end);
        std::string key = text.substr(pos + 1, end - pos - 1);
        out[std::move(key)] =
            std::strtod(text.c_str() + colon + 1, nullptr);
        pos = text.find('"', text.find_first_of(",}", colon));
    }
    return out;
}

StatMap
operator-(const StatMap &after, const StatMap &before)
{
    StatMap out;
    for (const auto &[key, value] : after) {
        const auto it = before.find(key);
        out[key] = it == before.end() ? value : value - it->second;
    }
    return out;
}

/** Sum of every stat whose path ends in @p suffix (all nodes). */
double
sumOf(const StatMap &stats, std::string_view suffix)
{
    double sum = 0.0;
    for (const auto &[key, value] : stats) {
        if (key.size() >= suffix.size() &&
            std::string_view(key).substr(key.size() - suffix.size()) ==
                suffix)
            sum += value;
    }
    return sum;
}

void
hashStats(Digest &digest, const StatMap &stats)
{
    for (const auto &[key, value] : stats) {
        digest.add(std::string_view(key));
        digest.add(value);
    }
}

// --- Tracing from outside -------------------------------------------

/** Aggregated host time of one high-rate call site. */
struct HostTimer
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Per-call spans, kept for percentiles. */
struct Spans
{
    std::vector<std::uint32_t> ns;
    std::uint64_t total = 0;

    void
    add(std::uint64_t d)
    {
        ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(d, UINT32_MAX)));
        total += d;
    }

    double
    percentileUs(double p)
    {
        if (ns.empty())
            return 0.0;
        const std::size_t k = std::min(
            ns.size() - 1,
            static_cast<std::size_t>(p * static_cast<double>(ns.size())));
        std::nth_element(ns.begin(), ns.begin() + k, ns.end());
        return ns[k] / 1e3;
    }
};

struct TraceState
{
    bool on = false;
    HostTimer dram;
    HostTimer flash;
};

TraceState traceState;

/** DRAM device that times each access() while tracing is on. */
class TimedDram : public mem::DramModel
{
  public:
    using mem::DramModel::DramModel;

    Tick
    access(mem::AccessType type, Addr addr, unsigned size,
           Tick now) override
    {
        if (!traceState.on)
            return DramModel::access(type, addr, size, now);
        const auto start = Clock::now();
        const Tick done = DramModel::access(type, addr, size, now);
        traceState.dram.ns += nsSince(start);
        ++traceState.dram.calls;
        return done;
    }
};

/** Flash controller that times each access() while tracing is on. */
class TimedFlash : public mem::FlashController
{
  public:
    using mem::FlashController::FlashController;

    Tick
    access(mem::AccessType type, Addr addr, unsigned size,
           Tick now) override
    {
        if (!traceState.on)
            return FlashController::access(type, addr, size, now);
        const auto start = Clock::now();
        const Tick done = FlashController::access(type, addr, size, now);
        traceState.flash.ns += nsSince(start);
        ++traceState.flash.calls;
        return done;
    }
};

// --- Workload specifications ----------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = pinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    bool perturb = false;
    bool digestOnly = false;
};

/** A single-node workload: node params plus its request stream. */
struct NodeSpec
{
    server::ServerModelParams node;
    workload::WorkloadParams stream;
};

NodeSpec
mercuryEtcGet(std::uint64_t seed)
{
    NodeSpec s;
    s.node.name = "mercury";
    s.node.core = cpu::cortexA15Params(1.0);
    s.node.withL2 = true;
    s.node.memory = server::MemoryKind::StackedDram;
    s.node.seed = seed;
    s.stream.numKeys = 20000;
    s.stream.popularity = workload::Popularity::Zipf;
    s.stream.zipfTheta = 0.99;
    s.stream.valueSize = workload::ValueSizeDist::etc();
    s.stream.getFraction = 1.0;
    s.stream.seed = seed;
    return s;
}

NodeSpec
iridiumEtcMixed(std::uint64_t seed)
{
    NodeSpec s;
    s.node.name = "iridium";
    s.node.core = cpu::cortexA7Params();
    s.node.withL2 = true;
    s.node.memory = server::MemoryKind::Flash;
    // 16 channels x 64 MiB: the store's slice spans a few channels,
    // so the SET stream fills them and GC moves and erases fire
    // inside the window instead of after hours of writes.
    s.node.flashCapacity = 16ull * 64 * miB;
    s.node.seed = seed;
    s.stream.numKeys = 20000;
    s.stream.popularity = workload::Popularity::Uniform;
    s.stream.valueSize = workload::ValueSizeDist::etc();
    s.stream.getFraction = 0.5;
    s.stream.seed = seed;
    return s;
}

cluster::ClusterSimParams
clusterBypassZipf(std::uint64_t seed)
{
    cluster::ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.storeMemLimit = 32 * miB;
    p.node.datapath.kind = net::DatapathKind::Bypass;
    p.node.datapath.rxBatch = 32;
    p.node.datapath.txBatch = 32;
    p.node.datapath.nicCacheEntries = 256;
    p.nodes = 96;
    p.numKeys = 20000;
    p.popularity = workload::Popularity::Zipf;
    p.zipfTheta = 0.9;
    p.valueBytes = 64;
    p.getFraction = 0.99;
    p.requests = 50000;
    p.warmup = 1000;
    p.seed = seed;
    return p;
}

/** The op stream a cluster run draws, for the standalone replays. */
workload::WorkloadParams
clusterStream(const cluster::ClusterSimParams &p)
{
    workload::WorkloadParams wl;
    wl.numKeys = p.numKeys;
    wl.popularity = p.popularity;
    wl.zipfTheta = p.zipfTheta;
    wl.valueSize = workload::ValueSizeDist::fixed(p.valueBytes);
    wl.getFraction = p.getFraction;
    wl.seed = p.seed;
    return wl;
}

void
perturb(server::ServerModelParams &node)
{
    if (node.memory == server::MemoryKind::Flash)
        node.flashReadLatency += 1;
    else
        node.dramArrayLatency += 1;
}

// --- Result ---------------------------------------------------------

/** What one run reports; printed as JSON by main(). */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t identityFailures = 0;
    std::uint64_t oracleDigest = 0;
    std::vector<double> setupSeconds;
    std::uint64_t windowRequests = 0;
    double windowSeconds = 0.0;
    std::map<std::string, double> perLayer;
};

// --- Standalone layer replays (--trace 1) ---------------------------

/** Keeps replayed results observable so no call is optimized away. */
volatile std::uint64_t replaySink = 0;

/** Host ns per WorkloadGenerator::next() on the workload's stream. */
double
replayWorkload(const workload::WorkloadParams &stream)
{
    workload::WorkloadGenerator gen(stream);
    const auto start = Clock::now();
    for (unsigned i = 0; i < replayOps; ++i)
        replaySink = replaySink + gen.next().keyId;
    return static_cast<double>(nsSince(start)) / replayOps;
}

/** Host ns per Store get/set on a store built with the node's
 * StoreParams, populated like the node, replaying the op stream. */
void
replayStore(const server::ServerModelParams &node,
            const workload::WorkloadParams &stream, Result &r)
{
    kvstore::StoreParams sp;
    sp.name = node.name + ".store";
    sp.memLimit = node.storeMemLimit;
    sp.eviction = node.eviction;
    sp.locking = node.locking;
    sp.hashPower = 16;
    kvstore::Store store(sp);
    workload::WorkloadGenerator gen(stream);
    std::string value;
    for (std::uint64_t k = 0; k < stream.numKeys; ++k) {
        value.assign(gen.valueSizeFor(k), 'v');
        store.set(workload::WorkloadGenerator::keyFor(k), value);
    }
    HostTimer gets, sets;
    for (unsigned i = 0; i < replayOps; ++i) {
        const workload::Request req = gen.next();
        const std::string key =
            workload::WorkloadGenerator::keyFor(req.keyId);
        if (req.op == workload::Request::Op::Get) {
            const auto start = Clock::now();
            replaySink = replaySink + store.get(key).hit;
            gets.ns += nsSince(start);
            ++gets.calls;
        } else {
            value.assign(req.valueBytes, 's');
            const auto start = Clock::now();
            store.set(key, value);
            sets.ns += nsSince(start);
            ++sets.calls;
        }
    }
    r.perLayer["kvstore.get_host_ns"] = ratio(gets.ns, gets.calls);
    r.perLayer["kvstore.set_host_ns"] = ratio(sets.ns, sets.calls);
}

/** Host ns per NetworkPath delivery of the stream's message sizes,
 * and per NicGetCache lookup of its key stream. */
void
replayNet(const server::ServerModelParams &node,
          const workload::WorkloadParams &stream, Result &r)
{
    const server::Calibration &cal = node.cal;
    net::NetParams np = node.net;
    np.name = node.name + ".replay";
    net::NetworkPath path(np);
    const bool bypass = node.datapath.bypass();
    std::unique_ptr<net::NicGetCache> cache;
    if (node.datapath.nicCacheEnabled())
        cache = std::make_unique<net::NicGetCache>(node.datapath);

    workload::WorkloadGenerator gen(stream);
    HostTimer deliver, lookup;
    Tick now = 0;
    auto send = [&](std::uint64_t payload, bool datagrams) {
        const auto start = Clock::now();
        const auto out =
            datagrams
                ? path.deliverDatagrams(
                      payload, now,
                      static_cast<unsigned>(
                          kvstore::udpDatagramCount(payload)))
                : path.deliver(payload, now);
        deliver.ns += nsSince(start);
        ++deliver.calls;
        now = out.completion;
    };
    std::string value;
    for (unsigned i = 0; i < replayOps; ++i) {
        const workload::Request req = gen.next();
        const std::string key =
            workload::WorkloadGenerator::keyFor(req.keyId);
        if (req.op == workload::Request::Op::Get) {
            send(key.size() + cal.getRequestOverheadBytes, bypass);
            send(req.valueBytes + cal.getResponseOverheadBytes, bypass);
            if (cache) {
                const auto start = Clock::now();
                const bool hit = cache->lookup(key).has_value();
                lookup.ns += nsSince(start);
                ++lookup.calls;
                if (!hit) {
                    value.assign(req.valueBytes, 'v');
                    cache->fill(key, value);
                }
            }
        } else {
            send(key.size() + cal.putRequestOverheadBytes +
                     req.valueBytes,
                 false);
            send(8, false);  // "STORED\r\n"
            if (cache)
                cache->invalidate(key);
        }
    }
    r.perLayer["net.deliver_host_ns"] = ratio(deliver.ns, deliver.calls);
    r.perLayer["net.nic_cache.lookup_host_ns"] =
        ratio(lookup.ns, lookup.calls);
}

/** Per-layer work counts from a registry diff over the window. */
void
layerCounts(const StatMap &d, double requests, Result &r)
{
    auto &m = r.perLayer;
    const double memops = sumOf(d, ".core.memOps");
    const double compute = sumOf(d, ".core.computeTicks");
    const double stall = sumOf(d, ".core.stallTicks");
    m["cpu.instructions_per_req"] =
        ratio(sumOf(d, ".core.instructions"), requests);
    m["cpu.memops_per_req"] = ratio(memops, requests);
    m["cpu.stall_share"] = ratio(stall, compute + stall);

    const double l1_miss =
        sumOf(d, ".caches.l1iMisses") + sumOf(d, ".caches.l1dMisses");
    const double l1 = l1_miss + sumOf(d, ".caches.l1iHits") +
                      sumOf(d, ".caches.l1dHits");
    const double l2_miss = sumOf(d, ".caches.l2Misses");
    m["mem.cache.accesses_per_req"] = ratio(l1, requests);
    m["mem.cache.l1_miss_rate"] = ratio(l1_miss, l1);
    m["mem.cache.l2_miss_rate"] =
        ratio(l2_miss, l2_miss + sumOf(d, ".caches.l2Hits"));

    m["mem.dram.accesses_per_req"] = ratio(
        sumOf(d, ".dram.reads") + sumOf(d, ".dram.writes"), requests);
    m["mem.flash.programs_per_req"] =
        ratio(sumOf(d, ".flash.pagePrograms"), requests);
    m["mem.flash.gc_moves_per_req"] =
        ratio(sumOf(d, ".flash.gcMoves"), requests);

    const double gets = sumOf(d, ".store.gets");
    m["kvstore.hit_rate"] = ratio(sumOf(d, ".store.getHits"), gets);
    m["kvstore.evictions_per_set"] =
        ratio(sumOf(d, ".store.evictions"), sumOf(d, ".store.sets"));

    m["net.packets_per_req"] = ratio(
        sumOf(d, ".c2s.packets") + sumOf(d, ".s2c.packets"), requests);
    const double nic_hits = sumOf(d, ".nicCache.hits");
    m["net.nic_cache.hit_rate"] =
        ratio(nic_hits, nic_hits + sumOf(d, ".nicCache.misses"));
}

// --- Single-node workloads ------------------------------------------

/** One node model with its registry, devices and request stream. */
class Node
{
  public:
    Node(const NodeSpec &spec, bool timed_devices)
        : spec_(spec), registry_("perfbench"), gen_(spec.stream)
    {
        server::ServerModelParams params = spec_.node;
        params.statsParent = &registry_;
        server::SharedStackDevices shared;
        // The same devices ServerModel would build for itself, as
        // timing subclasses.
        if (timed_devices && params.memory ==
                                 server::MemoryKind::StackedDram) {
            mem::DramParams dp = mem::stackedDramParams();
            dp.name = params.name + ".dram";
            dp.arrayLatency = params.dramArrayLatency;
            dp.pagePolicy = params.dramPagePolicy;
            dram_ = std::make_unique<TimedDram>(dp, &registry_);
            shared.dram = dram_.get();
        } else if (timed_devices) {
            mem::FlashParams fp;
            fp.name = params.name + ".flash";
            fp.readLatency = params.flashReadLatency;
            fp.programLatency = params.flashWriteLatency;
            if (params.flashPageBytes)
                fp.pageBytes = params.flashPageBytes;
            if (params.flashCapacity)
                fp.capacity = params.flashCapacity;
            flash_ = std::make_unique<TimedFlash>(fp, &registry_);
            shared.flash = flash_.get();
        }
        model_ = std::make_unique<server::ServerModel>(
            params, timed_devices ? &shared : nullptr);
    }

    /** Put every key once, through the timed PUT path. */
    void
    populate(Result &r)
    {
        for (std::uint64_t k = 0; k < spec_.stream.numKeys; ++k) {
            check(model_->put(workload::WorkloadGenerator::keyFor(k),
                              gen_.valueSizeFor(k)),
                  r);
        }
    }

    /** One request from the stream. A non-null span set records a
     * span around the ServerModel call of its kind. */
    server::RequestTiming
    step(Result &r, Spans *get_spans = nullptr,
         Spans *put_spans = nullptr)
    {
        const workload::Request req = gen_.next();
        const std::string key =
            workload::WorkloadGenerator::keyFor(req.keyId);
        const bool is_get = req.op == workload::Request::Op::Get;
        Spans *spans = is_get ? get_spans : put_spans;
        const auto start = Clock::now();
        const server::RequestTiming t =
            is_get ? model_->get(key) : model_->put(key, req.valueBytes);
        if (spans)
            spans->add(nsSince(start));
        check(t, r);
        return t;
    }

    StatMap stats() const { return snapshot(registry_); }

  private:
    static void
    check(const server::RequestTiming &t, Result &r)
    {
        ++r.attempted;
        if (t.rtt != t.breakdown.total())
            ++r.identityFailures;
    }

    NodeSpec spec_;
    stats::Registry registry_;
    std::unique_ptr<TimedDram> dram_;
    std::unique_ptr<TimedFlash> flash_;
    std::unique_ptr<server::ServerModel> model_;
    workload::WorkloadGenerator gen_;
};

/** Build and populate one node; appends its set-up time. */
std::unique_ptr<Node>
setUpNode(const NodeSpec &spec, bool timed, Result &r)
{
    const auto start = Clock::now();
    auto node = std::make_unique<Node>(spec, timed);
    node->populate(r);
    r.setupSeconds.push_back(secondsSince(start));
    for (unsigned i = 0; i < warmupRequests; ++i)
        node->step(r);
    return node;
}

void
releaseMemory()
{
    // Freed slabs go back to the OS, so one run's set-ups do not
    // stack in peak RSS.
    malloc_trim(0);
}

Result
runNode(NodeSpec (*make)(std::uint64_t), const Options &opt)
{
    Result r;
    auto spec_for = [&](std::uint64_t seed) {
        NodeSpec s = make(seed);
        if (opt.perturb)
            perturb(s.node);
        return s;
    };

    // Oracle: a fixed prefix at the pinned seed, on the same kind of
    // model the window runs (timed devices in a traced run).
    {
        auto node = setUpNode(spec_for(pinnedSeed), opt.trace, r);
        traceState.on = opt.trace;
        Digest digest;
        const StatMap before = node->stats();
        for (unsigned i = 0; i < oracleRequests; ++i) {
            const server::RequestTiming t = node->step(r);
            digest.add(t.rtt);
            digest.add(t.breakdown.wire);
            digest.add(t.breakdown.netstack);
            digest.add(t.breakdown.hash);
            digest.add(t.breakdown.memcached);
            digest.add(t.breakdown.nicCache);
            digest.add(std::uint64_t(t.hit));
        }
        hashStats(digest, node->stats() - before);
        r.oracleDigest = digest.h;
        traceState = TraceState{};
    }
    releaseMemory();
    if (opt.digestOnly)
        return r;

    const NodeSpec spec = spec_for(opt.seed);
    for (unsigned rep = 1; rep + 1 < nodeSetupReps; ++rep) {
        setUpNode(spec, opt.trace, r);
        releaseMemory();
    }
    auto node = setUpNode(spec, opt.trace, r);

    const StatMap before = node->stats();
    Spans get_spans, put_spans;
    std::uint64_t requests[2] = {0, 0};
    double seconds[2] = {0.0, 0.0};
    const auto window = Clock::now();
    bool traced = false;
    while (secondsSince(window) < opt.seconds) {
        // Untraced and traced chunks alternate in a traced run.
        traceState.on = traced;
        const double chunk = opt.trace ? traceChunkSeconds : opt.seconds;
        const auto start = Clock::now();
        std::uint64_t n = 0;
        do {
            for (unsigned i = 0; i < 8; ++i) {
                if (traced)
                    node->step(r, &get_spans, &put_spans);
                else
                    node->step(r);
            }
            n += 8;
        } while (secondsSince(start) < chunk &&
                 secondsSince(window) < opt.seconds);
        requests[traced] += n;
        seconds[traced] += secondsSince(start);
        if (opt.trace)
            traced = !traced;
    }
    traceState.on = false;
    r.windowRequests = requests[0] + requests[1];
    r.windowSeconds = secondsSince(window);

    if (opt.trace) {
        const StatMap d = node->stats() - before;
        layerCounts(d, static_cast<double>(r.windowRequests), r);
        auto &m = r.perLayer;
        m["server.get_host_us_p50"] = get_spans.percentileUs(0.50);
        m["server.get_host_us_p99"] = get_spans.percentileUs(0.99);
        m["server.put_host_us_p50"] = put_spans.percentileUs(0.50);
        m["server.put_host_us_p99"] = put_spans.percentileUs(0.99);
        // Work counts cover the whole window; host spans only its
        // traced half, so scale memOps to the traced requests.
        const double traced_memops =
            sumOf(d, ".core.memOps") *
            ratio(requests[1], r.windowRequests);
        m["server.host_ns_per_memop"] = ratio(
            get_spans.total + put_spans.total, traced_memops);
        m["mem.dram.host_ns_per_access"] =
            ratio(traceState.dram.ns, traceState.dram.calls);
        m["mem.dram.host_share"] =
            ratio(traceState.dram.ns * 1e-9, seconds[1]);
        m["mem.flash.host_ns_per_access"] =
            ratio(traceState.flash.ns, traceState.flash.calls);
        m["mem.flash.host_share"] =
            ratio(traceState.flash.ns * 1e-9, seconds[1]);
        for (const char *name :
             {"cluster.run_host_us_per_req", "cluster.populate_s",
              "cluster.hottest_node_share"})
            m[name] = 0.0;  // no cluster layer on one node
        m["trace.overhead_frac"] =
            1.0 - ratio(ratio(requests[1], seconds[1]),
                        ratio(requests[0], seconds[0]));
        node.reset();
        releaseMemory();
        replayStore(spec.node, spec.stream, r);
        replayNet(spec.node, spec.stream, r);
        m["workload.next_host_ns"] = replayWorkload(spec.stream);
    }
    return r;
}

// --- Cluster workload -----------------------------------------------

/** One cluster with its registry; the registry outlives the nodes. */
struct Cluster
{
    explicit Cluster(cluster::ClusterSimParams params)
        : registry("perfbench")
    {
        params.node.statsParent = &registry;
        sim = std::make_unique<cluster::ClusterSim>(params);
    }

    stats::Registry registry;
    std::unique_ptr<cluster::ClusterSim> sim;
    double offered = 0.0;
    double populateSeconds = 0.0;
};

void
checkRun(const cluster::ClusterSimResult &res, Result &r)
{
    r.attempted += res.requests;
    if (res.accountedRequests() != res.requests)
        r.identityFailures += res.requests;
}

std::unique_ptr<Cluster>
setUpCluster(const cluster::ClusterSimParams &params, Result &r)
{
    const auto start = Clock::now();
    auto c = std::make_unique<Cluster>(params);
    const auto populate = Clock::now();
    c->sim->populate();
    c->populateSeconds = secondsSince(populate);
    c->offered = 0.3 * c->sim->aggregateCapacity();
    r.setupSeconds.push_back(secondsSince(start));
    checkRun(c->sim->run(c->offered), r);  // warm-up run
    return c;
}

Result
runCluster(const Options &opt)
{
    Result r;
    auto params_for = [&](std::uint64_t seed) {
        cluster::ClusterSimParams p = clusterBypassZipf(seed);
        if (opt.perturb)
            perturb(p.node);
        return p;
    };

    {
        auto c = setUpCluster(params_for(pinnedSeed), r);
        const StatMap before = snapshot(c->registry);
        const cluster::ClusterSimResult res = c->sim->run(c->offered);
        checkRun(res, r);
        Digest digest;
        for (double v : {res.offeredTps, res.avgLatencyUs,
                         res.p99LatencyUs, res.p999LatencyUs,
                         res.subMsFraction, res.hottestNodeShare,
                         res.hotNodeTailAmplification, res.hitRate})
            digest.add(v);
        for (std::uint64_t v : {res.requests, res.ok, res.timeouts,
                                res.failedRequests, res.shed,
                                res.maxOutstanding})
            digest.add(v);
        hashStats(digest, snapshot(c->registry) - before);
        r.oracleDigest = digest.h;
    }
    releaseMemory();
    if (opt.digestOnly)
        return r;

    const cluster::ClusterSimParams params = params_for(opt.seed);
    for (unsigned rep = 1; rep + 1 < clusterSetupReps; ++rep) {
        setUpCluster(params, r);
        releaseMemory();
    }
    auto c = setUpCluster(params, r);

    const StatMap before = snapshot(c->registry);
    std::uint64_t requests[2] = {0, 0};
    double seconds[2] = {0.0, 0.0};
    double hottest = 0.0;
    bool traced = false;
    const auto window = Clock::now();
    while (secondsSince(window) < opt.seconds) {
        const auto start = Clock::now();
        const cluster::ClusterSimResult res = c->sim->run(c->offered);
        seconds[traced] += secondsSince(start);
        requests[traced] += res.requests;
        checkRun(res, r);
        hottest = std::max(hottest, res.hottestNodeShare);
        if (opt.trace)
            traced = !traced;
    }
    r.windowRequests = requests[0] + requests[1];
    r.windowSeconds = secondsSince(window);

    if (opt.trace) {
        layerCounts(snapshot(c->registry) - before,
                    static_cast<double>(r.windowRequests), r);
        auto &m = r.perLayer;
        for (const char *name :
             {"server.get_host_us_p50", "server.get_host_us_p99",
              "server.put_host_us_p50", "server.put_host_us_p99",
              "server.host_ns_per_memop", "mem.dram.host_ns_per_access",
              "mem.dram.host_share", "mem.flash.host_ns_per_access",
              "mem.flash.host_share"})
            m[name] = 0.0;  // node internals are not reachable here
        m["cluster.run_host_us_per_req"] =
            ratio(seconds[1] * 1e6, requests[1]);
        m["cluster.populate_s"] = c->populateSeconds;
        m["cluster.hottest_node_share"] = hottest;
        m["trace.overhead_frac"] =
            1.0 - ratio(ratio(requests[1], seconds[1]),
                        ratio(requests[0], seconds[0]));
        c.reset();
        releaseMemory();
        const workload::WorkloadParams stream = clusterStream(params);
        replayStore(params.node, stream, r);
        replayNet(params.node, stream, r);
        m["workload.next_host_ns"] = replayWorkload(stream);
    }
    return r;
}

// --- Output ---------------------------------------------------------

bool
releaseBuild()
{
    return std::string_view(PERFBENCH_BUILD_TYPE) == "Release" &&
           std::string_view(PERFBENCH_SANITIZE).empty() &&
           !PERFBENCH_EXTRA_CHECKS && !PERFBENCH_PROFILE_EVENTS;
}

void
printResult(const Options &opt, const Result &r)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::string out = "{";
    bool first = true;
    auto key = [&](const char *name) {
        json::appendKey(out, first, "", name);
    };
    auto str = [&](const char *name, std::string_view value) {
        key(name);
        out += '"';
        out += value;
        out += '"';
    };
    auto num = [&](const char *name, double value) {
        key(name);
        json::appendDouble(out, value);
    };
    auto uint = [&](const char *name, std::uint64_t value) {
        key(name);
        json::appendUint(out, value);
    };
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, r.oracleDigest);

    str("workload", opt.workload);
    uint("seed", opt.seed);
    uint("trace", opt.trace);
    uint("perturb", opt.perturb);
    str("oracle_digest", hex);
    uint("oracle_seed", pinnedSeed);
    uint("attempted", r.attempted);
    uint("identity_failures", r.identityFailures);
    uint("window_requests", r.windowRequests);
    num("window_s", r.windowSeconds);
    num("sim_req_per_s", ratio(r.windowRequests, r.windowSeconds));
    num("setup_s", r.setupSeconds.empty() ? 0.0
                                          : median(r.setupSeconds));
    num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    key("setup_reps_s");
    out += '[';
    for (std::size_t i = 0; i < r.setupSeconds.size(); ++i) {
        if (i)
            out += ',';
        json::appendDouble(out, r.setupSeconds[i]);
    }
    out += ']';
    str("build_type", PERFBENCH_BUILD_TYPE);
    str("compiler", PERFBENCH_COMPILER);
    str("sanitize", PERFBENCH_SANITIZE);
    uint("extra_checks", PERFBENCH_EXTRA_CHECKS);
    uint("tracing", PERFBENCH_TRACING);
    uint("profile_events", PERFBENCH_PROFILE_EVENTS);
    key("per_layer");
    out += '{';
    bool first_layer = true;
    for (const auto &[name, value] : r.perLayer) {
        json::appendKey(out, first_layer, "", name);
        json::appendDouble(out, value);
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "mercury-etc-get|iridium-etc-mixed|cluster-bypass-zipf"
                 " --seed N --seconds S --trace 0|1 [--perturb] "
                 "[--digest-only]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing flag value");
            return argv[++i];
        };
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value(), &end);
        } else if (arg == "--trace") {
            opt.trace = std::strtoul(value(), &end, 10) != 0;
        } else if (arg == "--perturb") {
            opt.perturb = true;
        } else if (arg == "--digest-only") {
            opt.digestOnly = true;
        } else {
            usage("unknown flag");
        }
        if (end && *end)
            usage("malformed number");
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (!releaseBuild()) {
        std::fprintf(stderr, "perfbench: refusing to report numbers "
                             "from a non-release or sanitizer build\n");
        return 3;
    }
    Result r;
    if (opt.workload == "mercury-etc-get")
        r = runNode(mercuryEtcGet, opt);
    else if (opt.workload == "iridium-etc-mixed")
        r = runNode(iridiumEtcMixed, opt);
    else if (opt.workload == "cluster-bypass-zipf")
        r = runCluster(opt);
    else
        usage("unknown workload");
    printResult(opt, r);
    return 0;
}
