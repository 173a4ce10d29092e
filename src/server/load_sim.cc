#include "server/load_sim.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::server
{

LoadSimulation::LoadSimulation(const LoadSimParams &params)
    : params_(params), node_(params.node)
{
    keys_ = std::max<unsigned>(
        64, static_cast<unsigned>(
                4 * miB / std::max<std::uint32_t>(
                              params_.valueBytes, 256)));
    node_.populate(keys_, params_.valueBytes);
}

double
LoadSimulation::capacity()
{
    if (capacity_ == 0.0) {
        capacity_ =
            node_.measureGets(params_.valueBytes, 24, 6).avgTps;
    }
    return capacity_;
}

LoadPoint
LoadSimulation::run(double offered_tps)
{
    MERCURY_EXPECTS(offered_tps > 0.0,
                    "offered load must be positive");
    // An empty measurement window would index an empty latency
    // vector below (and divide by zero); catch it at the boundary.
    MERCURY_EXPECTS(params_.requests > 0,
                    "load simulation needs at least one measured "
                    "request");

    workload::PoissonArrivals arrivals(offered_tps, params_.seed);
    Rng rng(params_.seed * 7 + 1);

    std::vector<Tick> latencies;
    latencies.reserve(params_.requests);

    Tick arrival = node_.now();

    // Optional windowed time series. Everything below that feeds the
    // sampler is guarded, so an unsampled run takes the identical
    // path; sampling is pure observation of the same timeline.
    stats::Sampler *const sampler = params_.sampler;
    std::size_t ch_requests = 0, ch_gets = 0, ch_hits = 0;
    std::size_t ch_lat = 0;
    if (sampler) {
        ch_requests = sampler->addCounter("requests");
        ch_gets = sampler->addCounter("gets");
        ch_hits = sampler->addCounter("hits");
        sampler->addRatio("hit_rate", ch_hits, ch_gets, 1.0);
        ch_lat = sampler->addLatency("lat_us");
        sampler->begin(arrival);
    }
    Tick first_measured_arrival = 0;
    for (unsigned i = 0; i < params_.warmup + params_.requests; ++i) {
        const Tick prev_arrival = arrival;
        arrival = arrivals.next(arrival);
        // The open-loop generator must produce a monotone arrival
        // sequence; a regression here would make the FIFO service
        // rule below silently serve requests out of order.
        MERCURY_ASSERT(arrival >= prev_arrival,
                       "arrival process moved backwards: ", arrival,
                       " after ", prev_arrival);
        if (i == params_.warmup)
            first_measured_arrival = arrival;

        // FIFO: service begins when the server is free AND the
        // request has arrived.
        node_.advanceTo(arrival);
        const std::string key =
            "v" + std::to_string(params_.valueBytes) + ":" +
            std::to_string(rng.nextInt(keys_));
        if (sampler) {
            sampler->advanceTo(arrival);
            sampler->count(ch_requests);
        }
        if (rng.nextBool(params_.getFraction)) {
            const RequestTiming timing = node_.get(key);
            if (sampler) {
                sampler->count(ch_gets);
                if (timing.hit)
                    sampler->count(ch_hits);
            }
        } else {
            node_.put(key, params_.valueBytes);
        }

        MERCURY_ASSERT(node_.now() >= arrival,
                       "request completed before it arrived");
        if (sampler)
            sampler->recordLatency(
                ch_lat, static_cast<std::uint64_t>(
                            (node_.now() - arrival) / tickUs));
        if (i >= params_.warmup)
            latencies.push_back(node_.now() - arrival);
    }
    if (sampler)
        sampler->finish(arrival);

    std::sort(latencies.begin(), latencies.end());
    const stats::LatencySummary summary =
        stats::summarizeSorted(latencies);

    LoadPoint point;
    point.offeredTps = offered_tps;
    point.achievedTps =
        static_cast<double>(params_.requests) /
        ticksToSeconds(node_.now() - first_measured_arrival);
    point.avgLatencyUs = summary.meanUs;
    point.p50Us = summary.p50Us;
    point.p95Us = summary.p95Us;
    point.p99Us = summary.p99Us;
    point.subMsFraction = summary.subMsFraction;
    return point;
}

std::vector<LoadPoint>
LoadSimulation::sweep(const std::vector<double> &utilizations)
{
    const double cap = capacity();
    std::vector<LoadPoint> points;
    points.reserve(utilizations.size());
    for (const double u : utilizations)
        points.push_back(run(u * cap));
    return points;
}

} // namespace mercury::server
