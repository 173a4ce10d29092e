#include "cluster/cluster_sim.hh"

#include <algorithm>
#include <deque>

#include "cluster/backoff.hh"
#include "sim/contract.hh"
#include "sim/logging.hh"

namespace mercury::cluster
{

namespace
{

/** Ring points per physical node. */
constexpr unsigned virtualNodes = 64;

/** A hedge fires when the primary is slower than this quantile of
 * observed attempt service times... */
constexpr double hedgeQuantile = 0.95;
/** ...floored here, and held at the floor until hedgeWarmup
 * attempt samples have been observed. */
constexpr Tick hedgeFloor = 300 * tickUs;
constexpr unsigned hedgeWarmup = 32;

/** Time to deliver an admission-control "busy" refusal (network + a
 * queue-front check; the store is never touched). */
constexpr Tick shedResponseTime = 20 * tickUs;

} // namespace

ClusterSim::ClusterSim(const ClusterSimParams &params)
    : params_(params), ring_(virtualNodes),
      injector_(params.faults.seed)
{
    mercury_assert(params_.nodes >= 1, "cluster needs nodes");
    nodes_.reserve(params_.nodes);
    for (unsigned i = 0; i < params_.nodes; ++i) {
        const std::string name = "node" + std::to_string(i);
        nodeNames_.push_back(name);
        // Stripe nodes across racks (failure domains) when asked.
        ring_.addNode(name,
                      params_.racks >= 2 ? i % params_.racks : 0);

        server::ServerModelParams node_params = params_.node;
        node_params.name = name;
        node_params.seed = params_.seed + i + 1;
        node_params.tracer = params_.tracer;
        if (params_.faults.enabled) {
            node_params.net.lossProbability =
                params_.faults.packetLossProbability;
        }
        nodes_.push_back(
            std::make_unique<server::ServerModel>(node_params));
        if (params_.faults.enabled) {
            // Each node draws loss/flash faults from its own fork:
            // its stream is a function of (master seed, node name)
            // and its own op sequence only, never of how ops on
            // *other* nodes interleave. These forked streams are
            // what the fault goldens pin.
            nodeInjectors_.push_back(
                std::make_unique<fault::FaultInjector>(
                    injector_.forkSeed(name)));
            nodes_.back()->setFaultInjector(
                nodeInjectors_.back().get());
        }
    }
}

std::uint64_t
ClusterSim::faultDigest() const
{
    std::uint64_t digest = injector_.timelineDigest();
    for (const auto &forked : nodeInjectors_)
        digest = forked->timelineDigest(digest);
    return digest;
}

std::string
ClusterSim::keyFor(std::uint64_t key_id) const
{
    return workload::WorkloadGenerator::keyFor(key_id);
}

std::size_t
ClusterSim::indexOfName(const std::string &name) const
{
    for (std::size_t i = 0; i < nodeNames_.size(); ++i) {
        if (nodeNames_[i] == name)
            return i;
    }
    mercury_panic("ring returned unknown node ", name);
}

unsigned
ClusterSim::effectiveReplication() const
{
    return std::min(
        std::max(1u, params_.resilience.replicationFactor),
        static_cast<unsigned>(nodes_.size()));
}

bool
ClusterSim::rackSpreadReplicas() const
{
    return params_.resilience.rackAwareReplicas && params_.racks >= 2;
}

void
ClusterSim::populate()
{
    if (populated_)
        return;
    const unsigned replication = effectiveReplication();
    const bool rack_spread = rackSpreadReplicas();
    std::vector<std::size_t> replicas;
    for (std::uint64_t id = 0; id < params_.numKeys; ++id) {
        const std::string key = keyFor(id);
        if (replication == 1) {
            nodes_[ring_.nodeIndexFor(key)]->put(key,
                                                 params_.valueBytes);
        } else {
            ring_.nodeIndicesFor(key, replication, rack_spread,
                                 replicas);
            for (const std::size_t index : replicas)
                nodes_[index]->put(key, params_.valueBytes);
        }
    }
    populated_ = true;
}

Tick
ClusterSim::timeOrigin()
{
    populate();
    Tick origin = 0;
    for (const auto &node : nodes_)
        origin = std::max(origin, node->now());
    return origin;
}

double
ClusterSim::aggregateCapacity()
{
    if (capacity_ == 0.0) {
        server::ServerModelParams probe = params_.node;
        probe.name = "capacityProbe";
        server::ServerModel node(probe);
        capacity_ =
            node.measureGets(params_.valueBytes, 16, 4).avgTps *
            static_cast<double>(params_.nodes);
    }
    return capacity_;
}

ClusterSimResult
ClusterSim::run(double offered_tps)
{
    mercury_assert(offered_tps > 0.0, "offered load must be positive");
    populate();

    workload::WorkloadParams wl;
    wl.numKeys = params_.numKeys;
    wl.popularity = params_.popularity;
    wl.zipfTheta = params_.zipfTheta;
    wl.valueSize =
        workload::ValueSizeDist::fixed(params_.valueBytes);
    wl.getFraction = params_.getFraction;
    wl.seed = params_.seed;
    workload::WorkloadGenerator gen(wl);
    workload::PoissonArrivals arrivals(offered_tps,
                                       params_.seed + 99);

    // Start every node at a common time origin.
    Tick origin = 0;
    for (const auto &node : nodes_)
        origin = std::max(origin, node->now());
    for (const auto &node : nodes_)
        node->advanceTo(origin);

    // Recovery-curve channels. Registered (and begun) only when a
    // sampler was attached; everything below that feeds them is
    // guarded, so an unsampled run takes the identical path.
    stats::Sampler *const sampler = params_.sampler;
    trace::Tracer *const tracer = params_.tracer;
    std::size_t ch_requests = 0, ch_ok = 0, ch_failed = 0;
    std::size_t ch_timeouts = 0, ch_shed = 0;
    std::size_t ch_attempt_timeouts = 0, ch_retries = 0;
    std::size_t ch_hedges = 0;
    std::size_t ch_crashes = 0, ch_restarts = 0;
    std::size_t ch_gets = 0, ch_hits = 0, ch_lat = 0;
    if (sampler) {
        ch_requests = sampler->addCounter("requests");
        ch_ok = sampler->addCounter("ok");
        ch_failed = sampler->addCounter("failed");
        ch_timeouts = sampler->addCounter("timeouts");
        ch_shed = sampler->addCounter("shed");
        ch_attempt_timeouts = sampler->addCounter("attempt_timeouts");
        ch_retries = sampler->addCounter("retries");
        ch_hedges = sampler->addCounter("hedges");
        ch_crashes = sampler->addCounter("crashes");
        ch_restarts = sampler->addCounter("restarts");
        ch_gets = sampler->addCounter("gets");
        ch_hits = sampler->addCounter("hits");
        sampler->addRatio("availability", ch_ok, ch_requests, 1.0);
        sampler->addRatio("hit_rate", ch_hits, ch_gets, 1.0);
        ch_lat = sampler->addLatency("lat_us");
        sampler->begin(origin);
    }

    std::vector<Tick> latencies;
    latencies.reserve(params_.requests);
    std::vector<std::vector<Tick>> per_node(nodes_.size());
    std::vector<std::size_t> counts(nodes_.size(), 0);

    ClusterSimResult result;
    result.offeredTps = offered_tps;

    // Fault and resilience state. With faults disabled every node
    // stays up and the injector never draws.
    const ClusterFaultParams &fp = params_.faults;
    const ClusterResilienceParams &res = params_.resilience;
    const unsigned replication = effectiveReplication();
    const bool hedging = res.hedgedReads && replication >= 2;
    std::vector<bool> up(nodes_.size(), true);
    std::vector<Tick> restart_at(nodes_.size(), 0);
    /** GETs left in each node's post-restart recovery window. */
    std::vector<unsigned> recovering(nodes_.size(), 0);
    constexpr unsigned recovery_window = 200;
    const Tick crash_mean =
        fp.nodeCrashesPerSecond > 0.0
            ? secondsToTicks(1.0 / fp.nodeCrashesPerSecond)
            : 0;
    Tick next_crash = maxTick;
    if (fp.enabled && crash_mean > 0)
        next_crash = origin + injector_.nextInterval(crash_mean);

    std::uint64_t gets = 0, hits = 0;
    std::uint64_t recovery_gets = 0, recovery_hits = 0;

    // Hinted handoff: writes aimed at a down replica wait here (in
    // write order) and are replayed when the node restarts.
    std::vector<std::vector<std::uint64_t>> hints(nodes_.size());

    // Per-node outstanding-request accounting (a fault-mode
    // diagnostic): completion times of requests in flight on each
    // node, pruned as time passes.
    std::vector<std::deque<Tick>> inflight(nodes_.size());
    auto note_inflight = [&](std::size_t n, Tick begin, Tick end) {
        if (fp.enabled) {
            std::deque<Tick> &q = inflight[n];
            while (!q.empty() && q.front() <= begin)
                q.pop_front();
            q.push_back(end);
            result.maxOutstanding = std::max<std::uint64_t>(
                result.maxOutstanding, q.size());
        }
    };

    // Observed attempt service times drive the hedge delay: hedge
    // when the primary is slower than the configured quantile of
    // what the cluster has been delivering.
    stats::StatGroup hedge_stats("hedge");
    stats::LatencyHistogram attempt_service(
        &hedge_stats, "attempt_us", "attempt service time");
    auto hedge_delay = [&]() -> Tick {
        if (attempt_service.count() < hedgeWarmup)
            return hedgeFloor;
        const Tick quantile =
            static_cast<Tick>(
                attempt_service.percentile(hedgeQuantile)) *
            tickUs;
        return std::max(quantile, hedgeFloor);
    };

    // Retry budget: retries so far may not exceed the configured
    // fraction of requests issued so far (warmup included -- the
    // budget is a client-lifetime property, not a measurement one).
    const bool budgeted = res.retryBudgetFraction > 0.0;
    std::uint64_t issued = 0;
    std::uint64_t retries_spent = 0;
    auto retry_allowed = [&]() {
        if (!budgeted)
            return true;
        return static_cast<double>(retries_spent) <
               res.retryBudgetFraction * static_cast<double>(issued);
    };

    // Worst-window availability over the full run.
    const Tick avail_window = params_.availabilityWindow;
    Tick win_end = avail_window > 0 ? origin + avail_window : maxTick;
    std::uint64_t win_requests = 0, win_ok = 0;
    auto close_window = [&]() {
        if (win_requests > 0) {
            result.minWindowAvailability = std::min(
                result.minWindowAvailability,
                static_cast<double>(win_ok) /
                    static_cast<double>(win_requests));
        }
        win_requests = 0;
        win_ok = 0;
    };

    auto crash = [&](std::size_t victim, Tick at) {
        up[victim] = false;
        restart_at[victim] = at + fp.nodeDowntime;
        injector_.record(at, fault::FaultKind::NodeCrash,
                         nodeNames_[victim]);
        ++result.crashes;
        if (sampler)
            sampler->count(ch_crashes);
    };
    auto restart = [&](std::size_t index, Tick at) {
        up[index] = true;
        // The process lost its in-memory store: it comes back cold
        // and clients re-fill it on misses.
        nodes_[index]->store().flushAll();
        // Replay the hinted writes it missed while down, in arrival
        // order, so it comes back warm for everything written during
        // the outage.
        for (const std::uint64_t key_id : hints[index]) {
            nodes_[index]->put(keyFor(key_id), params_.valueBytes);
            ++result.hintsReplayed;
        }
        hints[index].clear();
        recovering[index] = recovery_window;
        injector_.record(at, fault::FaultKind::NodeRestart,
                         nodeNames_[index]);
        ++result.restarts;
        if (sampler)
            sampler->count(ch_restarts);
    };

    // Client failover order (node indices), reused across requests.
    // It spans the replica set and the retry walk.
    const std::size_t fan = std::max<std::size_t>(
        replication, static_cast<std::size_t>(fp.maxRetries) + 1);
    std::vector<std::size_t> order;
    order.reserve(fan);
    const bool rack_spread = rackSpreadReplicas();

    Tick arrival = origin;
    for (unsigned i = 0; i < params_.warmup + params_.requests;
         ++i) {
        arrival = arrivals.next(arrival);
        const workload::Request request = gen.next();
        const std::string key = keyFor(request.keyId);
        const bool measured = i >= params_.warmup;

        // The sampler sees every request, warmup included: recovery
        // curves want the full trajectory, not just the measured
        // tail. Windows close strictly on arrival ticks, so the
        // emitted series is a pure function of the simulated
        // timeline.
        if (sampler) {
            sampler->advanceTo(arrival);
            sampler->count(ch_requests);
        }
        // Availability windows close strictly on arrival ticks, so
        // minWindowAvailability is a pure function of the simulated
        // timeline too.
        while (avail_window > 0 && arrival >= win_end) {
            close_window();
            win_end += avail_window;
        }
        ++win_requests;
        const std::uint32_t client_req =
            tracer ? tracer->beginRequest() : 0;

        // Fault events due by this arrival: restarts first, then
        // scheduled plans, then Poisson crashes.
        if (fp.enabled) {
            for (std::size_t n = 0; n < nodes_.size(); ++n) {
                if (!up[n] && restart_at[n] <= arrival)
                    restart(n, restart_at[n]);
            }
            // Explicitly scheduled fault plans. A plan due before
            // the run's time origin fires at the first arrival (plans
            // are expressed in simulated time, which populate() has
            // already advanced).
            while (auto due = injector_.popDue(arrival)) {
                const Tick at = std::max(due->at, arrival);
                switch (due->kind) {
                case fault::FaultKind::NodeCrash: {
                    const std::size_t target = indexOfName(due->target);
                    if (up[target])
                        crash(target, at);
                    break;
                }
                case fault::FaultKind::NodeRestart: {
                    const std::size_t target = indexOfName(due->target);
                    if (!up[target])
                        restart(target, at);
                    break;
                }
                case fault::FaultKind::NetDegrade:
                case fault::FaultKind::NetRestore: {
                    // A degradation burst retunes wire loss; the
                    // restore event snaps it back to the configured
                    // baseline.
                    const double loss =
                        due->kind == fault::FaultKind::NetDegrade
                            ? fault::ppbToProbability(due->detail)
                            : fp.packetLossProbability;
                    injector_.record(at, due->kind, due->target,
                                     due->detail);
                    if (due->target == fault::allNodes) {
                        for (const auto &node : nodes_)
                            node->setPacketLoss(loss);
                    } else {
                        nodes_[indexOfName(due->target)]->setPacketLoss(
                            loss);
                    }
                    break;
                }
                case fault::FaultKind::FlashWear: {
                    // Elevated program-fail probability while a wear
                    // burst is active; detail 0 marks its end.
                    const double wear =
                        fault::ppbToProbability(due->detail);
                    injector_.record(at, due->kind, due->target,
                                     due->detail);
                    if (due->target == fault::allNodes) {
                        for (const auto &node : nodes_)
                            node->setFlashWear(wear);
                    } else {
                        nodes_[indexOfName(due->target)]->setFlashWear(
                            wear);
                    }
                    break;
                }
                default:
                    // Probabilistic kinds are never scheduled; a plan
                    // carrying one is a bug in the plan builder.
                    mercury_panic("unschedulable fault kind in plan: ",
                                  fault::kindName(due->kind));
                }
            }
            // Poisson crashes; the last live node is never taken down.
            while (next_crash <= arrival) {
                std::vector<std::size_t> alive;
                for (std::size_t n = 0; n < nodes_.size(); ++n) {
                    if (up[n])
                        alive.push_back(n);
                }
                if (alive.size() > 1)
                    crash(alive[injector_.pick(alive.size())],
                          next_crash);
                next_crash += injector_.nextInterval(crash_mean);
            }
        }

        // Client request path. The client fans out over the key's
        // replica set (plain ring successors when unreplicated):
        // writes go to every up replica, GETs may be hedged, and a
        // dead-node attempt pays a timeout plus a jittered
        // exponential backoff before the next try, as real memcached
        // clients do.
        const bool is_get = request.op == workload::Request::Op::Get;
        // The primary comes straight off the ring. The full replica
        // and failover order is only needed when a second node can
        // be asked: replicas exist, or the primary is down.
        const std::size_t primary = ring_.nodeIndexFor(key);
        if (replication >= 2 || !up[primary]) {
            ring_.nodeIndicesFor(key, fan, rack_spread, order);
        } else {
            order.clear();
            order.push_back(primary);
        }
        ++issued;

        enum class Outcome { Pending, Ok, Shed, Failed, TimedOut };
        Outcome outcome = Outcome::Pending;
        Tick penalty = 0;
        Tick answered_at = arrival;

        // Admission check: a node that cannot start serving within
        // the queue-delay SLO refuses fast instead of queueing.
        auto shed_check = [&](std::size_t index, Tick begin,
                              unsigned attempt_no) {
            if (!res.admissionControl)
                return false;
            const Tick node_free = nodes_[index]->now();
            const Tick queue_delay =
                node_free > begin ? node_free - begin : 0;
            if (queue_delay <= res.sloQueueDelay)
                return false;
            answered_at = begin + shedResponseTime;
            outcome = Outcome::Shed;
            if (measured)
                ++result.shed;
            if (sampler)
                sampler->count(ch_shed);
            {
                trace::ScopedTraceContext span_ctx(
                    tracer, static_cast<std::uint16_t>(index),
                    client_req);
                MERCURY_TRACE_SPAN(tracer, client_req,
                                   trace::Stage::Attempt, begin,
                                   answered_at, attempt_no);
            }
            return true;
        };

        struct AttemptOutcome
        {
            Tick end = 0;
            bool hit = false;
        };
        // One traced GET attempt against an up node. Node-side spans
        // carry the serving node's identity and the client envelope
        // as causal parent.
        auto do_get = [&](std::size_t index, Tick begin,
                          unsigned attempt_no) {
            server::ServerModel &node = *nodes_[index];
            node.advanceTo(begin);
            bool hit = false;
            {
                trace::ScopedTraceContext span_ctx(
                    tracer, static_cast<std::uint16_t>(index),
                    client_req);
                hit = node.get(key).hit;
                MERCURY_TRACE_SPAN(tracer, client_req,
                                   trace::Stage::Attempt, begin,
                                   node.now(), attempt_no);
            }
            note_inflight(index, begin, node.now());
            return AttemptOutcome{node.now(), hit};
        };
        // One traced PUT attempt against an up node; returns when it
        // acked.
        auto do_put = [&](std::size_t index, Tick begin,
                          unsigned attempt_no) {
            server::ServerModel &node = *nodes_[index];
            node.advanceTo(begin);
            {
                trace::ScopedTraceContext span_ctx(
                    tracer, static_cast<std::uint16_t>(index),
                    client_req);
                node.put(key, params_.valueBytes);
                MERCURY_TRACE_SPAN(tracer, client_req,
                                   trace::Stage::Attempt, begin,
                                   node.now(), attempt_no);
            }
            note_inflight(index, begin, node.now());
            return node.now();
        };
        // Hit accounting for the GET attempt that actually answered
        // the client. A cancelled hedge loser is never accounted:
        // its result is discarded.
        auto account_get = [&](std::size_t index, bool hit) {
            if (measured) {
                ++gets;
                hits += hit ? 1 : 0;
            }
            if (sampler) {
                sampler->count(ch_gets);
                if (hit)
                    sampler->count(ch_hits);
            }
            if (recovering[index] > 0) {
                --recovering[index];
                ++recovery_gets;
                recovery_hits += hit ? 1 : 0;
            }
            // Read-through: a missed key is re-filled after the
            // client got its answer, off the critical path. With
            // replicas this doubles as read repair of a diverged
            // copy.
            if (!hit) {
                nodes_[index]->put(key, params_.valueBytes);
                if (replication >= 2)
                    ++result.readRepairs;
            }
        };
        auto finish_served = [&](std::size_t index, Tick end) {
            outcome = Outcome::Ok;
            answered_at = end;
            const Tick latency = end - arrival;
            ++win_ok;
            if (sampler) {
                sampler->count(ch_ok);
                sampler->recordLatency(
                    ch_lat, static_cast<std::uint64_t>(
                                latency / tickUs));
            }
            if (measured) {
                ++result.ok;
                latencies.push_back(latency);
                per_node[index].push_back(latency);
                ++counts[index];
            }
        };

        // Hedged GET: race the primary against one backup replica;
        // the first answer wins and the loser is cancelled.
        if (outcome == Outcome::Pending && hedging && is_get) {
            std::size_t secondary = 0;
            bool have_secondary = false;
            for (std::size_t r = 1; r < replication; ++r) {
                if (up[order[r]]) {
                    secondary = order[r];
                    have_secondary = true;
                    break;
                }
            }
            if (up[primary]) {
                if (!shed_check(primary, arrival, 0)) {
                    const AttemptOutcome first =
                        do_get(primary, arrival, 0);
                    const Tick delay = hedge_delay();
                    if (have_secondary &&
                        first.end > arrival + delay) {
                        // Primary is past the hedge quantile: fire
                        // the backup.
                        const AttemptOutcome second =
                            do_get(secondary, arrival + delay, 1);
                        if (measured)
                            ++result.hedges;
                        if (sampler)
                            sampler->count(ch_hedges);
                        const bool backup_won =
                            second.end < first.end;
                        if (measured && backup_won)
                            ++result.hedgeWins;
                        const std::size_t winner =
                            backup_won ? secondary : primary;
                        const AttemptOutcome &won =
                            backup_won ? second : first;
                        const Tick won_begin =
                            backup_won ? arrival + delay : arrival;
                        attempt_service.record(
                            (won.end - won_begin) / tickUs);
                        account_get(winner, won.hit);
                        finish_served(winner, won.end);
                    } else {
                        attempt_service.record(
                            (first.end - arrival) / tickUs);
                        account_get(primary, first.hit);
                        finish_served(primary, first.end);
                    }
                }
            } else if (have_secondary) {
                // Dead primary: the hedge rescues the GET at the
                // hedge delay instead of waiting out the full
                // request timeout.
                const Tick delay = hedge_delay();
                if (measured) {
                    ++result.attemptTimeouts;
                    ++result.hedges;
                    ++result.hedgeWins;
                }
                if (sampler) {
                    sampler->count(ch_attempt_timeouts);
                    sampler->count(ch_hedges);
                }
                {
                    trace::ScopedTraceContext span_ctx(
                        tracer,
                        static_cast<std::uint16_t>(primary),
                        client_req);
                    MERCURY_TRACE_SPAN(tracer, client_req,
                                       trace::Stage::Attempt,
                                       arrival, arrival + delay, 0);
                }
                if (!shed_check(secondary, arrival + delay, 1)) {
                    const AttemptOutcome second =
                        do_get(secondary, arrival + delay, 1);
                    attempt_service.record(
                        (second.end - (arrival + delay)) / tickUs);
                    account_get(secondary, second.hit);
                    finish_served(secondary, second.end);
                }
            }
            // Whole replica set down: fall through to the generic
            // walk (which will time out over the replicas).
        }

        // Replicated write round: write every up replica at arrival,
        // hint the down ones for replay at their restart.
        if (outcome == Outcome::Pending && !is_get &&
            replication >= 2) {
            std::size_t first_up = replication;
            for (std::size_t r = 0; r < replication; ++r) {
                if (up[order[r]]) {
                    first_up = r;
                    break;
                }
            }
            if (first_up < replication &&
                !shed_check(order[first_up], arrival,
                            static_cast<unsigned>(first_up))) {
                Tick end = arrival;
                unsigned attempt_no = 0;
                for (std::size_t r = 0; r < replication; ++r) {
                    const std::size_t index = order[r];
                    if (!up[index]) {
                        hints[index].push_back(request.keyId);
                        ++result.hintsQueued;
                        continue;
                    }
                    end = std::max(
                        end, do_put(index, arrival, attempt_no++));
                }
                // The round completes when the slowest replica
                // acked (write-all).
                finish_served(order[first_up], end);
            }
        }

        if (outcome == Outcome::Pending) {
            // Generic failover walk: successive attempts over the
            // order, a timeout per dead node and a jittered backoff
            // before each retry. A replicated write never walks past
            // its replica set -- data must not land on a
            // non-replica.
            const std::size_t walk_span =
                (!is_get && replication >= 2)
                    ? replication
                    : order.size();
            for (unsigned attempt = 0; attempt <= fp.maxRetries;
                 ++attempt) {
                const std::size_t index =
                    order[attempt % walk_span];
                const Tick attempt_begin = arrival + penalty;
                if (!up[index]) {
                    penalty += fp.requestTimeout;
                    if (measured)
                        ++result.attemptTimeouts;
                    if (sampler)
                        sampler->count(ch_attempt_timeouts);
                    {
                        // A timed-out attempt still names the node
                        // the client was waiting on.
                        trace::ScopedTraceContext span_ctx(
                            tracer,
                            static_cast<std::uint16_t>(index),
                            client_req);
                        MERCURY_TRACE_SPAN(tracer, client_req,
                                           trace::Stage::Attempt,
                                           attempt_begin,
                                           arrival + penalty,
                                           attempt);
                    }
                    if (attempt < fp.maxRetries) {
                        if (!retry_allowed()) {
                            // Budget spent: give up now instead of
                            // feeding a retry storm.
                            outcome = Outcome::Failed;
                            answered_at = arrival + penalty;
                            if (measured)
                                ++result.failedRequests;
                            if (sampler)
                                sampler->count(ch_failed);
                            break;
                        }
                        ++retries_spent;
                        const Tick backoff_begin = arrival + penalty;
                        penalty += jitteredBackoff(
                            fp.backoffBase, attempt,
                            fp.backoffJitter, injector_);
                        if (measured)
                            ++result.retries;
                        if (sampler)
                            sampler->count(ch_retries);
                        {
                            trace::ScopedTraceContext span_ctx(
                                tracer, trace::clientNode,
                                client_req);
                            MERCURY_TRACE_SPAN(
                                tracer, client_req,
                                trace::Stage::Backoff,
                                backoff_begin, arrival + penalty,
                                attempt);
                        }
                    }
                    continue;
                }

                if (shed_check(index, attempt_begin, attempt))
                    break;

                if (is_get) {
                    const AttemptOutcome got =
                        do_get(index, attempt_begin, attempt);
                    if (hedging) {
                        attempt_service.record(
                            (got.end - attempt_begin) / tickUs);
                    }
                    account_get(index, got.hit);
                    finish_served(index, got.end);
                } else {
                    finish_served(index,
                                  do_put(index, attempt_begin,
                                         attempt));
                }
                break;
            }
        }

        if (outcome == Outcome::Pending) {
            // Exhausted every attempt against dead nodes.
            outcome = Outcome::TimedOut;
            answered_at = arrival + penalty;
            if (measured)
                ++result.timeouts;
            if (sampler)
                sampler->count(ch_timeouts);
        }
        if (tracer) {
            trace::ScopedTraceContext span_ctx(tracer,
                                               trace::clientNode);
            MERCURY_TRACE_SPAN(tracer, client_req,
                               trace::Stage::Client, arrival,
                               answered_at,
                               outcome == Outcome::Ok ? 1 : 0);
        }
    }

    std::sort(latencies.begin(), latencies.end());
    const stats::LatencySummary summary =
        stats::summarizeSorted(latencies);
    result.avgLatencyUs = summary.meanUs;
    result.p99LatencyUs = summary.p99Us;
    result.p999LatencyUs = summary.p999Us;
    result.subMsFraction = summary.subMsFraction;

    // Hot-node statistics.
    std::size_t hottest = 0;
    for (std::size_t i = 1; i < counts.size(); ++i) {
        if (counts[i] > counts[hottest])
            hottest = i;
    }
    result.hottestNodeShare =
        static_cast<double>(counts[hottest]) /
        static_cast<double>(params_.requests);

    std::vector<double> node_p99s;
    for (auto &v : per_node) {
        std::sort(v.begin(), v.end());
        if (!v.empty())
            node_p99s.push_back(stats::summarizeSorted(v).p99Us);
    }
    const double hot_p99 =
        stats::summarizeSorted(per_node[hottest]).p99Us;
    if (!node_p99s.empty()) {
        std::sort(node_p99s.begin(), node_p99s.end());
        const double median_p99 = node_p99s[node_p99s.size() / 2];
        result.hotNodeTailAmplification =
            median_p99 > 0.0 ? hot_p99 / median_p99 : 0.0;
    }

    if (avail_window > 0)
        close_window();
    result.requests = params_.requests;
    result.availability = static_cast<double>(result.ok) /
                          static_cast<double>(result.requests);
    // The accounting contract: every measured request lands in
    // exactly one outcome class. Always on -- a violation here means
    // a new result class was added without wiring its accounting.
    MERCURY_ASSERT(result.accountedRequests() == result.requests,
                   "request outcomes must partition requests");
    if (gets > 0)
        result.hitRate = static_cast<double>(hits) /
                         static_cast<double>(gets);
    if (recovery_gets > 0)
        result.postRestartHitRate =
            static_cast<double>(recovery_hits) /
            static_cast<double>(recovery_gets);
    for (const auto &node : nodes_) {
        result.netDrops += node->netDrops();
        result.netRetransmits += node->netRetransmits();
    }
    result.faultTimelineDigest = faultDigest();
    if (sampler)
        sampler->finish(arrival);
    return result;
}

} // namespace mercury::cluster
