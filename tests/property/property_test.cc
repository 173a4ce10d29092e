/**
 * @file
 * Cross-module property tests: parameterized sweeps over geometry
 * and configuration space, checking invariants rather than specific
 * values.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "kvstore/hash_table.hh"
#include "kvstore/hash.hh"
#include "kvstore/store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "server/server_model.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

// ---------------------------------------------------------------
// Cache geometry sweep: (size KiB, associativity)
// ---------------------------------------------------------------

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheGeometryTest, HitAfterInsertAcrossGeometries)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    Rng rng(size_kib * 131 + assoc);
    std::vector<Addr> inserted;
    for (int i = 0; i < 200; ++i) {
        const Addr addr = rng.nextInt(1 * miB) & ~Addr(63);
        cache.insert(addr, false);
        EXPECT_TRUE(cache.probe(addr, false).hit)
            << "freshly inserted line must be resident";
        inserted.push_back(addr);
    }
}

TEST_P(CacheGeometryTest, CapacityIsRespected)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    // Insert exactly capacity distinct lines: no eviction needed.
    const unsigned lines = size_kib * kiB / 64;
    unsigned victims = 0;
    for (unsigned i = 0; i < lines; ++i) {
        if (cache.insert(i * 64, false).has_value())
            ++victims;
    }
    EXPECT_EQ(victims, 0u)
        << "a sequential fill of exactly capacity must not evict";

    // One more line in any set must evict exactly one.
    auto victim = cache.insert(lines * 64, false);
    EXPECT_TRUE(victim.has_value());
}

TEST_P(CacheGeometryTest, LruNeverEvictsTheMostRecent)
{
    auto [size_kib, assoc] = GetParam();
    if (assoc < 2) {
        // A direct-mapped cache has no choice: a set conflict always
        // evicts the (only) resident line, recent or not.
        GTEST_SKIP();
    }
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    Rng rng(99 + size_kib + assoc);
    Addr last = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.nextInt(4 * miB) & ~Addr(63);
        auto victim = cache.insert(addr, false);
        if (victim) {
            EXPECT_NE(victim->lineAddr, last)
                << "the immediately previous insert is MRU in its "
                   "set and must never be the victim";
        }
        last = addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(1u, 1u),
                      std::make_tuple(4u, 2u),
                      std::make_tuple(32u, 4u),
                      std::make_tuple(32u, 8u),
                      std::make_tuple(256u, 16u)));

// ---------------------------------------------------------------
// Flash page-size sweep
// ---------------------------------------------------------------

class FlashPageSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(FlashPageSweep, SequentialReadCostsOneSensePerPage)
{
    FlashParams params;
    params.numChannels = 1;
    params.capacity = 16 * miB;
    params.pageBytes = GetParam();
    params.pagesPerBlock = 32;
    FlashController flash(params);

    // Map 16 pages, drain, then stream them.
    const unsigned pages = 16;
    Tick now = 0;
    for (unsigned p = 0; p < pages; ++p) {
        for (unsigned line = 0; line < params.pageBytes / 64;
             ++line) {
            now = flash.access(AccessType::Write,
                               p * params.pageBytes + line * 64, 64,
                               now);
        }
    }
    now = flash.drainWrites(now);

    const Tick begin = now;
    for (unsigned p = 0; p < pages; ++p) {
        for (unsigned line = 0; line < params.pageBytes / 64;
             ++line) {
            now = flash.access(AccessType::Read,
                               p * params.pageBytes + line * 64, 64,
                               now);
        }
    }
    const Tick elapsed = now - begin;
    const Tick transfer_per_page = secondsToTicks(
        static_cast<double>(params.pageBytes) /
        params.channelBandwidth);
    const Tick expected =
        pages * (params.readLatency + transfer_per_page);
    EXPECT_GE(elapsed, pages * params.readLatency);
    // One sense per page plus line transfers, within 15% slack.
    EXPECT_LE(elapsed,
              expected + expected / 7);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, FlashPageSweep,
                         ::testing::Values(512u, 2048u, 4096u,
                                           16384u));

// ---------------------------------------------------------------
// Hash-table load sweep
// ---------------------------------------------------------------

class TableLoadSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TableLoadSweep, MeanChainStaysBoundedByExpansion)
{
    using namespace mercury::kvstore;
    const unsigned items = GetParam();

    HashTable table(6);  // 64 buckets; must expand under load
    std::vector<std::unique_ptr<char[]>> storage;
    for (unsigned i = 0; i < items; ++i) {
        const std::string key = "k" + std::to_string(i);
        storage.push_back(std::make_unique<char[]>(
            Item::totalSize(key.size(), 1)));
        Item *item = new (storage.back().get()) Item();
        item->setKey(key);
        item->setValue("v");
        table.insert(item, hashKey(key));
    }
    while (table.expanding())
        table.migrateStep(64);

    // Load factor must be kept under the expansion threshold.
    EXPECT_LT(table.loadFactor(), 1.5 + 1e-9);

    double chain_sum = 0;
    for (unsigned i = 0; i < items; ++i) {
        const std::string key = "k" + std::to_string(i);
        chain_sum += table.find(key, hashKey(key)).chainLength;
    }
    EXPECT_LT(chain_sum / items, 2.5)
        << "mean probe length must stay O(1) at any scale";
}

INSTANTIATE_TEST_SUITE_P(Loads, TableLoadSweep,
                         ::testing::Values(100u, 1000u, 10000u,
                                           50000u));

// ---------------------------------------------------------------
// Server-model request-size sweep
// ---------------------------------------------------------------

class ServerSizeSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ServerSizeSweep, InvariantsAcrossRequestSizes)
{
    using namespace mercury::server;
    const std::uint32_t size = GetParam();

    ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = false;
    params.storeMemLimit = 64 * miB;
    ServerModel node(params);

    const Measurement get = node.measureGets(size, 8, 2);
    const Measurement put = node.measurePuts(size, 8, 2);

    // Throughput and latency are reciprocal.
    EXPECT_NEAR(get.avgTps * get.avgRttUs / 1e6, 1.0, 0.05);
    // PUTs never beat GETs of the same size.
    EXPECT_LE(put.avgTps, get.avgTps * 1.02);
    // Breakdown fractions form a partition (wire, kernel and
    // NIC-cache time are reported separately since the datapath
    // split; networkFraction() re-aggregates the first three).
    const double total = get.avgBreakdown.wireFraction() +
                         get.avgBreakdown.netstackFraction() +
                         get.avgBreakdown.nicCacheFraction() +
                         get.avgBreakdown.hashFraction() +
                         get.avgBreakdown.memcachedFraction();
    EXPECT_NEAR(total, 1.0, 1e-6);
    EXPECT_NEAR(get.avgBreakdown.networkFraction() +
                    get.avgBreakdown.hashFraction() +
                    get.avgBreakdown.memcachedFraction(),
                1.0, 1e-6);
    // Goodput equals size x TPS.
    EXPECT_NEAR(get.goodput, get.avgTps * size,
                0.05 * get.goodput + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ServerSizeSweep,
                         ::testing::Values(64u, 512u, 4096u, 32768u,
                                           262144u));

// ---------------------------------------------------------------
// DRAM latency monotonicity at the device level
// ---------------------------------------------------------------

TEST(DramLatencyProperty, ServerTpsIsMonotoneInArrayLatency)
{
    using namespace mercury::server;
    double last_tps = 1e18;
    for (Tick latency : {10u, 30u, 50u, 100u}) {
        ServerModelParams params;
        params.core = cpu::cortexA7Params();
        params.withL2 = false;
        params.dramArrayLatency = latency * tickNs;
        params.storeMemLimit = 32 * miB;
        ServerModel node(params);
        const double tps = node.measureGets(64, 8, 2).avgTps;
        EXPECT_LT(tps, last_tps) << latency;
        last_tps = tps;
    }
}

// ---------------------------------------------------------------
// Store/workload end-to-end property
// ---------------------------------------------------------------

TEST(StoreZipfProperty, HitRateImprovesWithSkewUnderEviction)
{
    using namespace mercury::kvstore;
    using namespace mercury::workload;

    auto run = [](double theta) {
        StoreParams sp;
        sp.memLimit = 2 * miB;  // holds ~25% of the keyspace
        Store store(sp);

        WorkloadParams wp;
        wp.numKeys = 20000;
        wp.popularity = Popularity::Zipf;
        wp.zipfTheta = theta;
        wp.valueSize = ValueSizeDist::fixed(64);
        wp.getFraction = 0.5;
        wp.seed = 5;
        WorkloadGenerator gen(wp);

        std::uint64_t hits = 0, gets = 0;
        for (int i = 0; i < 60000; ++i) {
            const Request request = gen.next();
            const std::string key =
                WorkloadGenerator::keyFor(request.keyId);
            if (request.op == Request::Op::Get) {
                ++gets;
                if (store.get(key).hit)
                    ++hits;
            } else {
                store.set(key, "0123456789abcdef");
            }
        }
        return static_cast<double>(hits) /
               static_cast<double>(gets);
    };

    const double skewed = run(0.99);
    const double flat = run(0.3);
    EXPECT_GT(skewed, flat)
        << "LRU caching must exploit popularity skew";
}

} // anonymous namespace
