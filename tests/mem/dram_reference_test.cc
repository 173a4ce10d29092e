/**
 * @file
 * Seeded fuzz of DramModel against the division-based reference
 * model: identical access streams must give identical completion
 * ticks and identical row-hit, queue, refresh and traffic counters,
 * for every preset, with refresh on and off, under both page
 * policies, for cache-line and other access sizes.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>

#include "mem/dram.hh"
#include "reference_dram.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

struct Preset
{
    const char *name;
    DramParams (*make)();
};

const Preset presets[] = {
    {"stackedDram", stackedDramParams}, {"ddr3", ddr3Params},
    {"ddr4", ddr4Params},               {"lpddr3", lpddr3Params},
    {"hmc1", hmc1Params},               {"wideIo", wideIoParams},
    {"octopus", octopusParams},
};

class DramReferenceFuzz
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{};

double
stat(const DramModel &dram, const char *name)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(
        dram.statGroup().find(name));
    EXPECT_NE(s, nullptr) << name;
    return s ? s->value() : -1.0;
}

/** Random, row-local and port-crossing addresses, some above the
 * capacity so the wrap is exercised too. */
Addr
fuzzAddr(Rng &rng, const DramParams &p, Addr &last)
{
    const std::uint64_t pick = rng.nextInt(10);
    if (pick < 3)
        last += rng.nextInt(p.rowBytes);
    else if (pick < 5)
        last += p.capacity / p.numPorts;
    else
        last = rng.nextInt(2 * p.capacity);
    return last;
}

unsigned
fuzzSize(Rng &rng)
{
    if (rng.nextBool(0.7))
        return 64;
    static const unsigned sizes[] = {1, 8, 32, 63, 65, 128, 256, 4096};
    if (rng.nextBool(0.8))
        return sizes[rng.nextInt(std::size(sizes))];
    return 1 + static_cast<unsigned>(rng.nextInt(16 * kiB));
}

TEST_P(DramReferenceFuzz, MatchesReferenceModel)
{
    const auto [index, refresh] = GetParam();
    const Preset &preset = presets[index];
    for (const PagePolicy policy : {PagePolicy::Closed, PagePolicy::Open}) {
        DramParams p = preset.make();
        p.modelRefresh = refresh;
        p.pagePolicy = policy;
        DramModel fast(p);
        ReferenceDram ref(p);
        SCOPED_TRACE(std::string(preset.name) +
                     (policy == PagePolicy::Open ? " open" : " closed"));

        Rng rng(index * 31 + refresh * 7 +
                (policy == PagePolicy::Open ? 1 : 0));
        Tick now = 0;
        Addr last = 0;
        for (int i = 0; i < 20'000; ++i) {
            // Bursts at one tick queue behind busy banks and ports;
            // gaps walk the clock across refresh windows.
            if (rng.nextBool(0.5))
                now += rng.nextInt(200 * tickNs);
            const AccessType type = rng.nextBool(0.3) ? AccessType::Write
                                                      : AccessType::Read;
            const Addr addr = fuzzAddr(rng, p, last);
            const unsigned size = fuzzSize(rng);
            ASSERT_EQ(fast.access(type, addr, size, now),
                      ref.access(type, addr, size, now))
                << "access #" << i << " addr " << addr << " size "
                << size;
        }

        EXPECT_EQ(stat(fast, "reads"), ref.reads);
        EXPECT_EQ(stat(fast, "writes"), ref.writes);
        EXPECT_EQ(stat(fast, "bytesRead"), ref.bytesRead);
        EXPECT_EQ(stat(fast, "bytesWritten"), ref.bytesWritten);
        EXPECT_EQ(stat(fast, "rowHits"), ref.rowHits);
        EXPECT_EQ(stat(fast, "rowMisses"), ref.rowMisses);
        EXPECT_EQ(stat(fast, "portQueueTicks"), ref.portQueueTicks);
        EXPECT_EQ(stat(fast, "refreshStallTicks"), ref.refreshStallTicks);
        // The stream must reach the paths it is meant to check.
        EXPECT_GT(ref.portQueueTicks, 0.0);
        if (policy == PagePolicy::Open) {
            EXPECT_GT(ref.rowHits, 0.0);
        }
        if (refresh) {
            EXPECT_GT(ref.refreshStallTicks, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, DramReferenceFuzz,
    ::testing::Combine(::testing::Range(0u, unsigned(std::size(presets))),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(presets[std::get<0>(info.param)].name) +
               (std::get<1>(info.param) ? "_refresh" : "_norefresh");
    });

} // anonymous namespace
