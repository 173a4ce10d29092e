/**
 * @file
 * Seeded fuzz of SetAssocCache against the division-based reference
 * model: identical operation streams must give identical hits,
 * victims (address and dirty bit). A probe-then-fill pair, the
 * hierarchy's single-scan miss path, must match the reference's
 * touch followed by its two-scan insert.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "mem/cache.hh"
#include "reference_set_assoc_cache.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

class CacheReferenceFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{};

/** An address that lands in a conflict-heavy set or anywhere in a
 * footprint of twice the capacity, at a random byte of its line;
 * now and then far above the footprint, so tags use high bits. */
Addr
fuzzAddr(Rng &rng, std::uint64_t num_sets, unsigned assoc)
{
    std::uint64_t line;
    if (rng.nextBool(0.5)) {
        const std::uint64_t set = rng.nextInt(std::min<std::uint64_t>(
            num_sets, 4));
        line = rng.nextInt(3 * assoc) * num_sets + set;
    } else {
        line = rng.nextInt(2 * num_sets * assoc);
    }
    if (rng.nextBool(0.02))
        line += std::uint64_t{1} << 40;
    return line * 64 + rng.nextInt(64);
}

std::string
describe(const std::optional<Victim> &v)
{
    if (!v)
        return "none";
    return std::to_string(v->lineAddr) + (v->dirty ? " dirty" : " clean");
}

TEST_P(CacheReferenceFuzz, MatchesReferenceModel)
{
    auto [size_bytes, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_bytes;
    params.assoc = assoc;
    SetAssocCache fast(params);
    ReferenceSetAssocCache ref(params);
    const std::uint64_t num_sets = fast.numSets();

    Rng rng(size_bytes * 7 + assoc);
    std::uint64_t hits = 0;
    std::uint64_t victims = 0;
    for (int i = 0; i < 40'000; ++i) {
        const Addr addr = fuzzAddr(rng, num_sets, assoc);
        const std::uint64_t pick = rng.nextInt(1000);
        if (pick < 250) {
            const bool dirty = rng.nextBool(0.3);
            const auto a = fast.insert(addr, dirty);
            const auto b = ref.insert(addr, dirty);
            ASSERT_EQ(describe(a), describe(b))
                << "insert #" << i << " addr " << addr;
            victims += a.has_value();
        } else if (pick < 400) {
            const bool hit = fast.probe(addr, false).hit;
            ASSERT_EQ(hit, ref.lookup(addr))
                << "lookup #" << i << " addr " << addr;
            hits += hit;
        } else if (pick < 550) {
            // A probe whose miss is not filled leaves the set alone.
            const bool dirty = rng.nextBool(0.5);
            const bool hit = fast.probe(addr, dirty).hit;
            ASSERT_EQ(hit, ref.touch(addr, dirty))
                << "touch #" << i << " addr " << addr;
            hits += hit;
        } else if (pick < 999) {
            const bool dirty = rng.nextBool(0.3);
            const SetAssocCache::Probe p = fast.probe(addr, dirty);
            ASSERT_EQ(p.hit, ref.touch(addr, dirty))
                << "probe #" << i << " addr " << addr;
            hits += p.hit;
            if (!p.hit) {
                const auto a = fast.fill(addr, p.way, dirty);
                const auto b = ref.insert(addr, dirty);
                ASSERT_EQ(describe(a), describe(b))
                    << "fill #" << i << " addr " << addr;
                victims += a.has_value();
            }
        } else {
            fast.flush();
            ref.flush();
        }
    }
    // The stream must actually exercise hits and evictions.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(victims, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceFuzz,
    ::testing::Values(std::make_tuple(1 * kiB, 1u),
                      std::make_tuple(4 * kiB, 2u),
                      std::make_tuple(32 * kiB, 4u),
                      std::make_tuple(32 * kiB, 8u),
                      std::make_tuple(256 * kiB, 16u),
                      std::make_tuple(2 * miB, 16u)));

} // anonymous namespace
