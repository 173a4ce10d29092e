/**
 * @file
 * Seeded fuzz of NicGetCache against the std::list + std::map
 * reference cache: identical lookup (fresh and expired entries),
 * fill (new keys, refills, oversize values), invalidate and clear
 * streams must give identical answers, sizes and counters. The key
 * space is a few times the capacity, so evictions and index probe
 * collisions are common.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "net/datapath.hh"
#include "reference_nic_cache.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::net;

class NicCacheReferenceFuzz : public ::testing::TestWithParam<unsigned>
{};

std::string
describe(const std::optional<std::string_view> &v)
{
    return v ? "hit:" + std::string(*v) : "miss";
}

TEST_P(NicCacheReferenceFuzz, MatchesReferenceModel)
{
    const unsigned capacity = GetParam();
    DatapathParams params;
    params.nicCacheEntries = capacity;
    params.nicCacheMaxValueBytes = 48;
    NicGetCache fast(params);
    ReferenceNicCache ref(params);

    Rng rng(capacity * 131 + 3);
    const std::uint64_t keys = 3 * capacity + 5;
    std::uint64_t clock = 1;
    for (int i = 0; i < 60'000; ++i) {
        const std::string key = "key:" + std::to_string(rng.nextInt(keys));
        const std::uint64_t pick = rng.nextInt(1000);
        if (pick < 450) {
            clock += rng.nextInt(3);
            const auto a = fast.lookup(key, clock);
            const auto b = ref.lookup(key, clock);
            ASSERT_EQ(describe(a), describe(b))
                << "lookup #" << i << " " << key << " at " << clock;
        } else if (pick < 900) {
            // Short values and, now and then, one over the cap; a
            // third expire within a few ticks.
            const auto length = static_cast<std::size_t>(
                rng.nextBool(0.05) ? 49 + rng.nextInt(16)
                                   : rng.nextInt(40));
            const std::string value(length,
                                    static_cast<char>('a' + i % 26));
            const std::uint64_t expiry =
                rng.nextBool(0.33) ? clock + 1 + rng.nextInt(6) : 0;
            fast.fill(key, value, expiry);
            ref.fill(key, value, expiry);
        } else if (pick < 998) {
            fast.invalidate(key);
            ref.invalidate(key);
        } else {
            fast.clear();
            ref.clear();
        }
        ASSERT_EQ(fast.size(), ref.size()) << "op #" << i;
        ASSERT_EQ(fast.hits(), ref.hits) << "op #" << i;
        ASSERT_EQ(fast.misses(), ref.misses) << "op #" << i;
        ASSERT_EQ(fast.fills(), ref.fills) << "op #" << i;
        ASSERT_EQ(fast.evictions(), ref.evictions) << "op #" << i;
        ASSERT_EQ(fast.invalidations(), ref.invalidations)
            << "op #" << i;
    }
    // The stream must exercise hits, evictions and expiry.
    EXPECT_GT(ref.hits, 1000u);
    EXPECT_GT(ref.evictions, 1000u);
    EXPECT_GT(ref.invalidations, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, NicCacheReferenceFuzz,
                         ::testing::Values(1u, 2u, 7u, 256u));

} // anonymous namespace
