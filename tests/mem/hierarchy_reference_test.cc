/**
 * @file
 * Seeded fuzz of CacheHierarchy against a reference hierarchy built
 * from ReferenceSetAssocCache levels with the plain miss walk: probe
 * L1 with touch(), probe L2 with touch(), then a checked insert() at
 * each level that rescans the set for presence and for the victim.
 * The production walk scans each set once per miss and fills the
 * way that scan picked; both must give the same completion tick,
 * the same servicing level and the same eight counters on every
 * access, with and without an L2 and in both store modes.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "reference_set_assoc_cache.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

/** The hierarchy walk as written before the single-scan miss path. */
class ReferenceHierarchy
{
  public:
    ReferenceHierarchy(const HierarchyParams &params, MemDevice *memory)
        : params_(params), memory_(memory), l1i_(params.l1i),
          l1d_(params.l1d)
    {
        if (params_.hasL2)
            l2_.emplace(params_.l2);
    }

    AccessResult
    access(CpuAccessKind kind, Addr addr, Tick now)
    {
        const bool ifetch = kind == CpuAccessKind::IFetch;
        ReferenceSetAssocCache &l1 = ifetch ? l1i_ : l1d_;
        const CacheParams &l1p = ifetch ? params_.l1i : params_.l1d;
        double &hits = ifetch ? l1iHits : l1dHits;
        double &misses = ifetch ? l1iMisses : l1dMisses;

        const bool store = kind == CpuAccessKind::Store;
        const bool dirtying = store && !params_.writeThroughStores;
        const Tick after_l1 = now + l1p.hitLatency;

        if (l1.touch(addr, dirtying)) {
            ++hits;
            if (store && params_.writeThroughStores) {
                ++memAccesses;
                return {memory_->access(AccessType::Write, addr,
                                        l1p.lineBytes, after_l1),
                        ServicedBy::Memory};
            }
            return {after_l1, ServicedBy::L1};
        }

        ++misses;
        if (store && params_.writeThroughStores) {
            ++memAccesses;
            return {memory_->access(AccessType::Write, addr,
                                    l1p.lineBytes, after_l1),
                    ServicedBy::Memory};
        }
        const AccessResult below = fillFromBelow(addr, store, after_l1);

        const auto victim = l1.insert(addr, store);
        if (victim && victim->dirty) {
            ++writebacks;
            if (l2_) {
                l2_->insert(victim->lineAddr, true);
            } else {
                memory_->access(AccessType::Write, victim->lineAddr,
                                l1p.lineBytes, below.completion);
            }
        }
        return below;
    }

    double l1iHits = 0;
    double l1iMisses = 0;
    double l1dHits = 0;
    double l1dMisses = 0;
    double l2Hits = 0;
    double l2Misses = 0;
    double writebacks = 0;
    double memAccesses = 0;

  private:
    AccessResult
    fillFromBelow(Addr line_addr, bool store, Tick now)
    {
        const unsigned line_bytes = params_.l1d.lineBytes;
        if (l2_) {
            const Tick after_l2 = now + params_.l2.hitLatency;
            if (l2_->touch(line_addr, store)) {
                ++l2Hits;
                return {after_l2, ServicedBy::L2};
            }
            ++l2Misses;
            ++memAccesses;
            const Tick mem_done = memory_->access(
                AccessType::Read, line_addr, line_bytes, after_l2);
            const auto victim = l2_->insert(line_addr, store);
            if (victim && victim->dirty) {
                ++writebacks;
                memory_->access(AccessType::Write, victim->lineAddr,
                                line_bytes, mem_done);
            }
            return {mem_done, ServicedBy::Memory};
        }
        ++memAccesses;
        return {memory_->access(AccessType::Read, line_addr, line_bytes,
                                now),
                ServicedBy::Memory};
    }

    HierarchyParams params_;
    MemDevice *memory_;
    ReferenceSetAssocCache l1i_;
    ReferenceSetAssocCache l1d_;
    std::optional<ReferenceSetAssocCache> l2_;
};

/** Small caches, so a short stream reaches every eviction path, or
 * the A15 geometry (2-way L1D, 16-way 2 MB L2) the paper runs. */
HierarchyParams
geometry(bool small)
{
    HierarchyParams hp;
    if (small) {
        hp.l1i = {"l1i", 4 * kiB, 2, 64, 1 * tickNs};
        hp.l1d = {"l1d", 4 * kiB, 4, 64, 1 * tickNs};
        hp.l2 = {"l2", 32 * kiB, 8, 64, 20 * tickNs};
    } else {
        hp.l1i = {"l1i", 32 * kiB, 2, 64, 1 * tickNs};
        hp.l1d = {"l1d", 32 * kiB, 2, 64, 1 * tickNs};
        hp.l2 = {"l2", 2 * miB, 16, 64, 25 * tickNs};
    }
    return hp;
}

/** A line in one of a few L2 sets (so L1 and L2 sets conflict) or
 * anywhere in a footprint of twice the L2, at a random byte. */
Addr
fuzzAddr(Rng &rng, const HierarchyParams &hp)
{
    const std::uint64_t l2_sets = hp.l2.sizeBytes / (64 * hp.l2.assoc);
    std::uint64_t line;
    if (rng.nextBool(0.6)) {
        line = rng.nextInt(3 * hp.l2.assoc) * l2_sets + rng.nextInt(4);
    } else {
        line = rng.nextInt(2 * hp.l2.sizeBytes / 64);
    }
    return line * 64 + rng.nextInt(64);
}

class HierarchyReferenceFuzz
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>>
{};

TEST_P(HierarchyReferenceFuzz, MatchesReferenceWalk)
{
    const auto [small, has_l2, write_through] = GetParam();
    HierarchyParams hp = geometry(small);
    hp.hasL2 = has_l2;
    hp.writeThroughStores = write_through;

    DramModel fast_dram(stackedDramParams());
    DramModel ref_dram(stackedDramParams());
    stats::StatGroup root("root");
    CacheHierarchy fast(hp, &fast_dram, &root);
    ReferenceHierarchy ref(hp, &ref_dram);

    const auto counter = [&](const char *name) {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            root.find(std::string("caches.") + name));
        EXPECT_NE(s, nullptr) << name;
        return s;
    };
    const struct
    {
        const stats::Scalar *fast;
        const double *ref;
        const char *name;
    } counters[] = {
        {counter("l1iHits"), &ref.l1iHits, "l1iHits"},
        {counter("l1iMisses"), &ref.l1iMisses, "l1iMisses"},
        {counter("l1dHits"), &ref.l1dHits, "l1dHits"},
        {counter("l1dMisses"), &ref.l1dMisses, "l1dMisses"},
        {counter("l2Hits"), &ref.l2Hits, "l2Hits"},
        {counter("l2Misses"), &ref.l2Misses, "l2Misses"},
        {counter("writebacks"), &ref.writebacks, "writebacks"},
        {counter("memAccesses"), &ref.memAccesses, "memAccesses"},
    };
    for (const auto &c : counters)
        ASSERT_NE(c.fast, nullptr) << c.name;

    Rng rng(small * 4 + has_l2 * 2 + write_through + 17);
    Tick now = 0;
    for (int i = 0; i < 30'000; ++i) {
        const std::uint64_t pick = rng.nextInt(10);
        const CpuAccessKind kind = pick < 3   ? CpuAccessKind::IFetch
                                   : pick < 7 ? CpuAccessKind::Load
                                              : CpuAccessKind::Store;
        const Addr addr = fuzzAddr(rng, hp);
        const AccessResult a = fast.access(kind, addr, now);
        const AccessResult b = ref.access(kind, addr, now);
        ASSERT_EQ(a.completion, b.completion)
            << "access #" << i << " addr " << addr;
        ASSERT_EQ(a.source, b.source)
            << "access #" << i << " addr " << addr;
        for (const auto &c : counters) {
            ASSERT_EQ(c.fast->value(), *c.ref)
                << c.name << " after access #" << i;
        }
        // Mostly back-to-back, so the device queues; now and then
        // wait for the access to finish.
        now = rng.nextBool(0.2) ? a.completion : now + tickNs;
    }

    // The stream must reach hits, misses and dirty writebacks at
    // every level the configuration has.
    EXPECT_GT(ref.l1iHits, 0.0);
    EXPECT_GT(ref.l1dHits, 0.0);
    EXPECT_GT(ref.l1dMisses, 0.0);
    if (has_l2) {
        EXPECT_GT(ref.l2Hits, 0.0);
        EXPECT_GT(ref.l2Misses, 0.0);
    }
    if (!write_through) {
        EXPECT_GT(ref.writebacks, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HierarchyReferenceFuzz,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "Small" : "A15") +
               (std::get<1>(info.param) ? "_L2" : "_NoL2") +
               (std::get<2>(info.param) ? "_WriteThrough" : "_WriteBack");
    });

} // anonymous namespace
