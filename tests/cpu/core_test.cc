/**
 * @file
 * Unit tests for core timing models.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "cpu/core.hh"
#include "mem/dram.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::cpu;
using namespace mercury::mem;

struct Rig
{
    explicit Rig(CoreParams core_params, bool with_l2 = false,
                 Tick dram_latency = 100 * tickNs)
    {
        DramParams dp = stackedDramParams();
        dp.arrayLatency = dram_latency;
        dram = std::make_unique<DramModel>(dp, &stats);
        caches = std::make_unique<CacheHierarchy>(
            defaultHierarchy(core_params.type, with_l2), dram.get(),
            &stats);
        core = std::make_unique<CoreModel>(core_params, caches.get(),
                                           &stats);
    }

    double
    scalar(const std::string &path) const
    {
        const auto *s =
            dynamic_cast<const stats::Scalar *>(stats.find(path));
        EXPECT_NE(s, nullptr) << path;
        return s ? s->value() : -1.0;
    }

    std::string
    allStats() const
    {
        std::ostringstream os;
        stats.format(os);
        return os.str();
    }

    /** Declared first so it outlives the groups hung off it. */
    stats::StatGroup stats{"rig"};
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<CacheHierarchy> caches;
    std::unique_ptr<CoreModel> core;
};

TEST(CoreModel, PureComputeTimeMatchesIpcAndFrequency)
{
    Rig rig(cortexA7Params());
    OpTrace trace{Op::compute(1000)};
    auto r = rig.core->run(trace, 0);
    // A7: 1 IPC at 1 GHz -> 1000 ns.
    EXPECT_EQ(r.elapsed(), 1000 * tickNs);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_EQ(r.stallTicks, 0u);
}

TEST(CoreModel, FasterClockShortensCompute)
{
    Rig rig(cortexA15Params(1.5));
    OpTrace trace{Op::compute(2300)};
    auto r = rig.core->run(trace, 0);
    // A15: 2.3 IPC at 1.5 GHz -> 1000 cycles -> 666.67 ns.
    EXPECT_NEAR(static_cast<double>(r.elapsed()),
                1000.0 / 1.5 * tickNs, 2.0 * tickNs);
}

TEST(CoreModel, InOrderStallsOnEveryMiss)
{
    Rig rig(cortexA7Params(), false, 100 * tickNs);
    OpTrace trace;
    TraceBuilder(trace).streamRead(0, 8 * 64);
    auto r = rig.core->run(trace, 0);
    // Eight cold misses at ~100 ns each, serialized.
    EXPECT_GE(r.elapsed(), 8 * 100 * tickNs);
    EXPECT_GT(r.stallTicks, r.computeTicks);
}

TEST(CoreModel, OutOfOrderOverlapsIndependentMisses)
{
    CoreParams a15 = cortexA15Params(1.0);
    Rig in_order(cortexA7Params(), false, 100 * tickNs);
    Rig ooo(a15, false, 100 * tickNs);

    OpTrace trace;
    // Strided independent loads across distinct DRAM banks.
    for (int i = 0; i < 16; ++i)
        trace.push_back(Op::load(static_cast<Addr>(i) * 32 * miB,
                                 Stream::Random));

    auto serial = in_order.core->run(trace, 0);
    auto overlapped = ooo.core->run(trace, 0);
    EXPECT_LT(overlapped.elapsed() * 2, serial.elapsed())
        << "OoO must overlap independent misses substantially";
}

TEST(CoreModel, DependentChainSerializesEvenOutOfOrder)
{
    Rig ooo(cortexA15Params(1.0), false, 100 * tickNs);

    OpTrace chain;
    for (int i = 0; i < 16; ++i)
        chain.push_back(Op::load(static_cast<Addr>(i) * 32 * miB,
                                 Stream::Dependent));

    auto r = ooo.core->run(chain, 0);
    EXPECT_GE(r.elapsed(), 16 * 100 * tickNs);
}

TEST(CoreModel, CacheHitsDoNotStall)
{
    Rig rig(cortexA7Params(), false, 100 * tickNs);
    OpTrace warm;
    TraceBuilder(warm).streamRead(0, 4 * 64);
    rig.core->run(warm, 0);

    OpTrace again;
    TraceBuilder(again).streamRead(0, 4 * 64);
    auto r = rig.core->run(again, tickMs);
    EXPECT_LT(r.elapsed(), 20 * tickNs);
}

TEST(CoreModel, CodePassDistributesInstructions)
{
    Rig rig(cortexA7Params(), false, 10 * tickNs);
    OpTrace trace;
    TraceBuilder(trace).codePass(0x100000, 64 * 64, 6400);
    auto r = rig.core->run(trace, 0);
    EXPECT_EQ(r.instructions, 6400u);
    EXPECT_EQ(r.memOps, 64u);
}

/** The per-line IFetch + Compute ops a code pass stands for. */
OpTrace
expandCodePass(Addr base, std::uint64_t bytes,
               std::uint64_t instructions)
{
    OpTrace out;
    const std::uint64_t lines = (bytes + 63) / 64;
    if (lines == 0) {
        if (instructions > 0)
            out.push_back(Op::compute(instructions));
        return out;
    }
    for (std::uint64_t i = 0; i < lines; ++i) {
        out.push_back(Op::ifetch(base + i * 64, Stream::Sequential));
        const std::uint64_t instr =
            instructions / lines + (i < instructions % lines ? 1 : 0);
        if (instr > 0)
            out.push_back(Op::compute(instr));
    }
    return out;
}

void
expectSameRun(const RunResult &a, const RunResult &b, int trial)
{
    EXPECT_EQ(a.start, b.start) << "trial " << trial;
    EXPECT_EQ(a.end, b.end) << "trial " << trial;
    EXPECT_EQ(a.computeTicks, b.computeTicks) << "trial " << trial;
    EXPECT_EQ(a.stallTicks, b.stallTicks) << "trial " << trial;
    EXPECT_EQ(a.instructions, b.instructions) << "trial " << trial;
    EXPECT_EQ(a.memOps, b.memOps) << "trial " << trial;
}

class CodePassExpansion
    : public ::testing::TestWithParam<std::tuple<CoreType, bool>>
{};

TEST_P(CodePassExpansion, RunLengthOpMatchesItsExpansion)
{
    auto [type, with_l2] = GetParam();
    const CoreParams params = type == CoreType::CortexA7
                                  ? cortexA7Params()
                                  : type == CoreType::CortexA15
                                        ? cortexA15Params(1.5)
                                        : xeonParams();
    Rig coded(params, with_l2);
    Rig expanded(params, with_l2);

    Rng rng(static_cast<std::uint64_t>(type) * 2 + with_l2);
    Tick now = 0;
    for (int trial = 0; trial < 300; ++trial) {
        OpTrace run_length;
        OpTrace by_hand;
        TraceBuilder b(run_length);
        for (int pass = 0; pass < 4; ++pass) {
            // Region sizes include 0 and sizes off the line grid;
            // instruction counts include 0 and counts below the
            // line count, so some lines get no instructions.
            const std::uint64_t bytes =
                rng.nextBool(0.1) ? 0 : rng.nextInt(48 * kiB);
            const std::uint64_t lines = (bytes + 63) / 64;
            std::uint64_t instr = 0;
            switch (rng.nextInt(3)) {
              case 0: instr = rng.nextInt(lines + 1); break;
              case 1: instr = rng.nextInt(50 * lines + 1); break;
              default: instr = rng.nextInt(4); break;
            }
            const Addr base = rng.nextInt(256) * 4 * kiB;
            b.codePass(base, bytes, instr);
            const OpTrace ops = expandCodePass(base, bytes, instr);
            by_hand.insert(by_hand.end(), ops.begin(), ops.end());

            // Data traffic between passes: dirty lines, writebacks
            // and misses still in flight when the next pass starts.
            for (int i = 0; i < 8; ++i) {
                const Addr addr = 4 * miB + rng.nextInt(16 * kiB) * 64;
                const Op op = rng.nextBool(0.5)
                                  ? Op::store(addr, Stream::Random)
                                  : Op::load(addr, Stream::Random);
                run_length.push_back(op);
                by_hand.push_back(op);
            }
        }

        const RunResult a = coded.core->run(run_length, now);
        const RunResult r = expanded.core->run(by_hand, now);
        expectSameRun(a, r, trial);
        now = a.end + rng.nextInt(1000) * tickNs;
    }

    for (const char *counter :
         {"caches.l1iHits", "caches.l1iMisses", "caches.l1dHits",
          "caches.l1dMisses", "caches.l2Hits", "caches.l2Misses",
          "caches.writebacks", "caches.memAccesses"}) {
        EXPECT_EQ(coded.scalar(counter), expanded.scalar(counter))
            << counter;
    }
    EXPECT_GT(coded.scalar("caches.l1iMisses"), 0.0);
    EXPECT_GT(coded.scalar("caches.writebacks"), 0.0);
    EXPECT_EQ(coded.scalar("stackedDram.reads"),
              expanded.scalar("stackedDram.reads"));
    EXPECT_GT(coded.scalar("stackedDram.reads"), 0.0);
    EXPECT_EQ(coded.allStats(), expanded.allStats());
}

INSTANTIATE_TEST_SUITE_P(
    CoresAndL2, CodePassExpansion,
    ::testing::Combine(::testing::Values(CoreType::CortexA7,
                                         CoreType::CortexA15,
                                         CoreType::XeonClass),
                       ::testing::Bool()));

TEST(CoreModel, EmptyCodePassOpIsRejected)
{
    contract::ScopedContractThrow guard;
    EXPECT_THROW(Op::codePass(0, 0, 100), contract::ContractViolation);
}

TEST(CoreModel, L2TurnsRepeatSweepsIntoL2Hits)
{
    // The Iridium argument (Sec. 4.2.1): with a 2 MB L2 the
    // instruction footprint stays on-stack-SRAM instead of flash.
    Rig with_l2(cortexA7Params(), true, 100 * tickNs);
    Rig without(cortexA7Params(), false, 100 * tickNs);

    OpTrace sweep;
    // 128 KiB code footprint: thrashes 32 KiB L1I, fits in L2.
    TraceBuilder(sweep).codePass(0, 128 * kiB, 10000);

    with_l2.core->run(sweep, 0);
    without.core->run(sweep, 0);
    auto warm_l2 = with_l2.core->run(sweep, tickSec);
    auto warm_no = without.core->run(sweep, tickSec);

    EXPECT_LT(warm_l2.elapsed(), warm_no.elapsed());
    // With the L2 the second sweep generates no memory traffic at
    // all: 2048 cold fills total vs 2048 per sweep without it.
    EXPECT_EQ(with_l2.caches->memoryAccesses(), 2048u);
    EXPECT_EQ(without.caches->memoryAccesses(), 4096u);
}

TEST(CoreModel, PresetsMatchPaperTable1)
{
    EXPECT_DOUBLE_EQ(cortexA7Params().activePowerW, 0.1);
    EXPECT_DOUBLE_EQ(cortexA7Params().areaMm2, 0.58);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.0).activePowerW, 0.6);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.5).activePowerW, 1.0);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.5).areaMm2, 2.82);
    EXPECT_FALSE(cortexA7Params().outOfOrder);
    EXPECT_TRUE(cortexA15Params(1.0).outOfOrder);
    EXPECT_TRUE(xeonParams().outOfOrder);
}

TEST(CoreModel, RunResultAccountingIsConsistent)
{
    Rig rig(cortexA7Params(), false, 50 * tickNs);
    OpTrace trace;
    TraceBuilder(trace)
        .compute(500)
        .streamRead(0x2000, 4 * 64)
        .compute(500);
    auto r = rig.core->run(trace, 12345);
    EXPECT_EQ(r.start, 12345u);
    EXPECT_EQ(r.end, r.start + r.elapsed());
    EXPECT_EQ(r.computeTicks + r.stallTicks, r.elapsed());
}

} // anonymous namespace
