/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/stats.hh"

namespace
{

using namespace mercury::stats;

TEST(ScalarStat, AccumulatesAndResets)
{
    StatGroup group("g");
    Scalar s(&group, "requests", "number of requests");

    ++s;
    s += 4.0;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s -= 2.0;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(ScalarStat, AssignmentSetsGaugeValue)
{
    StatGroup group("g");
    Scalar s(&group, "gauge", "a gauge");
    s = 123.5;
    EXPECT_DOUBLE_EQ(s.value(), 123.5);
}

TEST(AverageStat, MeanOfSamples)
{
    StatGroup group("g");
    Average a(&group, "latency", "latency");
    a.sample(10.0);
    a.sample(20.0);
    a.sample(30.0);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(AverageStat, EmptyMeanIsZero)
{
    StatGroup group("g");
    Average a(&group, "latency", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(StatGroup, FormatIncludesHierarchy)
{
    StatGroup root("server");
    StatGroup child("core0", &root);
    Scalar s(&child, "instructions", "instructions executed");
    s += 42;

    std::ostringstream os;
    root.format(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("server.core0.instructions"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("instructions executed"), std::string::npos);
}

TEST(StatGroup, ResetStatsRecurses)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Scalar a(&root, "a", "a");
    Scalar b(&child, "b", "b");
    a += 1;
    b += 2;
    root.resetStats();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Registry, WriteJsonStringAndStreamAgree)
{
    Registry registry("reg");
    StatGroup group("g", &registry);
    Scalar a(&group, "a", "a stat");
    Counter c(&group, "c", "a counter");
    a += 1.5;
    c += 7;

    std::ostringstream os;
    registry.writeJson(os);

    std::string text;
    registry.writeJson(text);
    EXPECT_EQ(os.str(), text);
    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '\n');
    EXPECT_NE(text.find("\"reg.g.a\":1.5"), std::string::npos);
}

TEST(Registry, RepeatedDumpsReuseTheBuffer)
{
    Registry registry("reg");
    Scalar a(&registry, "a", "a stat");

    std::ostringstream first;
    registry.writeJson(first);
    for (int i = 0; i < 100; ++i) {
        a += 1;
        std::ostringstream os;
        registry.writeJson(os);
    }
    registry.resetStats();
    std::ostringstream last;
    registry.writeJson(last);
    EXPECT_EQ(first.str(), last.str())
        << "buffer reuse must not leak bytes between dumps";
}

TEST(LatencySummary, NearestRankOverSortedTicks)
{
    // 0..99 us plus one 2 ms outlier: 101 samples, index q * 100.
    std::vector<mercury::Tick> sorted;
    for (mercury::Tick us = 0; us < 100; ++us)
        sorted.push_back(us * mercury::tickUs);
    sorted.push_back(2 * mercury::tickMs);

    const LatencySummary s = summarizeSorted(sorted);
    EXPECT_DOUBLE_EQ(s.meanUs, (4950.0 + 2000.0) / 101.0);
    EXPECT_EQ(s.p50Us, 50.0);
    EXPECT_EQ(s.p95Us, 95.0);
    EXPECT_EQ(s.p99Us, 99.0);
    EXPECT_EQ(s.p999Us, 99.0);  // index 99.9 truncates to 99
    EXPECT_DOUBLE_EQ(s.subMsFraction, 100.0 / 101.0);
}

TEST(LatencySummary, EmptySampleIsAllZero)
{
    const LatencySummary s = summarizeSorted({});
    EXPECT_EQ(s.meanUs, 0.0);
    EXPECT_EQ(s.p99Us, 0.0);
    EXPECT_EQ(s.subMsFraction, 0.0);
}

} // anonymous namespace
