/**
 * @file
 * Unit tests for the strict-LRU and Bags eviction policies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvstore/eviction.hh"

namespace
{

using namespace mercury::kvstore;

class EvictionFixture : public ::testing::Test
{
  protected:
    Item *
    makeItem(const std::string &key)
    {
        const std::size_t size = Item::totalSize(key.size(), 1);
        storage_.push_back(std::make_unique<char[]>(size));
        Item *item = new (storage_.back().get()) Item();
        item->setKey(key);
        item->setValue("x");
        return item;
    }

    std::vector<std::unique_ptr<char[]>> storage_;
};

using StrictLruTest = EvictionFixture;
using BagLruTest = EvictionFixture;

TEST_F(StrictLruTest, VictimIsOldestInserted)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a, 0);
    lru.onInsert(b, 1);
    EXPECT_EQ(lru.victim(2), a);
}

TEST_F(StrictLruTest, AccessRescuesItem)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a, 0);
    lru.onInsert(b, 1);
    lru.onAccess(a, 2);
    EXPECT_EQ(lru.victim(3), b);
}

TEST_F(StrictLruTest, RemoveDropsFromList)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a, 0);
    lru.onInsert(b, 1);
    lru.onRemove(a);
    EXPECT_EQ(lru.victim(2), b);
    lru.onRemove(b);
    EXPECT_EQ(lru.victim(3), nullptr);
    EXPECT_EQ(lru.trackedItems(), 0u);
}

TEST_F(StrictLruTest, EveryAccessReorders)
{
    StrictLru lru;
    Item *a = makeItem("a");
    lru.onInsert(a, 0);
    for (int i = 0; i < 10; ++i)
        lru.onAccess(a, static_cast<std::uint32_t>(i));
    EXPECT_EQ(lru.reorderOps(), 10u)
        << "strict LRU reorders on every GET (the 1.4 lock problem)";
}

TEST_F(StrictLruTest, ExactLruOrderUnderMixedOps)
{
    StrictLru lru;
    Item *items[5];
    for (int i = 0; i < 5; ++i) {
        items[i] = makeItem("k" + std::to_string(i));
        lru.onInsert(items[i], static_cast<std::uint32_t>(i));
    }
    lru.onAccess(items[0], 10);
    lru.onAccess(items[1], 11);
    // Coldest now: 2, then 3, 4, 0, 1.
    EXPECT_EQ(lru.victim(12), items[2]);
    lru.onRemove(items[2]);
    EXPECT_EQ(lru.victim(12), items[3]);
}

TEST_F(BagLruTest, AccessDoesNotReorder)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    bags.onInsert(a, 0);
    for (int i = 0; i < 100; ++i)
        bags.onAccess(a, static_cast<std::uint32_t>(i));
    EXPECT_EQ(bags.reorderOps(), 0u)
        << "Bags GETs must touch no shared list state";
}

TEST_F(BagLruTest, InsertGoesToNewestBag)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    bags.onInsert(a, 0);
    EXPECT_EQ(bags.bagSize(0), 1u);
    EXPECT_EQ(bags.bagSize(1), 0u);
    EXPECT_EQ(bags.bagSize(2), 0u);
}

TEST_F(BagLruTest, AgingDemotesStaleItems)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    bags.onInsert(a, 0);
    bags.age(61);
    EXPECT_EQ(bags.bagSize(0), 0u);
    EXPECT_EQ(bags.bagSize(1), 1u);
    bags.age(200);
    EXPECT_EQ(bags.bagSize(2), 1u);
}

TEST_F(BagLruTest, FreshItemsAreNotDemoted)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    bags.onInsert(a, 100);
    bags.age(120);
    EXPECT_EQ(bags.bagSize(0), 1u);
}

TEST_F(BagLruTest, VictimPrefersOldestBag)
{
    BagLru bags(60);
    Item *old_item = makeItem("old");
    Item *new_item = makeItem("new");
    bags.onInsert(old_item, 0);
    bags.age(200);          // old -> middle
    bags.age(400);          // old -> oldest
    bags.onInsert(new_item, 400);
    EXPECT_EQ(bags.victim(400), old_item);
}

TEST_F(BagLruTest, SecondChanceForRecentlyAccessed)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    bags.onInsert(a, 0);
    bags.onInsert(b, 0);
    bags.age(100);  // both to middle
    bags.age(200);  // both to oldest

    // Touch 'a' recently: eviction should spare it and take 'b'.
    bags.onAccess(a, 399);
    EXPECT_EQ(bags.victim(400), b);
    // And 'a' got promoted back to the newest bag.
    EXPECT_EQ(bags.bagSize(0), 1u);
}

TEST_F(BagLruTest, VictimNullWhenEmpty)
{
    BagLru bags(60);
    EXPECT_EQ(bags.victim(0), nullptr);
}

TEST_F(BagLruTest, RemoveFromAnyBag)
{
    BagLru bags(60);
    Item *a = makeItem("a");
    bags.onInsert(a, 0);
    bags.age(100);
    EXPECT_EQ(bags.bagSize(1), 1u);
    bags.onRemove(a);
    EXPECT_EQ(bags.bagSize(1), 0u);
    EXPECT_EQ(bags.trackedItems(), 0u);
}

TEST(EvictionFactory, MakesRequestedPolicy)
{
    auto strict = makeEvictionPolicy(EvictionPolicyKind::StrictLru);
    auto bags = makeEvictionPolicy(EvictionPolicyKind::Bags);
    EXPECT_NE(dynamic_cast<StrictLru *>(strict.get()), nullptr);
    EXPECT_NE(dynamic_cast<BagLru *>(bags.get()), nullptr);
}

} // anonymous namespace
