#include "obs/family.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {
namespace {

TEST(FamilyTest, DistinctTuplesGetDistinctSeries) {
  Registry reg;
  auto& family = reg.counter_family("sb.client.reneged", {"title"});
  family.with({"1"}).add(2);
  family.with({"2"}).add(3);
  family.with({"1"}).add(1);  // same tuple -> same series
  EXPECT_EQ(family.series_count(), 2U);
  EXPECT_EQ(family.with({"1"}).value(), 3U);
  EXPECT_EQ(family.with({"2"}).value(), 3U);
}

TEST(FamilyTest, WithIdsFormatsNumericLabels) {
  Registry reg;
  auto& family = reg.counter_family("net.loss", {"channel"});
  family.with_ids({7}).add(1);
  EXPECT_EQ(family.with({"7"}).value(), 1U);
}

TEST(FamilyTest, RejectsRaggedLabelTuples) {
  Registry reg;
  auto& family = reg.counter_family("m", {"a", "b"});
  EXPECT_THROW((void)family.with({"only-one"}), util::ContractViolation);
}

TEST(FamilyTest, CardinalityCapFoldsIntoOverflowAndCountsDrops) {
  Registry reg;
  auto& family = reg.counter_family("m", {"title"}, /*max_series=*/2);
  family.with({"1"}).add(1);
  family.with({"2"}).add(1);
  family.with({"3"}).add(10);  // over the cap -> overflow series
  family.with({"4"}).add(10);  // also overflow (the same shared series)
  EXPECT_EQ(family.series_count(), 3U);  // 2 real + 1 overflow
  EXPECT_EQ(family.with({kOverflowLabel}).value(), 20U);
  EXPECT_EQ(reg.counter("obs.labels_dropped").value(), 2U);
  // Established tuples stay addressable after the cap is hit.
  family.with({"1"}).add(1);
  EXPECT_EQ(family.with({"1"}).value(), 2U);
  EXPECT_EQ(reg.counter("obs.labels_dropped").value(), 2U);
}

TEST(FamilyTest, ForEachWalksDeterministicOrderOverflowLast) {
  Registry reg;
  auto& family = reg.gauge_family("m", {"title"}, /*max_series=*/2);
  family.with({"b"}).set(2.0);
  family.with({"a"}).set(1.0);
  family.with({"z"}).set(9.0);  // overflow
  std::vector<std::string> order;
  family.for_each([&](const std::vector<std::string>& values, const Gauge&) {
    order.push_back(values[0]);
  });
  EXPECT_THAT(order, testing::ElementsAre("a", "b", kOverflowLabel));
}

TEST(FamilyTest, MergeFoldsLabelWiseIncludingOverflow) {
  Registry a;
  Registry b;
  auto& fa = a.counter_family("m", {"title"}, /*max_series=*/2);
  auto& fb = b.counter_family("m", {"title"}, /*max_series=*/2);
  fa.with({"1"}).add(1);
  fb.with({"1"}).add(10);
  fb.with({"2"}).add(20);
  fb.with({"3"}).add(30);  // b's overflow
  a.merge_from(b);
  EXPECT_EQ(fa.with({"1"}).value(), 11U);
  EXPECT_EQ(fa.with({"2"}).value(), 20U);
  // b's overflow mass folds into a's overflow series, not a normal series,
  // and re-injecting it does not count as a new drop here.
  EXPECT_EQ(fa.with({kOverflowLabel}).value(), 30U);
  EXPECT_EQ(a.counter("obs.labels_dropped").value(),
            1U);  // b's own drop (merged in); the fold itself drops nothing
}

TEST(FamilyTest, MergeAdoptsUnknownFamiliesWithSourceShape) {
  Registry a;
  Registry b;
  auto& fb = b.histogram_family("h", {"title"}, {1.0, 2.0});
  fb.with({"5"}).observe(0.5);
  a.merge_from(b);
  const auto snap = a.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].name, "h");
  ASSERT_EQ(snap.histograms[0].labels.size(), 1U);
  EXPECT_EQ(snap.histograms[0].labels[0],
            (std::pair<std::string, std::string>{"title", "5"}));
  EXPECT_EQ(snap.histograms[0].count, 1U);
  EXPECT_EQ(snap.histograms[0].bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(FamilyTest, MergeRejectsMismatchedKeySchema) {
  Registry a;
  Registry b;
  (void)a.counter_family("m", {"title"});
  (void)b.counter_family("m", {"channel"});
  b.counter_family("m", {"channel"}).with({"1"}).add(1);
  EXPECT_THROW(a.merge_from(b), util::ContractViolation);
}

TEST(FamilyTest, SketchFamilyMergePreservesBucketState) {
  Registry a;
  Registry b;
  auto& fa = a.sketch_family("w", {"title"});
  auto& fb = b.sketch_family("w", {"title"});
  fa.with({"1"}).observe(1.0);
  fb.with({"1"}).observe(4.0);
  fb.with({"2"}).observe(9.0);
  a.merge_from(b);
  EXPECT_EQ(fa.with({"1"}).count(), 2U);
  EXPECT_EQ(fa.with({"2"}).count(), 1U);
  EXPECT_DOUBLE_EQ(fa.with({"1"}).sum(), 5.0);
}

TEST(RegistryKindTest, NameIsBoundToOneKind) {
  Registry reg;
  (void)reg.counter("m");
  EXPECT_THROW((void)reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW((void)reg.sketch("m"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter_family("m", {"title"}),
               std::invalid_argument);
  // Same kind re-lookup stays fine.
  reg.counter("m").add(1);
  EXPECT_EQ(reg.counter("m").value(), 1U);
}

TEST(RegistryKindTest, NameIsBoundToOneLabelKeyList) {
  Registry reg;
  (void)reg.counter_family("f", {"title"});
  EXPECT_THROW((void)reg.counter_family("f", {"region"}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("f"), std::invalid_argument);
  EXPECT_NO_THROW((void)reg.counter_family("f", {"title"}));
}

TEST(RegistryKindTest, UnlabeledInstrumentIsALabelFreeFamily) {
  Registry reg;
  Counter& c = reg.counter("x");
  auto& family = reg.counter_family("x", {});
  EXPECT_EQ(&family.with({}), &c);
  c.add(3);
  EXPECT_EQ(family.series_count(), 1U);
  // No labeled family exists, so nothing creates obs.labels_dropped.
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1U);
  EXPECT_EQ(snap.counters[0].name, "x");
  EXPECT_TRUE(snap.counters[0].labels.empty());
  EXPECT_EQ(snap.counters[0].value, 3U);
}

TEST(RegistrySnapshotTest, FamiliesFlattenIntoViewsWithLabels) {
  Registry reg;
  reg.counter_family("c", {"title", "scheme"}).with({"1", "sb"}).add(4);
  reg.gauge_family("g", {"channel"}).with({"0"}).set(0.75);
  reg.sketch_family("s", {"title"}).with({"1"}).observe(2.0);
  const auto snap = reg.snapshot();
  // Unlabeled series come first: obs.labels_dropped, then the family's.
  ASSERT_EQ(snap.counters.size(), 2U);
  EXPECT_EQ(snap.counters[0].name, "obs.labels_dropped");
  EXPECT_EQ(snap.counters[1].name, "c");
  EXPECT_THAT(snap.counters[1].labels,
              testing::ElementsAre(std::pair<std::string, std::string>{
                                       "title", "1"},
                                   std::pair<std::string, std::string>{
                                       "scheme", "sb"}));
  EXPECT_EQ(snap.counters[1].value, 4U);
  ASSERT_EQ(snap.gauges.size(), 1U);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.75);
  ASSERT_EQ(snap.sketches.size(), 1U);
  EXPECT_EQ(snap.sketches[0].name, "s");
  EXPECT_EQ(snap.sketches[0].count, 1U);
}

TEST(RegistrySnapshotTest, JsonFlattensSeriesKeys) {
  Registry reg;
  reg.counter_family("c", {"title"}).with({"3"}).add(7);
  const std::string json = reg.to_json();
  EXPECT_THAT(json, testing::HasSubstr("\"c{title=3}\":7"));
  EXPECT_THAT(json, testing::HasSubstr("\"sketches\":{"));
}

TEST(RegistrySnapshotTest, JsonQuotesControlBytesInSeriesKeys) {
  Registry reg;
  reg.counter_family("c", {"k"}).with({"x\ty"}).add(2);
  const std::string json = reg.to_json();
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char ch) {
    return static_cast<unsigned char>(ch) < 0x20;
  }));
  const auto doc = util::json::parse(json);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("c{k=x\ty}").as_number(), 2.0);
}

}  // namespace
}  // namespace vodbcast::obs
