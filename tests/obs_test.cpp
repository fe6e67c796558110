// Unit tests for the observability spine (src/obs): histogram bucketing and
// merge, registry counter/gauge semantics, deterministic shard merging, the
// trace ring's bounded-overwrite contract, and the serialized schemas the
// CLI and CI scrapers rely on.
//
// Recording calls compile to no-ops under -DMULINK_OBS=OFF, so every
// expectation about recorded state is gated on obs::kEnabled; the schema
// tests still run (all keys must exist with zero values) because scrapers
// must not break when the subsystem is compiled out.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "nic/frame_guard.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace mulink;

namespace {

TEST(LatencyHistogram, RecordsIntoPowerOfTwoBuckets) {
  obs::LatencyHistogram h;
  h.Record(100.0);    // below the floor -> bucket 0
  h.Record(300.0);    // [250, 500) -> bucket 0
  h.Record(600.0);    // [500, 1000) -> bucket 1
  h.Record(1.0e9);    // far past the top edge -> overflow bucket
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[obs::LatencyHistogram::kNumBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.min_ns, 100.0);
  EXPECT_DOUBLE_EQ(h.max_ns, 1.0e9);
  EXPECT_DOUBLE_EQ(h.total_ns, 100.0 + 300.0 + 600.0 + 1.0e9);
}

TEST(LatencyHistogram, MergeAccumulatesAndTracksExtremes) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  a.Record(300.0);
  b.Record(50.0);
  b.Record(4000.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min_ns, 50.0);
  EXPECT_DOUBLE_EQ(a.max_ns, 4000.0);
  EXPECT_DOUBLE_EQ(a.total_ns, 4350.0);
  // Merging an empty histogram must not disturb the extremes.
  a.MergeFrom(obs::LatencyHistogram{});
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min_ns, 50.0);
}

TEST(LatencyHistogram, QuantilesAreMonotoneAndBounded) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(250.0 * (1 + i % 64));
  const double p10 = h.ApproxQuantileNs(0.10);
  const double p50 = h.ApproxQuantileNs(0.50);
  const double p95 = h.ApproxQuantileNs(0.95);
  EXPECT_GT(p10, 0.0);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, h.max_ns + 1e-9);
  EXPECT_DOUBLE_EQ(obs::LatencyHistogram{}.ApproxQuantileNs(0.5), 0.0);
}

TEST(LatencyHistogram, ResetClearsEverything) {
  obs::LatencyHistogram h;
  h.Record(1000.0);
  h.Reset();
  EXPECT_EQ(h.count, 0u);
  EXPECT_DOUBLE_EQ(h.total_ns, 0.0);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 0.0);
  for (const auto bucket : h.buckets) EXPECT_EQ(bucket, 0u);
}

TEST(Registry, CountersAndGaugesRoundTrip) {
  obs::Registry r;
  EXPECT_TRUE(r.Empty());
  r.Add(obs::Counter::kDecisions);
  r.Add(obs::Counter::kPacketsIngested, 24);
  r.Set(obs::Gauge::kPosterior, 0.875);
  if constexpr (obs::kEnabled) {
    EXPECT_FALSE(r.Empty());
    EXPECT_EQ(r.Get(obs::Counter::kDecisions), 1u);
    EXPECT_EQ(r.Get(obs::Counter::kPacketsIngested), 24u);
    EXPECT_TRUE(r.GaugeSet(obs::Gauge::kPosterior));
    EXPECT_FALSE(r.GaugeSet(obs::Gauge::kLastScore));
    EXPECT_DOUBLE_EQ(r.Get(obs::Gauge::kPosterior), 0.875);
  } else {
    EXPECT_TRUE(r.Empty());
    EXPECT_EQ(r.Get(obs::Counter::kDecisions), 0u);
  }
}

TEST(Registry, MergeFromIsOrderDeterministic) {
  obs::Registry a;
  obs::Registry b;
  a.Add(obs::Counter::kWindowsScored, 3);
  a.Set(obs::Gauge::kLastScore, 1.0);
  a.RecordStageNs(obs::Stage::kScore, 500.0);
  b.Add(obs::Counter::kWindowsScored, 4);
  b.Set(obs::Gauge::kLastScore, 2.0);
  b.RecordStageNs(obs::Stage::kScore, 900.0);

  obs::Registry total;
  total.MergeFrom(a);
  total.MergeFrom(b);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(total.Get(obs::Counter::kWindowsScored), 7u);
    // Submission order: the later shard's gauge wins.
    EXPECT_DOUBLE_EQ(total.Get(obs::Gauge::kLastScore), 2.0);
    EXPECT_EQ(total.StageLatency(obs::Stage::kScore).count, 2u);
    // A shard that never set the gauge must not clobber the merged value.
    total.MergeFrom(obs::Registry{});
    EXPECT_DOUBLE_EQ(total.Get(obs::Gauge::kLastScore), 2.0);
  }
}

TEST(Registry, IngestSamplingIsDeterministicPerShard) {
  obs::Registry r;
  std::vector<bool> pattern;
  for (std::uint64_t i = 0; i < 2 * obs::kIngestSampleEvery; ++i) {
    pattern.push_back(r.SampleIngestTick());
  }
  if constexpr (obs::kEnabled) {
    EXPECT_TRUE(pattern[0]);
    EXPECT_TRUE(pattern[obs::kIngestSampleEvery]);
    std::size_t sampled = 0;
    for (const bool hit : pattern) sampled += hit ? 1u : 0u;
    EXPECT_EQ(sampled, 2u);
    // A fresh shard replays the identical pattern.
    obs::Registry r2;
    for (std::uint64_t i = 0; i < pattern.size(); ++i) {
      EXPECT_EQ(r2.SampleIngestTick(), pattern[i]) << "tick " << i;
    }
  } else {
    for (const bool hit : pattern) EXPECT_FALSE(hit);
  }
}

TEST(Registry, ScopedStageTimerRecordsOnlyWithASink) {
  obs::Registry r;
  { obs::ScopedStageTimer timer(&r, obs::Stage::kCapture); }
  { obs::ScopedStageTimer timer(nullptr, obs::Stage::kCapture); }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(r.StageLatency(obs::Stage::kCapture).count, 1u);
  } else {
    EXPECT_EQ(r.StageLatency(obs::Stage::kCapture).count, 0u);
  }
}

TEST(TraceRing, OverwritesOldestAndCountsDrops) {
  const auto epoch = obs::TraceRing::Clock::now();
  obs::TraceRing ring(4, epoch, 9);
  for (int i = 0; i < 6; ++i) {
    obs::TraceEvent event;
    event.stage = obs::Stage::kScore;
    event.scope = i;
    ring.Record(event);
  }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto events = ring.Snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest two (scope 0, 1) were overwritten; order is preserved.
    EXPECT_EQ(events.front().scope, 2);
    EXPECT_EQ(events.back().scope, 5);
  }
}

TEST(TraceRing, DrainIntoAppendsInOrderAndClears) {
  obs::TraceRing ring(8);
  for (int i = 0; i < 3; ++i) {
    obs::TraceEvent event;
    event.scope = i;
    ring.Record(event);
  }
  std::vector<obs::TraceEvent> out;
  ring.DrainInto(out);
  EXPECT_EQ(ring.size(), 0u);
  if constexpr (obs::kEnabled) {
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].scope, i);
  }
}

TEST(TraceSpan, RecordsWithRingTidAndNullRingIsNoOp) {
  const auto epoch = obs::TraceRing::Clock::now();
  obs::TraceRing ring(8, epoch, 3);
  { obs::TraceSpan span(&ring, obs::Stage::kCase, 7); }
  { obs::TraceSpan span(nullptr, obs::Stage::kCase); }
  if constexpr (obs::kEnabled) {
    const auto events = ring.Snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tid, 3u);
    EXPECT_EQ(events[0].scope, 7);
    EXPECT_EQ(events[0].stage, obs::Stage::kCase);
    EXPECT_GE(events[0].dur_us, 0.0);
  } else {
    EXPECT_EQ(ring.size(), 0u);
  }
}

// The JSON schema is the CI contract: every counter and stage key must be
// present even when its value is zero, so a scraper can assert on the shape
// without probing which links were active.
TEST(Export, MetricsJsonAlwaysContainsEveryKey) {
  obs::Registry r;
  std::ostringstream json;
  obs::WriteMetricsJson(json, r);
  const std::string text = json.str();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto* name = obs::ToString(static_cast<obs::Counter>(i));
    EXPECT_NE(text.find('"' + std::string(name) + '"'), std::string::npos)
        << "missing counter key " << name;
  }
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto* name = obs::ToString(static_cast<obs::Stage>(i));
    EXPECT_NE(text.find('"' + std::string(name) + '"'), std::string::npos)
        << "missing stage key " << name;
  }
  EXPECT_NE(text.find("\"obs_enabled\""), std::string::npos);
}

TEST(Export, MetricsTableListsRecordedActivity) {
  obs::Registry r;
  r.Add(obs::Counter::kDecisions, 12);
  r.RecordStageNs(obs::Stage::kScore, 1500.0);
  std::ostringstream out;
  obs::WriteMetricsTable(out, r);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(out.str().find("decisions"), std::string::npos);
    EXPECT_NE(out.str().find("score"), std::string::npos);
  }
}

TEST(Export, ChromeTraceIsCompleteEventFormat) {
  std::vector<obs::TraceEvent> events(1);
  events[0].stage = obs::Stage::kCalibrate;
  events[0].scope = 2;
  events[0].tid = 1;
  events[0].ts_us = 10.0;
  events[0].dur_us = 5.0;
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("calibrate"), std::string::npos);
}

TEST(Export, LinkHealthJsonCarriesGuardCounters) {
  nic::LinkHealth health;
  health.received = 100;
  health.accepted = 90;
  health.quarantined = 10;
  std::ostringstream out;
  obs::WriteLinkHealthJson(out, health);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"received\": 100"), std::string::npos);
  EXPECT_NE(text.find("\"quarantined\": 10"), std::string::npos);
}

TEST(Export, OneLineSummaryMentionsDecisions) {
  obs::Registry r;
  r.Add(obs::Counter::kDecisions, 3);
  const std::string line = obs::OneLineSummary(r);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(line.find("dec=3"), std::string::npos);
  }
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

}  // namespace
