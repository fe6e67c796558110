// Serving-tier tests: the SPSC ring's ordering/backpressure contract (also
// under a concurrent drop-oldest producer), the link→shard routing, the
// admission/eviction ladder, containment of a throwing link, and the headline
// determinism guarantee — per-link decision logs bit-identical across
// 1/2/4 shards. The determinism cases double as the TSan campaign for the
// demux/worker handoff (scripts/run_tsan.sh runs this suite under
// -DMULINK_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "experiments/scenario.h"
#include "serve/serve.h"
#include "serve/spsc_ring.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

// ---- SpscRing -------------------------------------------------------------

TEST(SpscRing, FifoOrderAndEmptyPop) {
  serve::SpscRing<int> ring(4);
  int out = -1;
  EXPECT_FALSE(ring.TryPop(out));  // empty
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPush(3));
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(ring.TryPop(out));  // drained
}

TEST(SpscRing, FullPushFailsAndCapacityRoundsUp) {
  // Capacity 3 rounds up to 4 cells.
  serve::SpscRing<int> ring(3);
  EXPECT_TRUE(ring.TryPush(10));
  EXPECT_TRUE(ring.TryPush(11));
  EXPECT_TRUE(ring.TryPush(12));
  EXPECT_TRUE(ring.TryPush(13));
  EXPECT_FALSE(ring.TryPush(14));  // full at the rounded capacity
  int out = -1;
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(ring.TryPush(14));  // slot freed
}

TEST(SpscRing, WrapAroundManyCycles) {
  serve::SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  // Push/pop in bursts so head and tail lap the cell array many times.
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(next_push++));
    for (int i = 0; i < 5; ++i) {
      std::uint64_t out = ~std::uint64_t{0};
      ASSERT_TRUE(ring.TryPop(out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  EXPECT_EQ(ring.ApproxSize(), 0u);
}

TEST(SpscRing, DiscardOldestDisplacesHeadOfQueue) {
  serve::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.TryPush(i));
  ASSERT_FALSE(ring.TryPush(4));
  EXPECT_TRUE(ring.DiscardOldest());  // drops 0
  EXPECT_TRUE(ring.TryPush(4));
  int out = -1;
  for (int expected = 1; expected <= 4; ++expected) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(ring.DiscardOldest());  // nothing left to drop
}

TEST(SpscRing, InPlaceProduceConsumeMatchesPushPop) {
  serve::SpscRing<int> ring(4);
  // Produce writes the claimed cell directly; mixed with TryPush, FIFO
  // order must hold across both producer APIs.
  ASSERT_TRUE(ring.TryProduce([](int& cell) { cell = 10; }));
  ASSERT_TRUE(ring.TryPush(20));
  ASSERT_TRUE(ring.TryProduce([](int& cell) { cell = 30; }));
  std::vector<int> seen;
  // Consume runs on the claimed cell in place; mixed with TryPop.
  EXPECT_TRUE(ring.TryConsume([&](const int& cell) { seen.push_back(cell); }));
  int out = -1;
  ASSERT_TRUE(ring.TryPop(out));
  seen.push_back(out);
  EXPECT_TRUE(ring.TryConsume([&](const int& cell) { seen.push_back(cell); }));
  EXPECT_EQ(seen, (std::vector<int>{10, 20, 30}));
  EXPECT_FALSE(ring.TryConsume([](const int&) { FAIL(); }));
}

TEST(SpscRing, InPlaceProduceFailsWhenFullWithoutRunningWriter) {
  serve::SpscRing<int> ring(2);
  ASSERT_TRUE(ring.TryProduce([](int& cell) { cell = 1; }));
  ASSERT_TRUE(ring.TryProduce([](int& cell) { cell = 2; }));
  // Full ring: the writer must not run on any cell.
  EXPECT_FALSE(ring.TryProduce([](int&) { FAIL(); }));
  EXPECT_TRUE(ring.DiscardOldest());
  ASSERT_TRUE(ring.TryProduce([](int& cell) { cell = 3; }));
  int out = -1;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 3);
}

// Drop-oldest wrap with two dequeuers: the producer keeps a small ring
// full, discarding the oldest frame whenever a push finds it full, while a
// consumer thread pops concurrently. Every value leaves exactly once —
// popped in push order, or discarded — whoever wins each race for a cell.
TEST(SpscRing, ConcurrentDropOldestKeepsOrderAndAccounting) {
  serve::SpscRing<std::uint64_t> ring(4);
  constexpr std::uint64_t kPushed = 50000;
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> popped;
  popped.reserve(kPushed);
  std::thread consumer([&] {
    std::uint64_t value = 0;
    for (;;) {
      if (ring.TryPop(value)) {
        popped.push_back(value);
      } else if (done.load(std::memory_order_acquire)) {
        // The producer is finished: drain what is left, then stop.
        while (ring.TryPop(value)) popped.push_back(value);
        return;
      }
    }
  });
  std::uint64_t discarded = 0;
  for (std::uint64_t v = 0; v < kPushed; ++v) {
    while (!ring.TryPush(v)) {
      if (ring.DiscardOldest()) ++discarded;
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size());  // none popped twice
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_LT(popped[i - 1], popped[i]) << "at pop " << i;
  }
  EXPECT_EQ(popped.size() + discarded, kPushed);
  EXPECT_GT(popped.size(), 0u);
}

// ---- Shared serving fixture ----------------------------------------------

struct ServeFixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{911};
  std::shared_ptr<const core::Detector> detector;
  std::vector<double> empty_scores;

  ServeFixture() {
    Calibrate(core::DetectionScheme::kSubcarrierAndPathWeighting, rng,
              detector, empty_scores);
  }

  // A window-10 profile of `scheme` calibrated on a fresh empty capture,
  // with its calibration windows' scores.
  void Calibrate(core::DetectionScheme scheme, Rng& capture_rng,
                 std::shared_ptr<const core::Detector>& out,
                 std::vector<double>& scores) {
    core::DetectorConfig config;
    config.scheme = scheme;
    config.window_packets = 10;
    const auto calibration = sim.CaptureSession(200, std::nullopt, capture_rng);
    auto d = core::Detector::Calibrate(calibration, sim.band(), sim.array(),
                                       config);
    std::vector<std::vector<wifi::CsiPacket>> windows;
    for (std::size_t start = 0; start + 10 <= calibration.size(); start += 10) {
      windows.emplace_back(
          calibration.begin() + static_cast<std::ptrdiff_t>(start),
          calibration.begin() + static_cast<std::ptrdiff_t>(start + 10));
    }
    d.CalibrateThreshold(windows);
    core::DetectorScratch scratch;
    for (const auto& w : windows) {
      scores.push_back(d.Score(std::span<const wifi::CsiPacket>(w), scratch));
    }
    out = std::make_shared<const core::Detector>(std::move(d));
  }

  core::StreamingConfig Stream() const {
    core::StreamingConfig stream;
    stream.window_packets = 10;
    stream.hop_packets = 1;
    stream.use_hmm = false;
    return stream;
  }

  // One independent packet stream per link, forked in link order.
  std::vector<std::vector<wifi::CsiPacket>> Streams(std::size_t links,
                                                    std::size_t frames) {
    Rng base(4242);
    std::vector<std::vector<wifi::CsiPacket>> streams;
    streams.reserve(links);
    for (std::size_t l = 0; l < links; ++l) {
      auto fork = base.Fork();
      streams.push_back(sim.CaptureSession(frames, std::nullopt, fork));
    }
    return streams;
  }
};

ServeFixture& Fixture() {
  static ServeFixture f;
  return f;
}

std::vector<serve::DecisionRecord> RunDeterministic(
    ServeFixture& f, const std::vector<std::vector<wifi::CsiPacket>>& streams,
    std::size_t shards) {
  serve::ServeConfig config;
  config.num_shards = shards;
  config.queue_capacity = 32;
  config.deterministic = true;
  config.collect_decision_log = true;
  config.stream = f.Stream();
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();
  const std::size_t frames = streams.front().size();
  for (std::size_t p = 0; p < frames; ++p) {
    for (std::size_t l = 0; l < streams.size(); ++l) {
      core.Submit(l, profile, streams[l][p]);
    }
  }
  core.Stop();
  return core.MergedDecisionLog();
}

// ---- Routing --------------------------------------------------------------

TEST(ServeRouting, ShardOfIsStableAndCovers) {
  serve::ServeConfig config;
  config.num_shards = 4;
  serve::ServeCore a(config);
  serve::ServeCore b(config);
  std::set<std::size_t> hit;
  for (std::uint64_t id = 0; id < 256; ++id) {
    const std::size_t shard = a.ShardOf(id);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, b.ShardOf(id));  // pure function of (id, num_shards)
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // splitmix64 spreads 256 ids over all shards
}

// ---- End-to-end counters --------------------------------------------------

TEST(ServeCore, CountsFramesAndDecisions) {
  auto& f = Fixture();
  const std::size_t links = 6;
  const std::size_t frames = 30;
  const auto streams = f.Streams(links, frames);

  serve::ServeConfig config;
  config.num_shards = 2;
  config.queue_capacity = 64;
  config.policy = serve::BackPressure::kBlock;
  config.stream = f.Stream();
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();
  for (std::size_t p = 0; p < frames; ++p) {
    for (std::size_t l = 0; l < links; ++l) {
      EXPECT_TRUE(core.Submit(l, profile, streams[l][p]));
    }
  }
  core.Stop();

  std::uint64_t routed = 0, processed = 0, decisions = 0, admitted = 0;
  for (const auto& s : core.Stats()) {
    routed += s.frames_routed;
    processed += s.frames_processed;
    decisions += s.decisions;
    admitted += s.links_admitted;
  }
  EXPECT_EQ(routed, links * frames);
  EXPECT_EQ(processed, links * frames);  // kBlock loses nothing
  EXPECT_EQ(admitted, links);
  // Hop 1, window 10: one decision per frame once the window is full.
  EXPECT_EQ(decisions, links * (frames - 10 + 1));
}

// A frame whose shape does not match its profile's detector is refused at
// Submit (false, counted in frames_rejected) rather than reaching the
// shard, where the engine would throw on it and terminate the process. The
// link's well-formed frames after it still decide, with the guard on or
// off, and Stop returns.
TEST(ServeCore, RefusesMisShapedFrameWithoutAbort) {
  auto& f = Fixture();
  const std::size_t frames = 30;
  const auto streams = f.Streams(1, frames);
  wifi::CsiPacket bad = streams[0].front();
  bad.csi.Resize(f.detector->num_antennas() - 1, f.detector->num_subcarriers());

  for (bool guard : {false, true}) {
    serve::ServeConfig config;
    config.num_shards = 1;
    config.queue_capacity = 64;
    config.policy = serve::BackPressure::kBlock;
    config.stream = f.Stream();
    config.stream.guard_enabled = guard;
    serve::ServeCore core(config);
    const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
    core.Start();
    EXPECT_FALSE(core.Submit(0, profile, bad)) << "guard=" << guard;
    for (const auto& packet : streams[0]) {
      EXPECT_TRUE(core.Submit(0, profile, packet));
    }
    core.Stop();

    const auto stats = core.Stats();
    EXPECT_EQ(stats[0].frames_rejected, 1u);
    EXPECT_EQ(stats[0].frames_routed, frames);
    EXPECT_EQ(stats[0].frames_processed, frames);
    // Hop 1, window 10: one decision per frame once the window is full.
    EXPECT_EQ(stats[0].decisions, frames - 10 + 1);
  }
}

// A link whose pipeline throws is contained. With per-link calibration of
// a baseline-scheme profile, the guard off and a hair-trigger ladder, a
// frame with a NaN cell lands in the window the ladder swaps on (the
// baseline's window statistic stays finite, so the window reads as quiet
// evidence), and Detector::ApplyProfile refuses the poisoned staged profile
// with a PreconditionError on the shard worker. The shard evicts and
// counts that link (with the readmission cooldown) and keeps serving:
// another link's decisions are exactly those of a run without the failing
// link.
TEST(ServeCore, ThrowingLinkIsEvictedAndTheShardKeepsServing) {
  auto& f = Fixture();
  Rng calibration_rng(912);
  std::shared_ptr<const core::Detector> baseline;
  std::vector<double> baseline_scores;
  f.Calibrate(core::DetectionScheme::kBaseline, calibration_rng, baseline,
              baseline_scores);
  const std::size_t frames = 40;
  const auto streams = f.Streams(2, frames);
  auto poisoned = streams[0];
  poisoned[11].csi.At(0, 0) =
      Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);

  struct Run {
    serve::ShardStats stats;
    std::vector<serve::DecisionRecord> log;
  };
  auto run = [&](bool with_failing_link) {
    serve::ServeConfig config;
    config.num_shards = 1;
    config.queue_capacity = 64;
    config.policy = serve::BackPressure::kBlock;
    config.collect_decision_log = true;
    config.readmit_after_frames = 1000;  // barred for the rest of the run
    config.stream = f.Stream();
    // Drift confirms on the first two quiet windows and one window of
    // evidence swaps, so the third decision (frame 11) swaps.
    config.stream.calibration.enabled = true;
    config.stream.calibration.drift_score_fraction = 1e-6;
    config.stream.calibration.drift_confirm_windows = 1;
    config.stream.calibration.recalibration_quiet_windows = 1;
    serve::ServeCore core(config);
    const auto profile = core.RegisterProfile(baseline, baseline_scores,
                                              /*per_link_calibration=*/true);
    core.Start();
    for (std::size_t p = 0; p < frames; ++p) {
      if (with_failing_link) core.Submit(0, profile, poisoned[p]);
      core.Submit(1, profile, streams[1][p]);
    }
    core.Stop();
    return Run{core.Stats()[0], core.MergedDecisionLog()};
  };
  auto decisions_of = [](const Run& r, std::uint64_t link_id) {
    std::vector<core::PresenceDecision> out;
    for (const auto& record : r.log) {
      if (record.link_id == link_id) out.push_back(record.decision);
    }
    return out;
  };

  const Run failing = run(true);
  EXPECT_EQ(failing.stats.links_failed, 1u);
  EXPECT_EQ(failing.stats.links_evicted, 1u);
  EXPECT_EQ(failing.stats.links_admitted, 2u);
  EXPECT_EQ(failing.stats.resident_links, 1u);
  EXPECT_EQ(failing.stats.frames_processed, 2 * frames);
  // Link 0 decided on frames 9 and 10, then failed on frame 11.
  EXPECT_EQ(decisions_of(failing, 0).size(), 2u);

  const Run clean = run(false);
  EXPECT_EQ(clean.stats.links_failed, 0u);
  const auto survivor = decisions_of(failing, 1);
  const auto reference = decisions_of(clean, 1);
  ASSERT_EQ(survivor.size(), frames - 10 + 1);
  ASSERT_EQ(survivor.size(), reference.size());
  for (std::size_t i = 0; i < survivor.size(); ++i) {
    EXPECT_EQ(survivor[i].timestamp_s, reference[i].timestamp_s);
    EXPECT_EQ(survivor[i].score, reference[i].score);
    EXPECT_EQ(survivor[i].posterior, reference[i].posterior);
    EXPECT_EQ(survivor[i].occupied, reference[i].occupied);
  }
}

// ---- Determinism ----------------------------------------------------------

TEST(ServeDeterminism, MergedLogBitIdenticalAcross124Shards) {
  auto& f = Fixture();
  const auto streams = f.Streams(12, 25);
  const auto log1 = RunDeterministic(f, streams, 1);
  const auto log2 = RunDeterministic(f, streams, 2);
  const auto log4 = RunDeterministic(f, streams, 4);

  ASSERT_FALSE(log1.empty());
  ASSERT_EQ(log1.size(), log2.size());
  ASSERT_EQ(log1.size(), log4.size());
  for (std::size_t i = 0; i < log1.size(); ++i) {
    for (const auto* other : {&log2[i], &log4[i]}) {
      EXPECT_EQ(log1[i].link_id, other->link_id);
      // Bitwise: the contract is bit-identity, not tolerance.
      EXPECT_EQ(log1[i].decision.score, other->decision.score);
      EXPECT_EQ(log1[i].decision.posterior, other->decision.posterior);
      EXPECT_EQ(log1[i].decision.occupied, other->decision.occupied);
      EXPECT_EQ(log1[i].decision.degraded, other->decision.degraded);
      EXPECT_EQ(log1[i].decision.timestamp_s, other->decision.timestamp_s);
    }
  }
}

TEST(ServeDeterminism, LogIsLinkMajorWithPerLinkOrderPreserved) {
  auto& f = Fixture();
  const auto streams = f.Streams(5, 20);
  const auto log = RunDeterministic(f, streams, 2);
  ASSERT_FALSE(log.empty());
  for (std::size_t i = 1; i < log.size(); ++i) {
    ASSERT_GE(log[i].link_id, log[i - 1].link_id);  // link-id-major
    if (log[i].link_id == log[i - 1].link_id) {
      // Within a link, arrival order = timestamp order.
      ASSERT_GE(log[i].decision.timestamp_s, log[i - 1].decision.timestamp_s);
    }
  }
}

// ---- Admission / eviction -------------------------------------------------

TEST(ServeEviction, CapacityEvictsLruAndReadmitsFreely) {
  auto& f = Fixture();
  const auto streams = f.Streams(3, 15);

  serve::ServeConfig config;
  config.num_shards = 1;
  config.queue_capacity = 64;
  config.policy = serve::BackPressure::kBlock;
  config.max_resident_per_shard = 2;
  config.stream = f.Stream();
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();

  // Bursts: link 0, link 1 (roster full), link 2 evicts the LRU link 0.
  for (std::size_t l = 0; l < 3; ++l) {
    for (const auto& packet : streams[l]) core.Submit(l, profile, packet);
    core.Drain();
  }
  auto stats = core.Stats();
  EXPECT_EQ(stats[0].links_admitted, 3u);
  EXPECT_EQ(stats[0].links_evicted, 1u);
  EXPECT_EQ(stats[0].resident_links, 2u);

  // Capacity eviction carries no cooldown: link 0 readmits on its next
  // frame (evicting the now-LRU link 1) and still produces decisions.
  const std::uint64_t decisions_before = stats[0].decisions;
  for (const auto& packet : streams[0]) core.Submit(0, profile, packet);
  core.Stop();
  stats = core.Stats();
  EXPECT_EQ(stats[0].links_admitted, 4u);
  EXPECT_EQ(stats[0].links_evicted, 2u);
  EXPECT_EQ(stats[0].links_readmitted, 1u);
  EXPECT_GT(stats[0].decisions, decisions_before);
}

TEST(ServeEviction, QuarantineStormEvictsWithOwnFrameCooldown) {
  auto& f = Fixture();
  // Pattern {good, bad, bad}: quarantine ratio 2/3 > 0.5, while the good
  // frames (sequence gaps of 2, well inside the guard's resync limit) keep
  // filling windows so decisions — where the health check runs — still
  // fire.
  Rng rng(77);
  auto stream = f.sim.CaptureSession(120, std::nullopt, rng);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 3 != 0) {
      stream[i].csi.At(0, 0) =
          Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
    }
  }

  serve::ServeConfig config;
  config.num_shards = 1;
  config.queue_capacity = 64;
  config.policy = serve::BackPressure::kBlock;
  config.evict_unhealthy = true;
  config.max_quarantine_ratio = 0.5;
  config.health_check_min_frames = 9;
  config.readmit_after_frames = 6;
  config.stream = f.Stream();
  config.stream.guard_enabled = true;
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();
  for (const auto& packet : stream) core.Submit(0, profile, packet);
  core.Stop();

  const auto stats = core.Stats();
  // The link is evicted at the first post-threshold decision, barred for 6
  // of its own frames, readmitted, and (still unhealthy) evicted again.
  EXPECT_GE(stats[0].links_evicted, 2u);
  EXPECT_GE(stats[0].links_readmitted, 1u);
  EXPECT_EQ(stats[0].frames_processed, stream.size());
}

}  // namespace
