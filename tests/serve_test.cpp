// Serving-tier tests: the SPSC ring's ordering/backpressure contract (also
// under a concurrent drop-oldest producer), the link→shard routing, the
// admission/eviction ladder, containment of a throwing link, and the headline
// determinism guarantee — per-link decision logs bit-identical across
// 1/2/4 shards. The determinism cases double as the TSan campaign for the
// demux/worker handoff (scripts/run_tsan.sh runs this suite under
// -DMULINK_TSAN=ON).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "experiments/scenario.h"
#include "serve/roster.h"
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

// A batch claim takes a run of filled cells with one CAS. Claimed cells are
// private until released front to back: the producer cannot reuse one and
// the drop-oldest dequeuer skips past the whole run.
TEST(SpscRing, BatchClaimIsPrivateUntilReleasedFrontToBack) {
  serve::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.TryPush(i));
  std::vector<int> seen;
  const std::size_t claimed = ring.TryConsumeBatch(
      3, [&](serve::SpscRing<int>::Batch& batch) {
        ASSERT_EQ(batch.size(), 3u);
        // Read ahead of the front: every claimed cell holds its value.
        EXPECT_EQ(batch[2], 2);
        EXPECT_FALSE(ring.TryPush(4));  // the next cell is claimed
        EXPECT_TRUE(ring.DiscardOldest());  // takes 3, not a claimed cell
        EXPECT_FALSE(ring.DiscardOldest());
        seen.push_back(batch[0]);
        batch.ReleaseFront();
        EXPECT_TRUE(ring.TryPush(4));  // cell 0 is back with the producer
        EXPECT_FALSE(ring.TryPush(5));  // cell 1 is still claimed
        seen.push_back(batch[1]);
        seen.push_back(batch[2]);
        // Cells left claimed are released when the callback returns.
      });
  EXPECT_EQ(claimed, 3u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(ring.TryPush(5));
  EXPECT_TRUE(ring.TryPush(6));
  std::vector<int> rest;
  EXPECT_EQ(ring.TryConsumeBatch(8, [&](serve::SpscRing<int>::Batch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) rest.push_back(batch[i]);
  }), 3u);
  EXPECT_EQ(rest, (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(ring.TryConsumeBatch(8, [](serve::SpscRing<int>::Batch&) {
    FAIL();
  }), 0u);
}

// Batch claims against the drop-oldest producer (ProduceDisplacing) on a
// small ring: the consumer claims runs, reads each run ahead of the element
// it takes (as the shard worker's prefetch does) and releases element by
// element. A value read ahead is still there when its turn comes, values
// leave in push order, none twice, and popped + discarded == pushed.
TEST(SpscRing, ConcurrentBatchClaimAgainstDropOldest) {
  serve::SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kPushed = 50000;
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> popped;
  popped.reserve(kPushed);
  std::uint64_t ahead_mismatches = 0;
  std::thread consumer([&] {
    const auto take = [&](serve::SpscRing<std::uint64_t>::Batch& batch) {
      std::vector<std::uint64_t> ahead(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) ahead[i] = batch[i];
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i] != ahead[i]) ++ahead_mismatches;
        popped.push_back(batch[i]);
        batch.ReleaseFront();
      }
    };
    for (;;) {
      if (ring.TryConsumeBatch(5, take) == 0 &&
          done.load(std::memory_order_acquire)) {
        while (ring.TryConsumeBatch(5, take) > 0) {
        }
        return;
      }
    }
  });
  std::uint64_t discarded = 0;
  for (std::uint64_t v = 0; v < kPushed; ++v) {
    discarded += ring.ProduceDisplacing([v](std::uint64_t& cell) { cell = v; });
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(ahead_mismatches, 0u);
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size());  // none popped twice
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_LT(popped[i - 1], popped[i]) << "at pop " << i;
  }
  EXPECT_EQ(popped.size() + discarded, kPushed);
  EXPECT_GT(popped.size(), 0u);
}

// Drop-oldest while the consumer holds a claimed run at the front of a full
// ring: the cell the push needs is claimed, so discarding the unclaimed
// frames behind it would free nothing the push can use. The producer waits
// for the release and drops at most one frame, not the whole queue.
TEST(SpscRing, ConcurrentDropOldestWaitsForClaimedFront) {
  serve::SpscRing<int> ring(8);
  for (int v = 0; v < 8; ++v) ASSERT_TRUE(ring.TryPush(v));
  std::atomic<bool> claimed{false};
  std::atomic<bool> pushing{false};
  std::vector<int> held;
  std::thread consumer([&] {
    ring.TryConsumeBatch(2, [&](serve::SpscRing<int>::Batch& batch) {
      for (std::size_t i = 0; i < batch.size(); ++i) held.push_back(batch[i]);
      claimed.store(true, std::memory_order_release);
      while (!pushing.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      // Hold the claim while the producer runs into the full ring.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  });
  while (!claimed.load(std::memory_order_acquire)) std::this_thread::yield();
  pushing.store(true, std::memory_order_release);
  const std::size_t dropped =
      ring.ProduceDisplacing([](int& cell) { cell = 8; });
  consumer.join();

  EXPECT_EQ(held, (std::vector<int>{0, 1}));
  EXPECT_LE(dropped, 1u);
  std::vector<int> rest;
  int v = 0;
  while (ring.TryPop(v)) rest.push_back(v);
  EXPECT_EQ(rest.size() + dropped, 7u);
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.back(), 8);
}

// ---- FlatRoster -----------------------------------------------------------

// `count` link ids (from 1 up) whose LinkHash shares its top `bits` bits
// with the first one's, so they share one home slot at every roster
// capacity up to 2^bits, and (shards > 1) that route to the same shard.
std::vector<std::uint64_t> CollidingIds(std::size_t count, int bits,
                                        std::uint64_t shards = 1) {
  std::vector<std::uint64_t> ids;
  const auto top = [bits](std::uint64_t id) {
    return serve::LinkHash(id) >> (64 - bits);
  };
  for (std::uint64_t id = 1; ids.size() < count; ++id) {
    if (ids.empty() ||
        (top(id) == top(ids[0]) &&
         serve::LinkHash(id) % shards == serve::LinkHash(ids[0]) % shards)) {
      ids.push_back(id);
    }
  }
  return ids;
}

// One probe run of colliding ids through two growths (16 -> 32 -> 64
// slots), with ids homed inside the run behind it, then backward-shift
// deletions from the run's front, middle and back: every present id stays
// findable with its entry, no erased one is found, and no slot moves
// before its home.
TEST(FlatRoster, CollidingIdsSurviveGrowthAndBackwardShiftDeletion) {
  const auto ids = CollidingIds(24, 10);
  serve::FlatRoster roster;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    roster.Insert(ids[i], static_cast<std::uint32_t>(i));
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(roster.Find(ids[j]), j) << "after inserting " << i;
    }
  }
  EXPECT_EQ(roster.capacity(), 64u);
  for (const auto id : ids) EXPECT_EQ(roster.Home(id), roster.Home(ids[0]));
  // Ids homed one and two slots after the run's home land behind the run.
  std::vector<std::uint64_t> neighbours;
  for (std::uint64_t id = 1; neighbours.size() < 4; ++id) {
    const std::size_t offset = (roster.Home(id) - roster.Home(ids[0])) & 63;
    if (offset == 1 || offset == 2) neighbours.push_back(id);
  }
  for (std::size_t i = 0; i < neighbours.size(); ++i) {
    roster.Insert(neighbours[i], static_cast<std::uint32_t>(100 + i));
  }
  std::vector<bool> present(ids.size(), true);
  const auto check = [&] {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      ASSERT_EQ(roster.Find(ids[j]),
                present[j] ? j : serve::FlatRoster::kNone)
          << "id " << j;
    }
    for (std::size_t i = 0; i < neighbours.size(); ++i) {
      ASSERT_EQ(roster.Find(neighbours[i]), 100 + i);
    }
  };
  for (const std::size_t j : {0, 11, 23, 5, 6, 12, 1}) {
    roster.Erase(ids[j]);
    present[j] = false;
    check();
  }
  EXPECT_EQ(roster.size(), ids.size() - 7 + neighbours.size());
  roster.Erase(ids[0]);  // absent: a no-op
  roster.Erase(999999);
  EXPECT_EQ(roster.size(), ids.size() - 7 + neighbours.size());
  for (const std::size_t j : {11, 0}) {
    roster.Insert(ids[j], static_cast<std::uint32_t>(j));
    present[j] = true;
    check();
  }
  EXPECT_EQ(roster.capacity(), 64u);  // deletions never grew the table
}

// Long churn over heavily colliding and random ids against a reference
// map: lookups always agree, and with no tombstones the table never grows
// past what its peak population needs.
TEST(FlatRoster, ChurnMatchesReferenceMapWithoutGrowing) {
  auto pool = CollidingIds(48, 8);
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    pool.push_back((static_cast<std::uint64_t>(rng.NextU32()) << 32) |
                   rng.NextU32());
  }
  serve::FlatRoster roster;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (std::uint32_t op = 0; op < 200000; ++op) {
    const std::uint64_t id =
        pool[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
    if (reference.contains(id)) {
      roster.Erase(id);
      reference.erase(id);
    } else if (reference.size() < 64) {
      roster.Insert(id, op);
      reference.emplace(id, op);
    }
    ASSERT_EQ(roster.size(), reference.size());
    if (op % 4096 == 0) {
      for (const auto probe : pool) {
        const auto it = reference.find(probe);
        ASSERT_EQ(roster.Find(probe),
                  it == reference.end() ? serve::FlatRoster::kNone : it->second)
            << "op " << op;
      }
    }
  }
  EXPECT_EQ(roster.capacity(), 128u);  // the 64-link peak, at half load
}

// The roster indexes with LinkHash's high bits: on a 2-shard core every id
// of a shard has the same LinkHash low bit, yet its home slots cover odd
// and even slots alike.
TEST(FlatRoster, HighBitIndexSpreadsOneShardsIds) {
  serve::FlatRoster roster;
  std::size_t odd = 0;
  std::uint32_t entry = 0;
  for (std::uint64_t id = 0; entry < 512; ++id) {
    if (serve::LinkHash(id) % 2 != 0) continue;
    roster.Insert(id, entry++);
  }
  ASSERT_EQ(roster.capacity(), 1024u);
  for (std::uint64_t id = 0, seen = 0; seen < 512; ++id) {
    if (serve::LinkHash(id) % 2 != 0) continue;
    ++seen;
    odd += roster.Home(id) % 2;
  }
  EXPECT_GT(odd, 200u);
  EXPECT_LT(odd, 312u);
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

// A link whose pipeline throws is contained. Submit checks a frame's shape
// against the profile the frame names, but a resident link scores against
// the profile it was admitted with: link 0, admitted on the fixture's
// 3-antenna profile, receives frame 11 naming a 2-antenna profile (shaped
// for it), and its unguarded engine throws a PreconditionError on the shard
// worker. The shard evicts and counts that link (with the readmission
// cooldown) and keeps serving: another link's decisions are exactly those
// of a run without the failing link.
TEST(ServeCore, ThrowingLinkIsEvictedAndTheShardKeepsServing) {
  auto& f = Fixture();
  // A 2-antenna baseline profile, calibrated on the first two chains of an
  // empty capture.
  const auto two_chains = [](const wifi::CsiPacket& packet) {
    wifi::CsiPacket out = packet;
    out.csi = linalg::CMatrix(2, packet.NumSubcarriers());
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t k = 0; k < packet.NumSubcarriers(); ++k) {
        out.csi.At(m, k) = packet.csi.At(m, k);
      }
    }
    return out;
  };
  Rng calibration_rng(912);
  std::vector<wifi::CsiPacket> capture;
  for (const auto& packet :
       f.sim.CaptureSession(200, std::nullopt, calibration_rng)) {
    capture.push_back(two_chains(packet));
  }
  core::DetectorConfig narrow_config;
  narrow_config.scheme = core::DetectionScheme::kBaseline;
  narrow_config.window_packets = 10;
  narrow_config.music.num_sources = 1;  // MUSIC needs fewer sources than chains
  const auto narrow = std::make_shared<const core::Detector>(
      core::Detector::Calibrate(
          capture, f.sim.band(),
          wifi::UniformLinearArray(2, f.sim.array().spacing_m(),
                                   f.sim.array().axis_angle_rad()),
          narrow_config));
  const std::size_t frames = 40;
  const auto streams = f.Streams(2, frames);
  const wifi::CsiPacket misrouted = two_chains(streams[0][11]);

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
    serve::ServeCore core(config);
    const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
    const auto narrow_profile = core.RegisterProfile(narrow, {});
    core.Start();
    for (std::size_t p = 0; p < frames; ++p) {
      if (with_failing_link) {
        EXPECT_TRUE(p == 11 ? core.Submit(0, narrow_profile, misrouted)
                            : core.Submit(0, profile, streams[0][p]));
      }
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

// Stop right after the producer filled a tiny ring under kBlock (every
// Submit but the first few had to wait for the worker): Stop drains every
// routed frame before the worker exits, and the decisions equal the
// deterministic log of the same streams.
TEST(ServeCore, StopWithFullRingUnderBlockDrainsEveryFrame) {
  auto& f = Fixture();
  const std::size_t links = 3;
  const std::size_t frames = 40;
  const auto streams = f.Streams(links, frames);

  serve::ServeConfig config;
  config.num_shards = 1;
  config.queue_capacity = 2;
  config.policy = serve::BackPressure::kBlock;
  config.collect_decision_log = true;
  config.stream = f.Stream();
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();
  for (std::size_t p = 0; p < frames; ++p) {
    for (std::size_t l = 0; l < links; ++l) {
      ASSERT_TRUE(core.Submit(l, profile, streams[l][p]));
    }
  }
  core.Stop();  // the last Submit left the ring full (or nearly so)

  const auto stats = core.Stats();
  EXPECT_EQ(stats[0].frames_routed, links * frames);
  EXPECT_EQ(stats[0].frames_processed, links * frames);
  EXPECT_EQ(stats[0].depth_samples, links * frames);
  EXPECT_LE(stats[0].max_depth, 1u);  // at most one frame behind the claimed
  const auto log = core.MergedDecisionLog();
  const auto reference = RunDeterministic(f, streams, 1);
  ASSERT_EQ(log.size(), reference.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].link_id, reference[i].link_id);
    EXPECT_EQ(log[i].decision.score, reference[i].decision.score);
  }
}

// Health eviction while the demux waits in Drain: two links storm the
// guard with NaN frames and are evicted (and readmitted after their
// cooldown, and evicted again) by the worker between the Drain calls that
// close every burst. Each Drain returns only when the burst is fully
// processed, and the healthy links' decisions equal a run without the
// stormy links. Under TSan this is the eviction/Drain race check.
TEST(ServeCore, HealthEvictionRacingDrainKeepsAccounting) {
  auto& f = Fixture();
  const std::size_t frames = 120;
  const auto clean = f.Streams(2, frames);
  Rng rng(78);
  std::vector<std::vector<wifi::CsiPacket>> stormy;
  for (int l = 0; l < 2; ++l) {
    stormy.push_back(f.sim.CaptureSession(frames, std::nullopt, rng));
    for (std::size_t i = 0; i < frames; ++i) {
      if (i % 3 != 0) {
        stormy.back()[i].csi.At(0, 0) =
            Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
      }
    }
  }

  struct Run {
    std::vector<serve::ShardStats> stats;
    std::vector<serve::DecisionRecord> log;
  };
  const auto run = [&](bool with_storm) {
    serve::ServeConfig config;
    config.num_shards = 2;
    config.queue_capacity = 8;
    config.policy = serve::BackPressure::kBlock;
    config.collect_decision_log = true;
    config.evict_unhealthy = true;
    config.max_quarantine_ratio = 0.5;
    config.health_check_min_frames = 9;
    config.readmit_after_frames = 6;
    config.stream = f.Stream();
    config.stream.guard_enabled = true;
    serve::ServeCore core(config);
    const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
    core.Start();
    std::uint64_t submitted = 0;
    for (std::size_t burst = 0; burst < frames; burst += 10) {
      for (std::size_t p = burst; p < burst + 10; ++p) {
        for (std::uint64_t l = 0; l < 2; ++l) {
          EXPECT_TRUE(core.Submit(l, profile, clean[l][p]));
          ++submitted;
          if (with_storm) {
            EXPECT_TRUE(core.Submit(100 + l, profile, stormy[l][p]));
            ++submitted;
          }
        }
      }
      core.Drain();
      std::uint64_t processed = 0;
      for (const auto& s : core.Stats()) processed += s.frames_processed;
      EXPECT_EQ(processed, submitted) << "after burst " << burst;
    }
    core.Stop();
    return Run{core.Stats(), core.MergedDecisionLog()};
  };

  const Run storm = run(true);
  std::uint64_t evicted = 0, readmitted = 0;
  for (const auto& s : storm.stats) {
    evicted += s.links_evicted;
    readmitted += s.links_readmitted;
  }
  EXPECT_GE(evicted, 4u);  // each stormy link at least twice
  EXPECT_GE(readmitted, 2u);
  const Run calm = run(false);
  std::vector<serve::DecisionRecord> healthy;
  for (const auto& record : storm.log) {
    if (record.link_id < 100) healthy.push_back(record);
  }
  ASSERT_EQ(healthy.size(), calm.log.size());
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    EXPECT_EQ(healthy[i].link_id, calm.log[i].link_id);
    EXPECT_EQ(healthy[i].decision.score, calm.log[i].decision.score);
    EXPECT_EQ(healthy[i].decision.timestamp_s,
              calm.log[i].decision.timestamp_s);
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

// Ids chosen to collide in one roster probe run behave exactly like any
// other ids. Links arrive in bursts in a shuffled order; the roster cap (20)
// forces LRU capacity evictions after the table has grown to 64 slots, and
// two links storm the guard with NaN frames, so they are health-evicted,
// barred for their cooldown and readmitted, while backward-shift deletions
// keep moving the colliding entries. Run `ids` on `shards` shards and return
// the summed stats and the log relabelled to link indices.
struct ChurnRun {
  serve::ShardStats total;
  std::vector<serve::DecisionRecord> log;
};

// Link l's 60-frame stream, the same for every run (l = 3 and 17 storm).
std::vector<std::vector<wifi::CsiPacket>> ChurnStreams(ServeFixture& f,
                                                       std::size_t links) {
  const std::size_t frames = 60;
  auto stormy = f.Streams(links, frames);
  for (const std::size_t l : {3, 17}) {
    for (std::size_t i = 0; i < frames; ++i) {
      if (i % 3 != 0) {
        stormy[l][i].csi.At(0, 0) =
            Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
      }
    }
  }
  return stormy;
}

ChurnRun RunChurn(ServeFixture& f,
                  const std::vector<std::vector<wifi::CsiPacket>>& stormy,
                  const std::vector<std::uint64_t>& ids, std::size_t shards,
                  std::size_t max_resident) {
  const std::size_t frames = stormy.front().size();
  serve::ServeConfig config;
  config.num_shards = shards;
  config.queue_capacity = 16;
  config.policy = serve::BackPressure::kBlock;
  config.collect_decision_log = true;
  config.max_resident_per_shard = max_resident;
  config.evict_unhealthy = true;
  config.health_check_min_frames = 9;
  config.readmit_after_frames = 6;
  config.stream = f.Stream();
  config.stream.guard_enabled = true;
  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(f.detector, f.empty_scores);
  core.Start();
  Rng order(31);
  for (std::size_t start = 0; start < frames; start += 5) {
    for (const std::size_t l : order.Permutation(ids.size())) {
      for (std::size_t p = start; p < start + 5; ++p) {
        core.Submit(ids[l], profile, stormy[l][p]);
      }
    }
  }
  core.Stop();
  ChurnRun run;
  for (const auto& s : core.Stats()) {
    run.total.frames_processed += s.frames_processed;
    run.total.decisions += s.decisions;
    run.total.links_admitted += s.links_admitted;
    run.total.links_evicted += s.links_evicted;
    run.total.links_readmitted += s.links_readmitted;
    run.total.resident_links += s.resident_links;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> index;
  for (std::size_t l = 0; l < ids.size(); ++l) index[ids[l]] = l;
  for (auto record : core.MergedDecisionLog()) {
    record.link_id = index.at(record.link_id);
    run.log.push_back(record);
  }
  std::stable_sort(run.log.begin(), run.log.end(),
                   [](const auto& a, const auto& b) {
                     return a.link_id < b.link_id;
                   });
  return run;
}

void ExpectSameChurn(const ChurnRun& got, const ChurnRun& want) {
  EXPECT_EQ(got.total.frames_processed, want.total.frames_processed);
  EXPECT_EQ(got.total.decisions, want.total.decisions);
  EXPECT_EQ(got.total.links_admitted, want.total.links_admitted);
  EXPECT_EQ(got.total.links_evicted, want.total.links_evicted);
  EXPECT_EQ(got.total.links_readmitted, want.total.links_readmitted);
  EXPECT_EQ(got.total.resident_links, want.total.resident_links);
  ASSERT_EQ(got.log.size(), want.log.size());
  for (std::size_t i = 0; i < got.log.size(); ++i) {
    EXPECT_EQ(got.log[i].link_id, want.log[i].link_id);
    EXPECT_EQ(got.log[i].decision.score, want.log[i].decision.score);
    EXPECT_EQ(got.log[i].decision.timestamp_s,
              want.log[i].decision.timestamp_s);
  }
}

std::vector<std::uint64_t> PlainIds(std::size_t count) {
  std::vector<std::uint64_t> ids(count);
  for (std::size_t l = 0; l < count; ++l) ids[l] = l;
  return ids;
}

TEST(ServeEviction, CollidingIdsChurnThroughGrowthLikeAnyIds) {
  auto& f = Fixture();
  const auto streams = ChurnStreams(f, 30);
  const ChurnRun got = RunChurn(f, streams, CollidingIds(30, 10), 1, 20);
  const ChurnRun want = RunChurn(f, streams, PlainIds(30), 1, 20);
  EXPECT_GT(want.total.links_evicted, 10u);  // LRU and health evictions
  EXPECT_GT(want.total.links_readmitted, 10u);
  EXPECT_EQ(want.total.resident_links, 20u);
  ExpectSameChurn(got, want);
}

// Cooldown and readmission with every link on one shard of two and in one
// probe run there: per-link decisions equal a one-shard run of plain ids
// (no roster cap, so the shard topology does not matter).
TEST(ServeEviction, CollidingIdsOnOneShardKeepCooldownAndReadmission) {
  auto& f = Fixture();
  const auto streams = ChurnStreams(f, 24);
  const ChurnRun got =
      RunChurn(f, streams, CollidingIds(24, 10, /*shards=*/2), 2, 0);
  const ChurnRun want = RunChurn(f, streams, PlainIds(24), 1, 0);
  EXPECT_EQ(want.total.links_evicted, 2u);  // each stormy link once
  EXPECT_EQ(want.total.links_readmitted, 2u);  // and back after cooldown
  ExpectSameChurn(got, want);
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
