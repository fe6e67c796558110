// Per-link heap footprint of fleet mode, measured deterministically: the
// bytes operator new is asked for (the counting replacement linked into
// this binary) while one more shared-profile combined-scheme link joins a
// warm shared-scratch engine and fills its first window. At fleet scale
// this is what every link costs, so a per-link copy of the window packets
// coming back fails here rather than only in a benchmark's RSS figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "counting_new.h"
#include "experiments/scenario.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

// The 3x30 window-25 link keeps its window as split-complex slabs plus one
// multipath factor row per slot, (2 x 3 + 1) x 30 doubles = 1680 B per
// slot and 41 KiB per window; the rest is the link's HMM, guard,
// calibrator and metrics state. A per-slot AoS packet ring adds another
// ~37 KiB.
constexpr std::uint64_t kMaxBytesPerLink = 48 * 1024;

TEST(EngineFootprint, SharedProfileCombinedLinkFitsItsSlabRing) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(17);
  const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
  const auto stream = sim.CaptureSession(100, std::nullopt, rng);
  auto detector =
      core::Detector::Calibrate(calibration, sim.band(), sim.array(), {});
  std::vector<double> empty_scores;
  for (std::size_t start = 0; start + 25 <= 100; start += 25) {
    empty_scores.push_back(detector.Score(std::vector<wifi::CsiPacket>(
        stream.begin() + static_cast<std::ptrdiff_t>(start),
        stream.begin() + static_cast<std::ptrdiff_t>(start + 25))));
  }
  detector.SetThreshold(1.0);
  const auto shared =
      std::make_shared<const core::Detector>(std::move(detector));
  core::StreamingConfig config;
  config.window_packets = 25;
  config.guard_enabled = true;
  const std::span<const wifi::CsiPacket> window(stream.data(), 25);

  // The first link warms the engine's shared scratch.
  core::SensingEngine engine;
  engine.UseSharedScratch();
  const std::size_t first = engine.AddLink(shared, empty_scores, config);
  (void)engine.ProcessBatch(first, window);

  const std::uint64_t before = counting_new::BytesRequested();
  const std::size_t second = engine.AddLink(shared, empty_scores, config);
  std::size_t decisions = 0;
  for (const auto& packet : window) {
    decisions += engine.ProcessPacket(second, packet).has_value() ? 1 : 0;
  }
  const std::uint64_t bytes = counting_new::BytesRequested() - before;

  EXPECT_EQ(decisions, 1u);
  EXPECT_LT(bytes, kMaxBytesPerLink) << "bytes per link: " << bytes;
  RecordProperty("bytes_per_link", static_cast<int>(bytes));
}

}  // namespace
