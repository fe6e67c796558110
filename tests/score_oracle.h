// Raw-window score oracle for SensingEngine tests.
//
// Replays one engine link's ingest cadence on its own: a private
// nic::FrameGuard configured like the link's (shape taken from the
// detector), quarantined frames skipped, the window flushed on resync, the
// same window/hop count and the same dead-chain suppression rule. When a
// window completes it scores the raw packets through the offline Detector
// path — Score, or ScoreDegraded over the live antennas while a chain is
// dead — which shares none of the engine's ingest caches (sanitized slabs,
// mu rows, baseline distances and their profile epochs). The engine's score
// for that window must equal it bit for bit.
//
// Usage: call Expect(packet, engine.detector(link)) BEFORE handing the
// packet to the engine, so an adaptive link is scored against the profile
// the engine will use for that window.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/detector.h"
#include "core/engine.h"
#include "nic/frame_guard.h"
#include "wifi/csi.h"

namespace mulink::test_support {

struct ExpectedDecision {
  double timestamp_s = 0.0;
  double score = 0.0;
  bool degraded = false;
};

class ScoreOracle {
 public:
  ScoreOracle(const core::StreamingConfig& config,
              const core::Detector& detector)
      : config_(config) {
    if (config.guard_enabled) {
      nic::FrameGuardConfig guard = config.guard;
      if (guard.expected_antennas == 0) {
        guard.expected_antennas = detector.num_antennas();
      }
      if (guard.expected_subcarriers == 0) {
        guard.expected_subcarriers = detector.num_subcarriers();
      }
      guard_.emplace(guard);
    }
  }

  // The decision the engine owes for `packet`, or nullopt when it owes none
  // (quarantined frame, window not full, mid-hop, or decisions paused).
  std::optional<ExpectedDecision> Expect(const wifi::CsiPacket& packet,
                                         const core::Detector& detector) {
    if (guard_.has_value()) {
      const nic::FrameReport report = guard_->Inspect(packet);
      if (report.verdict == nic::FrameVerdict::kQuarantine) return std::nullopt;
      if (report.resync) {
        window_.clear();
        since_decision_ = 0;
      }
    }
    window_.push_back(packet);
    if (window_.size() > config_.window_packets) window_.pop_front();
    ++since_decision_;
    if (window_.size() < config_.window_packets ||
        since_decision_ < config_.hop_packets) {
      return std::nullopt;
    }
    since_decision_ = 0;

    const std::uint32_t full =
        (1u << static_cast<std::uint32_t>(detector.num_antennas())) - 1u;
    const std::uint32_t live =
        guard_.has_value() ? full & ~guard_->dead_antenna_mask() : full;
    if (live == 0) {
      return std::nullopt;
    }
    const std::vector<wifi::CsiPacket> raw(window_.begin(), window_.end());
    ExpectedDecision expected;
    expected.timestamp_s = raw.back().timestamp_s;
    if (live != full && detector.has_threshold()) {
      core::DetectorScratch scratch;
      expected.score = detector.ScoreDegraded(raw, scratch, live);
      expected.degraded = true;
    } else {
      expected.score = detector.Score(raw);
    }
    return expected;
  }

 private:
  core::StreamingConfig config_;
  std::optional<nic::FrameGuard> guard_;
  std::deque<wifi::CsiPacket> window_;
  std::size_t since_decision_ = 0;
};

// Feeds `packet` to the oracle, then to the engine's `link`, and checks that
// the engine decided exactly when the oracle owed a decision, on the
// oracle's timestamp, score and degraded flag. Returns the engine's
// decision.
inline std::optional<core::PresenceDecision> CheckedPush(
    ScoreOracle& oracle, core::SensingEngine& engine, std::size_t link,
    const wifi::CsiPacket& packet) {
  const auto expected = oracle.Expect(packet, engine.detector(link));
  const auto got = engine.ProcessPacket(link, packet);
  EXPECT_EQ(expected.has_value(), got.has_value())
      << "link " << link << ", sequence " << packet.sequence;
  if (expected.has_value() && got.has_value()) {
    EXPECT_EQ(expected->timestamp_s, got->timestamp_s);
    EXPECT_EQ(expected->score, got->score)
        << "link " << link << ", sequence " << packet.sequence;
    EXPECT_EQ(expected->degraded, got->degraded);
  }
  return got;
}

}  // namespace mulink::test_support
