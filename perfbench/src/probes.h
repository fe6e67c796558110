// Per-layer probes of the traced run. Each layer is timed from outside,
// around calls into its public functions, on the workload's own frames.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fleet.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

// A timing with the number of samples behind it.
struct Timing {
  double value = 0.0;
  std::uint64_t samples = 0;
};

double Quantile(std::vector<double> values, double q);
Timing Median(const std::vector<double>& values);

// Single-thread SensingEngine::ProcessPacket over the fleet's frames and
// config (one engine holding every link, shared scratch, as one shard
// would): the single-threaded baseline of the serving tier.
struct EngineProbe {
  Timing ingest_ns;  // calls that returned no decision (mean)
  Timing decide_ns;  // calls that returned a decision (mean)
  double total_ns = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  obs::Registry before;  // engine registry around the timed passes
  obs::Registry after;
};
EngineProbe RunEngineProbe(Workload& w,
                           const std::vector<CalibratedProfile>& profiles,
                           std::size_t timed_passes, Tracer& tracer);

// Detector::Score(window, scratch) per call, warm scratch, on the first
// room's pool windows: combined, subcarrier-weighting, variance-mobile.
std::array<Timing, 3> RunScoreProbe(const Workload& w, Tracer& tracer);

// nic::FrameGuard::Inspect per frame over class 0's stream.
Timing RunGuardProbe(Workload& w, Tracer& tracer);

// Kernel calls at the workload's shapes, with computed bytes per call.
struct KernelProbe {
  static constexpr std::size_t kCount = 5;
  static constexpr const char* kNames[kCount] = {
      "atan2", "deinterleave", "mu_accumulate_row", "weighted_covariance",
      "bartlett_scan"};
  std::array<Timing, kCount> ns;
  std::array<double, kCount> bytes{};
};
KernelProbe RunKernelProbe(const Workload& w, Tracer& tracer);

}  // namespace perfbench
