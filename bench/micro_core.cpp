// Microbenchmarks backing Sec. V-B4's claim that "the weighting schemes are
// low in computation complexity": per-packet and per-window costs of every
// pipeline stage, so the packet budget (not compute) dominates latency.
//
// The ScoreWindow benchmarks come in before/after pairs — the legacy
// allocating Score against the workspace Score on persistent scratch — each
// reporting allocations per window via a counting global allocator. These
// rows are for profiling one kernel at a time; the serving path's numbers of
// record come from perfbench (`python3 perfbench/run.py`), and the
// zero-allocation contracts are ctests (core_engine_footprint_test).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "counting_new.h"
#include "experiments/scenario.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

std::uint64_t AllocCount() { return counting_new::Allocations(); }

struct Fixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{77};
  std::vector<wifi::CsiPacket> calibration =
      sim.CaptureSession(400, std::nullopt, rng);
  std::vector<wifi::CsiPacket> window =
      sim.CaptureSession(25, std::nullopt, rng);
  std::vector<wifi::CsiPacket> batch =
      sim.CaptureSession(200, std::nullopt, rng);
  std::vector<wifi::CsiPacket> sanitized =
      core::SanitizePhase(window, sim.band());
};

Fixture& Shared() {
  static Fixture fixture;
  return fixture;
}

void BM_CapturePacket(benchmark::State& state) {
  auto& f = Shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sim.CapturePacket(std::nullopt, f.rng));
  }
}
BENCHMARK(BM_CapturePacket);

void BM_SanitizePhase(benchmark::State& state) {
  auto& f = Shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SanitizePhase(f.window[0], f.sim.band()));
  }
}
BENCHMARK(BM_SanitizePhase);

void BM_MultipathFactors(benchmark::State& state) {
  auto& f = Shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::MeasureMultipathFactors(f.sanitized[0], f.sim.band()));
  }
}
BENCHMARK(BM_MultipathFactors);

void BM_SubcarrierWeights(benchmark::State& state) {
  auto& f = Shared();
  const auto mu = core::MeasureMultipathFactors(f.sanitized, f.sim.band());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeSubcarrierWeights(mu));
  }
}
BENCHMARK(BM_SubcarrierWeights);

void BM_SampleCovariance(benchmark::State& state) {
  auto& f = Shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SampleCovariance(f.sanitized));
  }
}
BENCHMARK(BM_SampleCovariance);

void BM_MusicSpectrum(benchmark::State& state) {
  auto& f = Shared();
  const auto cov = core::SampleCovariance(f.sanitized);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeMusicSpectrum(cov, f.sim.array(), f.sim.band()));
  }
}
BENCHMARK(BM_MusicSpectrum);

void BM_BartlettSpectrum(benchmark::State& state) {
  auto& f = Shared();
  const auto cov = core::SampleCovariance(f.sanitized);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeBartlettSpectrum(cov, f.sim.array(), f.sim.band()));
  }
}
BENCHMARK(BM_BartlettSpectrum);

// Before: the legacy allocating per-call API.
void BM_ScoreWindow(benchmark::State& state) {
  auto& f = Shared();
  core::DetectorConfig config;
  config.scheme = static_cast<core::DetectionScheme>(state.range(0));
  const auto detector = core::Detector::Calibrate(f.calibration, f.sim.band(),
                                                  f.sim.array(), config);
  const std::uint64_t allocs_before = AllocCount();
  std::uint64_t windows = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Score(f.window));
    ++windows;
  }
  state.counters["allocs_per_window"] = windows > 0
      ? static_cast<double>(AllocCount() - allocs_before) /
            static_cast<double>(windows)
      : 0.0;
}
BENCHMARK(BM_ScoreWindow)
    ->Arg(static_cast<int>(core::DetectionScheme::kBaseline))
    ->Arg(static_cast<int>(core::DetectionScheme::kSubcarrierWeighting))
    ->Arg(static_cast<int>(core::DetectionScheme::kSubcarrierAndPathWeighting))
    ->Arg(static_cast<int>(core::DetectionScheme::kVarianceMobile));

// After: the workspace API on persistent scratch (zero allocations once
// warm — the counter asserts it).
void BM_ScoreWindowScratch(benchmark::State& state) {
  auto& f = Shared();
  core::DetectorConfig config;
  config.scheme = static_cast<core::DetectionScheme>(state.range(0));
  const auto detector = core::Detector::Calibrate(f.calibration, f.sim.band(),
                                                  f.sim.array(), config);
  core::DetectorScratch scratch;
  const std::span<const wifi::CsiPacket> window(f.window);
  benchmark::DoNotOptimize(detector.Score(window, scratch));  // warm-up
  const std::uint64_t allocs_before = AllocCount();
  std::uint64_t windows = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Score(window, scratch));
    ++windows;
  }
  state.counters["allocs_per_window"] = windows > 0
      ? static_cast<double>(AllocCount() - allocs_before) /
            static_cast<double>(windows)
      : 0.0;
}
BENCHMARK(BM_ScoreWindowScratch)
    ->Arg(static_cast<int>(core::DetectionScheme::kBaseline))
    ->Arg(static_cast<int>(core::DetectionScheme::kSubcarrierWeighting))
    ->Arg(static_cast<int>(core::DetectionScheme::kSubcarrierAndPathWeighting))
    ->Arg(static_cast<int>(core::DetectionScheme::kVarianceMobile));

// Whole-engine batch ingest of a 200-packet span with sliding windows
// (window 25, hop 10 — the low-latency monitoring cadence), ring + scratch
// fully warm. Counters report allocations per batch and decisions emitted
// per batch, so ns-per-decision = time / decisions_per_batch.
void BM_ProcessBatch(benchmark::State& state) {
  auto& f = Shared();
  core::DetectorConfig config;
  config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
  auto detector = core::Detector::Calibrate(f.calibration, f.sim.band(),
                                            f.sim.array(), config);
  detector.SetThreshold(1.0);
  core::StreamingConfig stream;
  stream.hop_packets = 10;
  stream.use_hmm = false;
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), {}, stream);
  const std::span<const wifi::CsiPacket> batch(f.batch);
  engine.ProcessBatch(batch);  // warm-up
  const std::uint64_t allocs_before = AllocCount();
  std::uint64_t batches = 0, decisions = 0;
  for (auto _ : state) {
    const auto& result = engine.ProcessBatch(batch);
    benchmark::DoNotOptimize(result.decisions.size());
    decisions += result.decisions.size();
    ++batches;
  }
  state.counters["allocs_per_batch"] = batches > 0
      ? static_cast<double>(AllocCount() - allocs_before) /
            static_cast<double>(batches)
      : 0.0;
  state.counters["decisions_per_batch"] =
      batches > 0 ? static_cast<double>(decisions) / static_cast<double>(batches)
                  : 0.0;
}
BENCHMARK(BM_ProcessBatch);

void BM_Calibrate(benchmark::State& state) {
  auto& f = Shared();
  core::DetectorConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Detector::Calibrate(
        f.calibration, f.sim.band(), f.sim.array(), config));
  }
}
BENCHMARK(BM_Calibrate);

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a crash canary for ctest. Every row runs for the shortest time
  // the library allows (one iteration) instead of its timed run.
  std::vector<char*> args;
  std::string min_time = "--benchmark_min_time=0";
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      args.push_back(min_time.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
