// Microbenchmarks backing Sec. V-B4's claim that "the weighting schemes are
// low in computation complexity": per-packet and per-window costs of every
// pipeline stage, so the packet budget (not compute) dominates latency.
//
// The ScoreWindow benchmarks come in before/after pairs — the legacy
// allocating Score against the workspace Score on persistent scratch — each
// reporting allocations per window via a counting global allocator. A
// machine-readable summary of that comparison is written to
// BENCH_engine.json before the Google-benchmark run starts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>

#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "counting_new.h"
#include "experiments/scenario.h"
#include "obs/metrics.h"

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

// ---- BENCH_engine.json ---------------------------------------------------
// Standalone legacy-vs-engine comparison for every scheme, emitted before
// the benchmark run so CI and the docs have a machine-readable artifact.
//
// All three columns process the SAME 200-packet stream at the same cadence
// (window 25, hop 10) and report cost per emitted decision, so they differ
// only in how the work is organized:
//  * legacy   — per decision, assemble the window and call the allocating
//               per-call Score API (fresh buffers + full window
//               re-sanitization every call),
//  * scratch  — same walk on a persistent workspace (zero steady-state
//               allocations, but still re-sanitizes the 25-packet window
//               every hop),
//  * engine   — SensingEngine::ProcessBatch (workspace + each packet
//               sanitized once on ingest).
// All three read the profile covariance stack the detector built at
// calibration, so none of them pays the profile-side packet scan.
// Scoring a varying stream is deliberate: re-scoring one fixed window keeps
// every buffer and branch predictor hot and flatters whichever API runs
// last. `speedup` compares the deployable engine path against the legacy
// per-call API.

struct EngineRow {
  const char* scheme;
  double legacy_ns = 0.0;
  double legacy_allocs = 0.0;
  double scratch_ns = 0.0;
  double scratch_allocs = 0.0;
  double engine_ns = 0.0;
  double engine_allocs = 0.0;
  // Same engine path with the observability registry attached — the cost of
  // metrics is (engine_metrics_ns - engine_ns) / engine_ns, and the
  // allocation column proves recording stays heap-free.
  double engine_metrics_ns = 0.0;
  double engine_metrics_allocs = 0.0;
};

// Replays the engine's window/hop cadence over a batch with a plain ring of
// raw packets, assembling each window in arrival order, so the legacy and
// scratch columns pay a window-assembly cost too. Fill state persists
// across passes: after the first pass every pass emits batch.size() / hop
// decisions.
struct StreamEmulator {
  std::size_t window_packets;
  std::size_t hop;
  std::vector<wifi::CsiPacket> ring;
  std::vector<wifi::CsiPacket> window;
  std::size_t write_pos = 0;
  std::size_t count = 0;
  std::size_t since = 0;

  StreamEmulator(std::size_t window_size, std::size_t hop_size)
      : window_packets(window_size), hop(hop_size) {
    ring.resize(window_packets);
    window.reserve(window_packets);
  }

  template <typename Fn>
  void Pass(std::span<const wifi::CsiPacket> batch, Fn&& score_window) {
    for (const auto& packet : batch) {
      ring[write_pos] = packet;
      write_pos = (write_pos + 1) % window_packets;
      if (count < window_packets) ++count;
      ++since;
      if (count < window_packets || since < hop) continue;
      since = 0;
      window.resize(window_packets);
      for (std::size_t i = 0; i < window_packets; ++i) {
        window[i] = ring[(write_pos + i) % window_packets];
      }
      score_window(window);
    }
  }
};

// Smoke mode (--smoke): one calibration round instead of ~50 ms per column
// and no Google-benchmark run — CI executes the binary as a crash canary.
bool g_smoke = false;

template <typename Fn>
void MeasureLoop(Fn&& score_once, double& ns_per_window,
                 double& allocs_per_window) {
  using clock = std::chrono::steady_clock;
  score_once();  // warm-up
  // Calibrate iteration count to ~50 ms of work (~0.5 ms in smoke mode).
  const double target_ns = g_smoke ? 5e5 : 5e7;
  std::size_t iters = 8;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) score_once();
    const double elapsed_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                clock::now() - t0)
                                .count());
    if (elapsed_ns > target_ns || iters >= (1u << 20)) {
      // Min of three timed passes: the box runs other tenants, and a single
      // pass can absorb a scheduling gap several times the cost of the work
      // being measured. The minimum is the standard noise-robust estimator
      // for a deterministic loop. Allocations are counted across all
      // passes — any pass allocating would make the quotient non-zero.
      const std::uint64_t allocs_before = AllocCount();
      double best_ns = 0.0;
      const int passes = g_smoke ? 1 : 3;
      for (int pass = 0; pass < passes; ++pass) {
        const auto m0 = clock::now();
        for (std::size_t i = 0; i < iters; ++i) score_once();
        const double measured_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                 m0)
                .count());
        if (pass == 0 || measured_ns < best_ns) best_ns = measured_ns;
      }
      ns_per_window = best_ns / static_cast<double>(iters);
      allocs_per_window =
          static_cast<double>(AllocCount() - allocs_before) /
          static_cast<double>(iters * static_cast<std::size_t>(passes));
      return;
    }
    iters *= 2;
  }
}

void WriteEngineJson(const char* path) {
  auto& f = Shared();
  const core::DetectionScheme schemes[] = {
      core::DetectionScheme::kBaseline,
      core::DetectionScheme::kSubcarrierWeighting,
      core::DetectionScheme::kSubcarrierAndPathWeighting,
      core::DetectionScheme::kVarianceMobile,
  };
  constexpr std::size_t kHop = 10;
  const std::span<const wifi::CsiPacket> batch(f.batch);
  const std::size_t window_packets = f.window.size();
  // Fill state persists across MeasureLoop iterations, so every timed pass
  // emits exactly batch / hop decisions.
  const double decisions_per_pass =
      static_cast<double>(f.batch.size()) / static_cast<double>(kHop);

  std::vector<EngineRow> rows;
  // Merged per-stage histograms from every metrics-on engine run; the
  // "stages" object divides each stage's total by the decisions it served.
  obs::Registry stage_totals;
  // The combined scheme's histograms alone, for the per-stage roofline
  // block (merging schemes would blend unrelated score loops).
  obs::Registry combined_metrics;
  for (auto scheme : schemes) {
    core::DetectorConfig config;
    config.scheme = scheme;
    const auto detector = core::Detector::Calibrate(
        f.calibration, f.sim.band(), f.sim.array(), config);
    EngineRow row;
    row.scheme = core::ToString(scheme);

    StreamEmulator legacy_stream(window_packets, kHop);
    MeasureLoop(
        [&] {
          legacy_stream.Pass(batch, [&](const auto& window) {
            benchmark::DoNotOptimize(detector.Score(window));
          });
        },
        row.legacy_ns, row.legacy_allocs);
    row.legacy_ns /= decisions_per_pass;
    row.legacy_allocs /= decisions_per_pass;

    StreamEmulator scratch_stream(window_packets, kHop);
    core::DetectorScratch scratch;
    MeasureLoop(
        [&] {
          scratch_stream.Pass(batch, [&](const auto& window) {
            benchmark::DoNotOptimize(detector.Score(
                std::span<const wifi::CsiPacket>(window), scratch));
          });
        },
        row.scratch_ns, row.scratch_allocs);
    row.scratch_ns /= decisions_per_pass;
    row.scratch_allocs /= decisions_per_pass;

    auto engine_detector = core::Detector::Calibrate(
        f.calibration, f.sim.band(), f.sim.array(), config);
    engine_detector.SetThreshold(1.0);
    core::StreamingConfig stream;
    stream.hop_packets = kHop;
    stream.use_hmm = false;
    core::SensingEngine engine;
    engine.AddLink(std::move(engine_detector), {}, stream);
    engine.SetMetricsEnabled(false);  // runtime no-op sink
    double batch_ns = 0.0, batch_allocs = 0.0;
    MeasureLoop(
        [&] { benchmark::DoNotOptimize(&engine.ProcessBatch(batch)); },
        batch_ns, batch_allocs);
    row.engine_ns = batch_ns / decisions_per_pass;
    row.engine_allocs = batch_allocs / decisions_per_pass;

    // Metrics-on twin: identical engine, registry attached. Its per-stage
    // histograms also feed the top-level "stages" breakdown below.
    auto metrics_detector = core::Detector::Calibrate(
        f.calibration, f.sim.band(), f.sim.array(), config);
    metrics_detector.SetThreshold(1.0);
    core::SensingEngine metrics_engine;
    metrics_engine.AddLink(std::move(metrics_detector), {}, stream);
    metrics_engine.SetMetricsEnabled(true);
    double mbatch_ns = 0.0, mbatch_allocs = 0.0;
    MeasureLoop(
        [&] {
          benchmark::DoNotOptimize(&metrics_engine.ProcessBatch(batch));
        },
        mbatch_ns, mbatch_allocs);
    row.engine_metrics_ns = mbatch_ns / decisions_per_pass;
    row.engine_metrics_allocs = mbatch_allocs / decisions_per_pass;
    stage_totals.MergeFrom(metrics_engine.Metrics(0));
    if (scheme == core::DetectionScheme::kSubcarrierAndPathWeighting) {
      combined_metrics.MergeFrom(metrics_engine.Metrics(0));
    }
    rows.push_back(row);
  }

  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"detector_score_legacy_vs_engine\",\n"
      << "  \"window_packets\": " << f.window.size() << ",\n"
      << "  \"hop_packets\": " << kHop << ",\n"
      << "  \"stream_packets\": " << f.batch.size() << ",\n"
      << "  \"schemes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"scheme\": \"" << r.scheme << "\", "
        << "\"legacy_ns_per_decision\": " << r.legacy_ns << ", "
        << "\"legacy_allocs_per_decision\": " << r.legacy_allocs << ", "
        << "\"scratch_ns_per_decision\": " << r.scratch_ns << ", "
        << "\"scratch_allocs_per_decision\": " << r.scratch_allocs << ", "
        << "\"engine_ns_per_decision\": " << r.engine_ns << ", "
        << "\"engine_allocs_per_decision\": " << r.engine_allocs << ", "
        << "\"engine_metrics_ns_per_decision\": " << r.engine_metrics_ns
        << ", "
        << "\"engine_metrics_allocs_per_decision\": "
        << r.engine_metrics_allocs << ", "
        << "\"metrics_overhead_pct\": "
        << (r.engine_ns > 0.0
                ? 100.0 * (r.engine_metrics_ns - r.engine_ns) / r.engine_ns
                : 0.0)
        << ", "
        << "\"speedup\": " << (r.engine_ns > 0.0 ? r.legacy_ns / r.engine_ns
                                                 : 0.0)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Per-stage breakdown from the metrics-on runs. Every stage key is always
  // present (zeros when a stage did not run or obs is compiled out), so the
  // CI schema check can rely on the shape.
  const double total_decisions = static_cast<double>(
      stage_totals.Get(obs::Counter::kDecisions));
  out << "  ],\n  \"obs_enabled\": "
      << (obs::kEnabled ? "true" : "false") << ",\n  \"stages\": {\n";
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const auto& h = stage_totals.StageLatency(stage);
    out << "    \"" << obs::ToString(stage) << "\": {\"count\": " << h.count
        << ", \"ns_per_decision\": "
        << (total_decisions > 0.0 ? h.total_ns / total_decisions : 0.0)
        << ", \"mean_ns\": " << h.MeanNs() << "}"
        << (s + 1 < obs::kNumStages ? "," : "") << "\n";
  }

  // Per-stage roofline for the combined scheme: analytic traffic and FLOP
  // counts per decision from the pipeline shape, next to the measured
  // latency. The analytic side counts the algorithmic work (reads/writes of
  // the buffers each kernel touches, mul/add/div/sqrt as one FLOP each,
  // libm-grade trig at its polynomial cost) — cache reuse is not modeled,
  // so bytes are an upper bound on DRAM traffic and a lower bound on
  // load/store traffic.
  {
    const double A = static_cast<double>(f.window[0].NumAntennas());
    const double K = static_cast<double>(f.window[0].NumSubcarriers());
    const double W = static_cast<double>(window_packets);
    const double H = static_cast<double>(kHop);
    const double G = static_cast<double>(core::MusicConfig{}.num_points);
    const double pairs = A * (A - 1.0) / 2.0;
    // Kernel-layer trig cost per element (polynomial + reduction, counted
    // from trig_core.h): ~30 flops a sincos pair, ~40 an atan2 (two
    // half-angle reductions burn div/sqrt).
    const double kSinCosFlops = 30.0, kAtan2Flops = 40.0;

    struct RooflineRow {
      const char* stage;
      obs::Stage id;
      double per_decision;  // timed invocations per decision
      double bytes;
      double flops;
    };
    const RooflineRow roofline[] = {
        // Sanitize + ingest-time mu/median per packet, x hop packets per
        // decision. Bytes: CSI in+out, split-complex lanes, mu row.
        {"ingest_sanitize", obs::Stage::kIngestSanitize, H,
         H * (2.0 * A * K * 16.0 + 8.0 * K * 8.0 + K * 8.0),
         H * (2.0 * A * K + (kAtan2Flops + kSinCosFlops) * K + 18.0 * K +
              6.0 * A * K + A * (2.0 * K + 3.0 * K) + 8.0 * K)},
        // Eq. 13-15 from the prepared rows: one fused mean/stability pass
        // over W rows plus the normalization tail.
        {"subcarrier_weighting", obs::Stage::kSubcarrierWeighting, 1.0,
         W * (K * 8.0 + 2.0 * K * 8.0) + 4.0 * K * 8.0,
         W * 3.0 * K + 8.0 * K},
        // Window covariance pack+reduce, profile stack combine, two
        // closed-form lambda_min, the batched two-spectrum Bartlett scan
        // and the Eq. 17 path-weight products.
        {"music_path_weighting", obs::Stage::kMusicPathWeighting, 1.0,
         W * A * K * 16.0 * 2.0 + K * A * A * 16.0 +
             2.0 * A * G * 8.0 + 2.0 * A * A * 16.0 + 4.0 * G * 8.0,
         (A + 4.0 * pairs) * W * K * 4.0 + K * A * A * 8.0 + 2.0 * 60.0 +
             2.0 * G * (2.0 * A + 8.0 * pairs) + 2.0 * G},
        // Normalized Euclidean distance of the two weighted spectra.
        {"score", obs::Stage::kScore, 1.0, 3.0 * G * 8.0, 6.0 * G},
    };
    const double combined_decisions = static_cast<double>(
        combined_metrics.Get(obs::Counter::kDecisions));
    out << "  },\n  \"roofline\": {\n";
    for (std::size_t r = 0; r < std::size(roofline); ++r) {
      const auto& row = roofline[r];
      const auto& h = combined_metrics.StageLatency(row.id);
      // ingest_sanitize is sampled 1-in-N, so scale its per-invocation mean
      // by invocations per decision instead of dividing a sampled total.
      const double ns = combined_decisions > 0.0 && h.count > 0
                            ? h.MeanNs() * row.per_decision
                            : 0.0;
      out << "    \"" << row.stage
          << "\": {\"bytes_per_decision\": " << row.bytes
          << ", \"flops_per_decision\": " << row.flops
          << ", \"ns_per_decision\": " << ns << "}"
          << (r + 1 < std::size(roofline) ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      g_smoke = true;
      // Hide the flag from benchmark::Initialize.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  WriteEngineJson("BENCH_engine.json");
  if (g_smoke) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
