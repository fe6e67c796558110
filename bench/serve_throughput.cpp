// Serving-tier throughput benchmark: aggregate decisions/s of the sharded
// ServeCore over simulated link fleets, the headline number behind the
// ">100k decisions/s" serving claim (combined scheme, hop-1 cadence).
//
// Three kinds of evidence land in BENCH_serve.json:
//   * fleet rows — steady-state throughput over warm resident fleets
//     (10k / 100k links) plus a residency-capped churn row (1M links
//     through an LRU-bounded roster), each with the counting-allocator
//     delta per decision and per-shard queue-depth percentiles;
//   * a shard scaling curve at the 10k fleet (shards beyond
//     hardware_concurrency are oversubscription reference points, labeled
//     as such);
//   * a determinism block — per-link frame streams replayed through 1/2/4
//     shards in deterministic mode must produce byte-identical merged
//     decision logs.
//
// --smoke shrinks every fleet so CI can run the full code path in seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "counting_new.h"
#include "experiments/format.h"
#include "experiments/scenario.h"
#include "serve/serve.h"

namespace {

using namespace mulink;
namespace ex = mulink::experiments;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// One calibrated channel-config profile shared by every fleet link.
struct ProfileKit {
  std::shared_ptr<const core::Detector> detector;
  std::vector<double> empty_scores;
  std::vector<wifi::CsiPacket> packet_pool;  // empty-room frames, reused
};

ProfileKit MakeProfile(std::size_t window_packets, std::size_t pool_size) {
  core::DetectorConfig config;
  config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
  config.window_packets = window_packets;

  Rng rng(7);
  const auto lc = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(lc);
  const auto calibration = sim.CaptureSession(400, std::nullopt, rng);
  auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                            sim.array(), config);
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
  for (std::size_t start = 0; start + window_packets <= calibration.size();
       start += window_packets) {
    empty_windows.emplace_back(
        calibration.begin() + static_cast<std::ptrdiff_t>(start),
        calibration.begin() +
            static_cast<std::ptrdiff_t>(start + window_packets));
  }
  detector.CalibrateThreshold(empty_windows);

  ProfileKit kit;
  kit.empty_scores.reserve(empty_windows.size());
  {
    core::DetectorScratch scratch;
    for (const auto& window : empty_windows) {
      kit.empty_scores.push_back(
          detector.Score(std::span<const wifi::CsiPacket>(window), scratch));
    }
  }
  kit.detector = std::make_shared<const core::Detector>(std::move(detector));
  kit.packet_pool = sim.CaptureSession(pool_size, std::nullopt, rng);
  return kit;
}

core::StreamingConfig FleetStream(std::size_t window_packets) {
  core::StreamingConfig stream;
  stream.window_packets = window_packets;
  // Hop 1: one decision per frame once the window is full — the serving
  // cadence the throughput target is defined against.
  stream.hop_packets = 1;
  stream.use_hmm = false;
  // The pooled frames carry arbitrary sequence numbers, so the guard (off
  // by default) must stay off for the throughput rows; the serve unit tests
  // cover guard-driven health eviction on realistic per-link streams.
  return stream;
}

// Percentile of the log2-bucketed depth distribution: upper bound of the
// bucket where the CDF crosses q.
std::size_t DepthPercentile(const serve::ShardStats& stats, double q) {
  if (stats.depth_samples == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(stats.depth_samples));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
    seen += stats.depth_buckets[b];
    if (seen > target) {
      return b == 0 ? 1 : (std::size_t{1} << (b + 1)) - 1;
    }
  }
  return stats.max_depth;
}

struct FleetRowResult {
  std::size_t links = 0;
  std::size_t shards = 0;
  std::size_t window_packets = 0;
  std::size_t resident_cap = 0;
  bool churn = false;
  std::uint64_t frames_routed = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t decisions = 0;
  double elapsed_s = 0.0;
  double decisions_per_s = 0.0;
  double allocs_per_decision = 0.0;
  std::uint64_t links_admitted = 0;
  std::uint64_t links_evicted = 0;
  std::vector<serve::ShardStats> shard_stats;
};

// Warm resident fleet: every link keeps its window full; the measured phase
// submits `measure_passes` more frames per link (1 decision each at hop 1)
// and must not allocate.
FleetRowResult RunResidentFleet(const ProfileKit& kit, std::size_t links,
                                std::size_t shards,
                                std::size_t window_packets,
                                std::size_t measure_passes) {
  serve::ServeConfig config;
  config.num_shards = shards;
  // 256 cells (~380 KB of CSI) keep the ring L2-resident: with a multi-MB
  // ring every cell copy is a cold write-allocate, which taxes the demux
  // thread without buying any steady-state buffering beyond what the
  // batched kBlock hand-off already provides.
  config.queue_capacity = 256;
  // Block: the demux waits for the workers instead of shedding, so the row
  // measures scoring throughput, not drop throughput.
  config.policy = serve::BackPressure::kBlock;
  config.stream = FleetStream(window_packets);

  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(kit.detector, kit.empty_scores);
  core.Start();

  const auto& pool = kit.packet_pool;
  // Warmup: fill every window and run a few decisions so every buffer in
  // every LinkState (and the queues' cells) reaches steady-state capacity.
  // Each queue cell allocates its CSI buffer on first use, so the warmup
  // must cycle every ring at least once: submit enough passes that each
  // shard sees more frames than its queue has cells.
  const std::size_t ring_passes =  // 2x: hashing splits links unevenly
      (2 * config.queue_capacity * shards + links - 1) / links + 1;
  const std::size_t warm_passes = std::max(window_packets + 2, ring_passes);
  for (std::size_t p = 0; p < warm_passes; ++p) {
    for (std::size_t l = 0; l < links; ++l) {
      core.Submit(l, profile, pool[(p + l) % pool.size()]);
    }
  }
  core.Drain();

  const auto stats_before = core.Stats();
  std::uint64_t decisions_before = 0;
  for (const auto& s : stats_before) decisions_before += s.decisions;

  const std::uint64_t allocs_before =
      counting_new::Allocations();
  const auto begin = Clock::now();
  for (std::size_t p = 0; p < measure_passes; ++p) {
    for (std::size_t l = 0; l < links; ++l) {
      core.Submit(l, profile, pool[(p + l) % pool.size()]);
    }
  }
  core.Drain();
  const auto end = Clock::now();
  const std::uint64_t allocs_after =
      counting_new::Allocations();
  core.Stop();

  FleetRowResult row;
  row.links = links;
  row.shards = shards;
  row.window_packets = window_packets;
  row.shard_stats = core.Stats();
  for (const auto& s : row.shard_stats) {
    row.frames_routed += s.frames_routed;
    row.frames_dropped += s.frames_dropped;
    row.decisions += s.decisions;
    row.links_admitted += s.links_admitted;
    row.links_evicted += s.links_evicted;
  }
  row.decisions -= decisions_before;
  row.elapsed_s = Seconds(begin, end);
  row.decisions_per_s =
      row.elapsed_s > 0.0
          ? static_cast<double>(row.decisions) / row.elapsed_s
          : 0.0;
  row.allocs_per_decision =
      row.decisions == 0
          ? 0.0
          : static_cast<double>(allocs_after - allocs_before) /
                static_cast<double>(row.decisions);
  return row;
}

// Residency-capped churn: many more links than the roster holds, routed in
// per-link bursts (admit, fill the window, decide, then lose the LRU race).
// Measures the admission/eviction control plane at fleet scale, so the
// allocator is legitimately busy here — the row reports admissions and
// evictions instead of an alloc gate.
FleetRowResult RunChurnFleet(const ProfileKit& kit, std::size_t links,
                             std::size_t shards, std::size_t window_packets,
                             std::size_t resident_cap) {
  serve::ServeConfig config;
  config.num_shards = shards;
  config.queue_capacity = 256;
  config.policy = serve::BackPressure::kBlock;
  config.max_resident_per_shard = resident_cap;
  config.stream = FleetStream(window_packets);

  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(kit.detector, kit.empty_scores);
  core.Start();

  const auto& pool = kit.packet_pool;
  const auto begin = Clock::now();
  for (std::size_t l = 0; l < links; ++l) {
    // One burst per link: window fill plus one hop-1 decision.
    for (std::size_t p = 0; p < window_packets; ++p) {
      core.Submit(l, profile, pool[(p + l) % pool.size()]);
    }
  }
  core.Drain();
  const auto end = Clock::now();
  core.Stop();

  FleetRowResult row;
  row.links = links;
  row.shards = shards;
  row.window_packets = window_packets;
  row.resident_cap = resident_cap;
  row.churn = true;
  row.shard_stats = core.Stats();
  for (const auto& s : row.shard_stats) {
    row.frames_routed += s.frames_routed;
    row.frames_dropped += s.frames_dropped;
    row.decisions += s.decisions;
    row.links_admitted += s.links_admitted;
    row.links_evicted += s.links_evicted;
  }
  row.elapsed_s = Seconds(begin, end);
  row.decisions_per_s =
      row.elapsed_s > 0.0
          ? static_cast<double>(row.decisions) / row.elapsed_s
          : 0.0;
  return row;
}

// Deterministic replay: per-link frame streams (forked RNG in link order)
// through `shards` shards; returns the merged log's raw bytes for an exact
// cross-shard-count comparison.
std::vector<std::uint8_t> DeterministicLogBytes(
    const ProfileKit& kit, std::size_t links, std::size_t frames_per_link,
    std::size_t shards, std::size_t window_packets) {
  serve::ServeConfig config;
  config.num_shards = shards;
  config.queue_capacity = 256;
  config.deterministic = true;
  config.collect_decision_log = true;
  config.stream = FleetStream(window_packets);

  serve::ServeCore core(config);
  const auto profile = core.RegisterProfile(kit.detector, kit.empty_scores);

  // Per-link packet streams, pre-generated so every shard count replays the
  // exact same frames in the exact same demux order.
  Rng rng(101);
  const auto lc = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(lc);
  std::vector<std::vector<wifi::CsiPacket>> streams;
  streams.reserve(links);
  for (std::size_t l = 0; l < links; ++l) {
    auto fork = rng.Fork();
    streams.push_back(sim.CaptureSession(frames_per_link, std::nullopt, fork));
  }

  core.Start();
  for (std::size_t p = 0; p < frames_per_link; ++p) {
    for (std::size_t l = 0; l < links; ++l) {
      core.Submit(l, profile, streams[l][p]);
    }
  }
  core.Drain();
  core.Stop();

  const auto log = core.MergedDecisionLog();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(log.size() * (sizeof(std::uint64_t) + 2 * sizeof(double) + 2));
  for (const auto& record : log) {
    const auto append = [&bytes](const void* p, std::size_t n) {
      const auto* b = static_cast<const std::uint8_t*>(p);
      bytes.insert(bytes.end(), b, b + n);
    };
    append(&record.link_id, sizeof(record.link_id));
    append(&record.decision.score, sizeof(double));
    append(&record.decision.posterior, sizeof(double));
    bytes.push_back(record.decision.occupied ? 1 : 0);
    bytes.push_back(record.decision.degraded ? 1 : 0);
  }
  return bytes;
}

void WriteShardDepthJson(std::ostream& out, const serve::ShardStats& stats) {
  out << "{\"p50\": " << DepthPercentile(stats, 0.50)
      << ", \"p90\": " << DepthPercentile(stats, 0.90)
      << ", \"p99\": " << DepthPercentile(stats, 0.99)
      << ", \"max\": " << stats.max_depth
      << ", \"samples\": " << stats.depth_samples << "}";
}

void WriteRowJson(std::ostream& out, const FleetRowResult& row) {
  out << "    {\"links\": " << row.links << ", \"shards\": " << row.shards
      << ", \"window_packets\": " << row.window_packets
      << ", \"churn\": " << (row.churn ? "true" : "false")
      << ", \"resident_cap\": " << row.resident_cap
      << ",\n     \"frames_routed\": " << row.frames_routed
      << ", \"frames_dropped\": " << row.frames_dropped
      << ", \"decisions\": " << row.decisions
      << ",\n     \"elapsed_s\": " << ex::Fmt(row.elapsed_s, 3)
      << ", \"decisions_per_s\": " << ex::Fmt(row.decisions_per_s, 0)
      << ", \"allocs_per_decision\": "
      << ex::Fmt(row.allocs_per_decision, 4)
      << ",\n     \"links_admitted\": " << row.links_admitted
      << ", \"links_evicted\": " << row.links_evicted
      << ",\n     \"queue_depth\": [";
  for (std::size_t i = 0; i < row.shard_stats.size(); ++i) {
    if (i > 0) out << ", ";
    WriteShardDepthJson(out, row.shard_stats[i]);
  }
  out << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  const std::size_t window_packets = 25;
  const std::size_t hw = std::max<unsigned>(
      1u, std::thread::hardware_concurrency());

  std::cout << "serve_throughput: combined scheme, window " << window_packets
            << ", hop 1, hardware_concurrency " << hw
            << (smoke ? " [smoke]" : "") << "\n";

  const ProfileKit kit = MakeProfile(window_packets, 64);

  // Fleet rows: warm resident fleets, then the LRU churn row.
  const std::size_t small_fleet = smoke ? 64 : 10000;
  const std::size_t large_fleet = smoke ? 128 : 100000;
  const std::size_t churn_fleet = smoke ? 256 : 1000000;
  const std::size_t churn_cap = smoke ? 64 : 50000;
  const std::size_t passes = smoke ? 2 : 5;

  // Hot-set serving rows: the low-latency window-10 configuration on a
  // cache-resident fleet. The big fleets above are DRAM-bound by design
  // (every decision re-reads a window that went cold since the link's last
  // frame); these rows report what a shard sustains when the per-link state
  // still fits in cache — the per-core budget a deployment provisions
  // against when it sizes links-per-shard.
  const std::size_t hot_window = 10;
  const ProfileKit hot_kit = MakeProfile(hot_window, 64);
  const std::size_t hot_passes = smoke ? 2 : 20;

  std::vector<FleetRowResult> rows;
  std::vector<FleetRowResult> scaling;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    auto row = RunResidentFleet(kit, small_fleet, shards, window_packets,
                                passes);
    std::cout << "  fleet " << row.links << " x" << row.shards
              << " shard(s): "
              << ex::Fmt(row.decisions_per_s, 0) << " decisions/s, "
              << ex::Fmt(row.allocs_per_decision, 4)
              << " allocs/decision\n";
    if (shards == 1) rows.push_back(row);
    scaling.push_back(std::move(row));
  }
  rows.push_back(
      RunResidentFleet(kit, large_fleet, 1, window_packets,
                       smoke ? passes : 2));
  std::cout << "  fleet " << rows.back().links << " x1 shard: "
            << ex::Fmt(rows.back().decisions_per_s, 0) << " decisions/s, "
            << ex::Fmt(rows.back().allocs_per_decision, 4)
            << " allocs/decision\n";
  for (const std::size_t hot_links :
       {smoke ? std::size_t{32} : std::size_t{256},
        smoke ? std::size_t{64} : std::size_t{1024}}) {
    auto row =
        RunResidentFleet(hot_kit, hot_links, 1, hot_window, hot_passes);
    std::cout << "  hot fleet " << row.links << " x1 shard (window "
              << hot_window << "): " << ex::Fmt(row.decisions_per_s, 0)
              << " decisions/s, " << ex::Fmt(row.allocs_per_decision, 4)
              << " allocs/decision\n";
    rows.push_back(std::move(row));
  }
  rows.push_back(
      RunChurnFleet(kit, churn_fleet, 1, window_packets, churn_cap));
  std::cout << "  churn " << rows.back().links << " links (cap "
            << churn_cap << "): "
            << ex::Fmt(rows.back().decisions_per_s, 0) << " decisions/s, "
            << rows.back().links_evicted << " evictions\n";

  // Headline: the largest warm resident fleet at full hardware concurrency
  // (sharded at min(hw, 4); on a single-core host that is 1 shard).
  const FleetRowResult* headline = &rows[0];
  for (const auto& row : rows) {
    if (!row.churn && row.decisions_per_s > headline->decisions_per_s) {
      headline = &row;
    }
  }

  // Determinism: merged decision logs must be byte-identical for 1/2/4
  // shards.
  const std::size_t det_links = smoke ? 16 : 64;
  const std::size_t det_frames = smoke ? 40 : 80;
  const auto log1 =
      DeterministicLogBytes(kit, det_links, det_frames, 1, window_packets);
  const auto log2 =
      DeterministicLogBytes(kit, det_links, det_frames, 2, window_packets);
  const auto log4 =
      DeterministicLogBytes(kit, det_links, det_frames, 4, window_packets);
  const bool bit_identical = !log1.empty() && log1 == log2 && log1 == log4;
  std::cout << "  determinism: " << det_links << " links via 1/2/4 shards: "
            << (bit_identical ? "bit-identical" : "MISMATCH") << "\n";

  std::ofstream json("BENCH_serve.json");
  json << "{\n"
       << "  \"benchmark\": \"mulink_serve\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scheme\": \"subcarrier+path-weighting\",\n"
       << "  \"window_packets\": " << window_packets << ",\n"
       << "  \"hop_packets\": 1,\n"
       << "  \"queue_capacity\": 256,\n"
       << "  \"policy\": \"block\",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    WriteRowJson(json, rows[i]);
    json << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& row = scaling[i];
    json << "    {\"shards\": " << row.shards << ", \"links\": " << row.links
         << ", \"decisions_per_s\": " << ex::Fmt(row.decisions_per_s, 0)
         << ", \"oversubscribed\": "
         << (row.shards > hw ? "true" : "false") << "}"
         << (i + 1 < scaling.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"headline\": {\"links\": " << headline->links
       << ", \"shards\": " << headline->shards
       << ", \"window_packets\": " << headline->window_packets
       << ", \"decisions_per_s\": "
       << ex::Fmt(headline->decisions_per_s, 0)
       << ", \"allocs_per_decision\": "
       << ex::Fmt(headline->allocs_per_decision, 4) << "},\n"
       << "  \"determinism\": {\"shard_counts\": [1, 2, 4], \"links\": "
       << det_links << ", \"frames_per_link\": " << det_frames
       << ", \"decisions\": " << (log1.size() / 26)
       << ", \"bit_identical\": " << (bit_identical ? "true" : "false")
       << "}\n"
       << "}\n";
  std::cout << "wrote BENCH_serve.json\n";
  return bit_identical ? 0 : 1;
}
