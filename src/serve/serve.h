// Sharded multi-link serving core.
//
// ServeCore turns the single-thread SensingEngine into a fleet-scale
// service: links are hashed onto shards, each shard owns a SensingEngine
// workspace pinned to one worker thread, and a single demux thread routes
// CSI frames into bounded lock-free ingest queues (spsc_ring.h). All
// cross-thread traffic flows through those queues — shard state (roster,
// LRU list, decision log, metrics) is worker-owned and needs no locks.
//
// Link lifecycle: links are admitted lazily on their first routed frame
// against a registered profile (a channel-config group sharing one
// immutable calibrated Detector and, through the engine's shared scratch,
// one warm scoring workspace per shard). A full roster evicts the
// least-recently-used link; an unhealthy link (quarantine storm or an
// all-dead antenna set), or one whose pipeline throws on a frame, is
// evicted with a readmission cooldown counted in ITS OWN frames, so the
// eviction point is a deterministic function of the link's stream alone.
// A throwing link never takes its shard down.
//
// Determinism contract: the demux preserves per-link frame order (one
// producer, FIFO queues), and each link's decisions depend only on its own
// frames, so with back-pressure kBlock (forced by deterministic mode) the
// per-link decision sequences — and the link-id-major merged log — are
// bit-identical for ANY shard count. The one topology-dependent exception
// is capacity (LRU) eviction, which depends on which links share a shard;
// the contract holds whenever max_resident_per_shard is not exceeded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "core/engine.h"
#include "serve/spsc_ring.h"

namespace mulink::serve {

// What the demux does when a shard's ingest queue is full.
enum class BackPressure : std::uint8_t {
  kBlock,         // spin until the worker frees a slot (no frame loss)
  kDropOldest,    // discard the queue's oldest frame, then enqueue
  kRejectNewest,  // refuse the incoming frame
};

const char* ToString(BackPressure policy);

struct ServeConfig {
  std::size_t num_shards = 1;
  // Per-shard ingest queue capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  BackPressure policy = BackPressure::kDropOldest;
  // Forces kBlock so no frame is ever lost — with per-link FIFO order this
  // makes per-link decision logs bit-identical across shard counts.
  bool deterministic = false;
  // Roster cap per shard; 0 = unbounded. Beyond it the LRU link is evicted
  // to make room (its engine slot is recycled).
  std::size_t max_resident_per_shard = 0;
  // Health-based eviction: links whose guard quarantined more than
  // max_quarantine_ratio of their frames (after health_check_min_frames),
  // or whose RX chains are all dead, are evicted and barred for
  // readmit_after_frames of their OWN subsequent frames. The same bar
  // applies, whatever evict_unhealthy says, to a link whose pipeline threw.
  bool evict_unhealthy = false;
  double max_quarantine_ratio = 0.5;
  std::uint64_t health_check_min_frames = 64;
  std::uint64_t readmit_after_frames = 256;
  // Record every decision into per-shard logs (MergedDecisionLog). Off for
  // pure-throughput runs: the log is the one hot-path sink that grows.
  bool collect_decision_log = false;
  // Per-link streaming parameters (window, hop, HMM, guard). Calibration
  // is forced OFF for shared-profile links and ON as-given for profiles
  // registered with per_link_calibration.
  core::StreamingConfig stream;
};

struct DecisionRecord {
  std::uint64_t link_id = 0;
  core::PresenceDecision decision;
};

// Post-run, per-shard totals. Producer-side fields (routed/dropped/
// rejected) are written by the demux thread, the rest by the shard worker;
// read them after Drain()/Stop().
struct ShardStats {
  std::uint64_t frames_routed = 0;
  std::uint64_t frames_dropped = 0;   // drop-oldest displacements
  // Refused frames: reject-newest on a full queue, plus frames whose shape
  // does not match their profile's detector (whatever the policy).
  std::uint64_t frames_rejected = 0;
  std::uint64_t frames_processed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t links_admitted = 0;
  std::uint64_t links_evicted = 0;
  std::uint64_t links_readmitted = 0;
  // Links evicted because their pipeline threw a mulink::Error on a frame
  // (also counted in links_evicted; readmitted after the health cooldown).
  std::uint64_t links_failed = 0;
  std::size_t resident_links = 0;
  // Queue depth observed at each worker poll: log2 buckets (bucket i counts
  // polls with depth in [2^i, 2^(i+1)), bucket 0 includes depth 0..1) plus
  // the max. Percentiles fall out of the bucket CDF.
  static constexpr std::size_t kDepthBuckets = 20;
  std::uint64_t depth_buckets[kDepthBuckets] = {};
  std::uint64_t depth_samples = 0;
  std::size_t max_depth = 0;
};

class ServeCore {
 public:
  explicit ServeCore(ServeConfig config);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  // Register a channel-config group. Links admitted against the profile
  // share `detector` (immutable) unless per_link_calibration is set, in
  // which case each admitted link gets its own mutable copy and runs the
  // config.stream recalibration ladder in-shard — hot recalibration never
  // stalls other shards (or other links: the ladder swap is per-link).
  // Must be called before Start().
  std::uint32_t RegisterProfile(std::shared_ptr<const core::Detector> detector,
                                std::vector<double> empty_scores,
                                bool per_link_calibration = false);

  std::size_t num_shards() const { return config_.num_shards; }
  // Stable link→shard routing (splitmix64 of the link id, mod shards).
  std::size_t ShardOf(std::uint64_t link_id) const;

  void Start();

  // Demux entry point — single producer thread. Routes the frame to its
  // link's shard under the configured back-pressure policy. Returns false
  // iff the frame was rejected: its shape does not match the profile's
  // detector, or the queue was full under kRejectNewest.
  MULINK_HOT bool Submit(std::uint64_t link_id, std::uint32_t profile_id,
                         const wifi::CsiPacket& packet);

  // Block until every submitted frame has been consumed (workers stay up).
  void Drain();

  // Drain, stop and join all workers. Idempotent; called by the dtor.
  void Stop();

  // Per-shard totals (call after Drain() or Stop()).
  std::vector<ShardStats> Stats() const;

  // All decision records, link-id-major with per-link arrival order
  // preserved — the determinism artifact. Empty unless
  // config.collect_decision_log. Call after Stop()/Drain().
  std::vector<DecisionRecord> MergedDecisionLog() const;

  // Router registry + each shard's registry + each shard's engine links,
  // merged in shard order (deterministic for a fixed ingest sequence).
  obs::Registry AggregateMetrics() const;

 private:
  struct Frame {
    std::uint64_t link_id = 0;
    std::uint32_t profile_id = 0;
    wifi::CsiPacket packet;
  };

  struct Profile {
    std::shared_ptr<const core::Detector> detector;
    std::vector<double> empty_scores;
    bool per_link_calibration = false;
  };

  struct Shard;

  void WorkerLoop(std::stop_token stop, Shard& shard);
  // Cache hints for the frames after batch[i] (see kWorkerBatch).
  MULINK_HOT void PrefetchAhead(Shard& shard,
                                const SpscRing<Frame>::Batch& batch,
                                std::size_t i);
  MULINK_HOT void ProcessFrame(Shard& shard, const Frame& frame);
  // Returns the new link's roster entry (= its engine slot).
  std::uint32_t AdmitLink(Shard& shard, std::uint64_t link_id,
                          std::uint32_t profile_id);
  void EvictEntry(Shard& shard, std::uint32_t entry_idx,
                  std::uint64_t cooldown_frames);

  ServeConfig config_;
  BackPressure effective_policy_;
  std::vector<Profile> profiles_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Demux-owned registry for routing counters (workers never touch it).
  obs::Registry router_metrics_;
  std::vector<std::jthread> workers_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace mulink::serve
