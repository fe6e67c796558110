#include "serve/serve.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "common/assert.h"
#include "common/error.h"
#include "kernels/kernels.h"
#include "serve/roster.h"

namespace mulink::serve {

namespace {

std::size_t DepthBucket(std::size_t depth) {
  const std::size_t bucket =
      depth <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(depth) - 1);
  return std::min(bucket, ShardStats::kDepthBuckets - 1);
}

constexpr std::uint32_t kNil = 0xffffffffu;

// One worker claim takes up to kWorkerBatch frames off the ring, which
// makes them private (spsc_ring.h), so the worker can start the cache
// misses of the frames after the one it scores. Each frame's chain of
// dependent loads is split into three stages run that many frames ahead:
// the roster line, then (through it) the link's hot state, then (through
// that) the ring slot the frame will be written to and the frame's CSI.
constexpr std::size_t kWorkerBatch = 16;
constexpr std::size_t kRosterAhead = 3;
constexpr std::size_t kStateAhead = 2;
constexpr std::size_t kSlotAhead = 1;

}  // namespace

const char* ToString(BackPressure policy) {
  switch (policy) {
    case BackPressure::kBlock:
      return "block";
    case BackPressure::kDropOldest:
      return "drop-oldest";
    case BackPressure::kRejectNewest:
      return "reject-newest";
  }
  return "unknown";
}

// Ownership is the shard's whole concurrency story: everything below is
// either worker-owned (touched only by the shard's worker thread), demux-
// owned (touched only by the producer), or an atomic cursor. The two
// ThreadRole phantom capabilities make that discipline compiler-checked
// under Clang -Wthread-safety (DESIGN.md §16): worker-owned fields are
// GUARDED_BY(worker_role), demux-owned counters by producer_role, and the
// owning loops acquire the matching role for their scope. Post-join
// snapshot readers (Stats, MergedDecisionLog, AggregateMetrics) carry an
// explicit do-not-analyze waiver instead of silently reading across the
// boundary.
struct ServeCore::Shard {
  explicit Shard(const ServeConfig& cfg) : ring(cfg.queue_capacity) {
    // Resident links share one warm scoring workspace: consecutive
    // decisions for links of the same profile reuse the profile covariance
    // stack instead of rebuilding it per link.
    engine.UseSharedScratch();
  }

  // Roster entry slab with an intrusive LRU list (head = most recent),
  // indexed by engine slot: the engine hands a removed link's slot to the
  // next admission, so entry and slot are recycled together.
  struct LinkEntry {
    std::uint64_t link_id = 0;
    std::uint64_t frames = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void TouchLru(std::uint32_t idx) MULINK_REQUIRES(worker_role) {
    if (lru_head == idx) return;
    Unlink(idx);
    LinkEntry& e = entries[idx];
    e.prev = kNil;
    e.next = lru_head;
    if (lru_head != kNil) entries[lru_head].prev = idx;
    lru_head = idx;
    if (lru_tail == kNil) lru_tail = idx;
  }

  void Unlink(std::uint32_t idx) MULINK_REQUIRES(worker_role) {
    LinkEntry& e = entries[idx];
    if (e.prev != kNil) entries[e.prev].next = e.next;
    if (e.next != kNil) entries[e.next].prev = e.prev;
    if (lru_head == idx) lru_head = e.next;
    if (lru_tail == idx) lru_tail = e.prev;
    e.prev = kNil;
    e.next = kNil;
  }

  SpscRing<Frame> ring;

  // ---- ownership capabilities (phantom; no runtime state) ----
  ThreadRole worker_role;    // held by WorkerLoop for the worker's lifetime
  ThreadRole producer_role;  // held by Submit on the demux thread

  core::SensingEngine engine MULINK_GUARDED_BY(worker_role);

  // ---- producer-owned (demux thread) ----
  std::uint64_t frames_routed MULINK_GUARDED_BY(producer_role) = 0;
  std::uint64_t frames_dropped MULINK_GUARDED_BY(producer_role) = 0;
  std::uint64_t frames_rejected MULINK_GUARDED_BY(producer_role) = 0;

  // ---- shared cursors (queue accounting; atomics need no capability) ----
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};

  // ---- worker-owned ----
  std::vector<LinkEntry> entries MULINK_GUARDED_BY(worker_role);
  FlatRoster roster MULINK_GUARDED_BY(worker_role);
  std::uint32_t lru_head MULINK_GUARDED_BY(worker_role) = kNil;
  std::uint32_t lru_tail MULINK_GUARDED_BY(worker_role) = kNil;
  // Health-evicted links barred from readmission for this many of their own
  // frames (link-local countdown keeps eviction shard-topology-free).
  std::unordered_map<std::uint64_t, std::uint64_t> cooldown
      MULINK_GUARDED_BY(worker_role);
  // Every link ever evicted, to classify later admissions as readmissions.
  std::unordered_set<std::uint64_t> evicted_ever
      MULINK_GUARDED_BY(worker_role);
  std::vector<DecisionRecord> log MULINK_GUARDED_BY(worker_role);
  std::uint64_t frames_processed_local MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t decisions MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t links_admitted MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t links_evicted MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t links_readmitted MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t links_failed MULINK_GUARDED_BY(worker_role) = 0;
  std::uint64_t depth_buckets[ShardStats::kDepthBuckets]
      MULINK_GUARDED_BY(worker_role) = {};
  std::uint64_t depth_samples MULINK_GUARDED_BY(worker_role) = 0;
  std::size_t max_depth MULINK_GUARDED_BY(worker_role) = 0;
  obs::Registry metrics MULINK_GUARDED_BY(worker_role);
};

ServeCore::ServeCore(ServeConfig config)
    : config_(config),
      effective_policy_(config.deterministic ? BackPressure::kBlock
                                             : config.policy) {
  MULINK_REQUIRE(config_.num_shards >= 1, "ServeCore: need >= 1 shard");
  MULINK_REQUIRE(config_.queue_capacity >= 2,
                 "ServeCore: queue capacity must be >= 2");
  // mulink-lint: allow(alloc): ctor, setup path
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    // mulink-lint: allow(alloc): ctor, setup path
    shards_.push_back(std::make_unique<Shard>(config_));
  }
}

ServeCore::~ServeCore() { Stop(); }

std::uint32_t ServeCore::RegisterProfile(
    std::shared_ptr<const core::Detector> detector,
    std::vector<double> empty_scores, bool per_link_calibration) {
  MULINK_REQUIRE(!started_, "ServeCore: register profiles before Start()");
  MULINK_REQUIRE(detector != nullptr, "ServeCore: null profile detector");
  // mulink-lint: allow(alloc): profile registration, setup path
  profiles_.push_back(Profile{std::move(detector), std::move(empty_scores),
                              per_link_calibration});
  return static_cast<std::uint32_t>(profiles_.size() - 1);
}

std::size_t ServeCore::ShardOf(std::uint64_t link_id) const {
  return static_cast<std::size_t>(LinkHash(link_id) % config_.num_shards);
}

void ServeCore::Start() {
  MULINK_REQUIRE(!started_, "ServeCore: already started");
  started_ = true;
  // mulink-lint: allow(alloc): worker spawn, setup path
  workers_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    Shard* shard = shards_[i].get();
    // mulink-lint: allow(alloc): worker spawn, setup path
    workers_.emplace_back(
        [this, shard](std::stop_token stop) { WorkerLoop(stop, *shard); });
  }
}

bool ServeCore::Submit(std::uint64_t link_id, std::uint32_t profile_id,
                       const wifi::CsiPacket& packet) {
  MULINK_REQUIRE(started_ && !stopped_,
                 "ServeCore: Submit outside Start()/Stop()");
  MULINK_REQUIRE(profile_id < profiles_.size(),
                 "ServeCore: unknown profile id");
  Shard& shard = *shards_[ShardOf(link_id)];
  // Single demux thread by contract: this call IS the producer role.
  ScopedRole producer(shard.producer_role);
  // A frame the profile's detector cannot score is refused here: in the
  // shard the engine would throw on it and take the worker down.
  const core::Detector& detector = *profiles_[profile_id].detector;
  if (packet.NumAntennas() != detector.num_antennas() ||
      packet.NumSubcarriers() != detector.num_subcarriers()) {
    ++shard.frames_rejected;
    MULINK_OBS_COUNT_REF(router_metrics_, kFramesRejected, 1);
    return false;
  }
  // In-place produce: the packet is copy-assigned straight into the claimed
  // ring cell (whose CSI buffer sticks once warm), so routing costs one
  // packet copy total instead of staging + cell.
  const auto fill = [&](Frame& cell) {
    cell.link_id = link_id;
    cell.profile_id = profile_id;
    cell.packet = packet;  // copy-assign reuses the cell's CSI buffer
  };

  if (!shard.ring.TryProduce(fill)) {
    switch (effective_policy_) {
      case BackPressure::kRejectNewest:
        ++shard.frames_rejected;
        MULINK_OBS_COUNT_REF(router_metrics_, kFramesRejected, 1);
        return false;
      case BackPressure::kDropOldest: {
        // Displace the oldest queued frame (never one the worker has
        // claimed) until the push lands.
        const std::size_t dropped = shard.ring.ProduceDisplacing(fill);
        shard.frames_dropped += dropped;
        shard.consumed.fetch_add(dropped, std::memory_order_release);
        MULINK_OBS_COUNT_REF(router_metrics_, kFramesDropped, dropped);
        break;
      }
      case BackPressure::kBlock:
        // Batched hand-off: a full ring means the workers are the
        // bottleneck, so yielding per failed push would context-switch once
        // per frame (ruinous when demux and worker share a core). Back off
        // until the worker has drained half the ring, then burst again —
        // the alternation cost amortizes over capacity/2 frames.
        while (!shard.ring.TryProduce(fill)) {
          std::this_thread::yield();
          while (shard.ring.ApproxSize() > shard.ring.capacity() / 2) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
        break;
    }
  }
  ++shard.frames_routed;
  shard.produced.fetch_add(1, std::memory_order_release);
  MULINK_OBS_COUNT_REF(router_metrics_, kFramesRouted, 1);
  return true;
}

void ServeCore::Drain() {
  for (const auto& shard : shards_) {
    while (shard->consumed.load(std::memory_order_acquire) !=
           shard->produced.load(std::memory_order_acquire)) {
      // A deep backlog takes the worker milliseconds to score; sleeping
      // instead of yield-spinning keeps the core with the worker.
      if (shard->ring.ApproxSize() > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        std::this_thread::yield();
      }
    }
  }
}

void ServeCore::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& worker : workers_) worker.request_stop();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ServeCore::WorkerLoop(std::stop_token stop, Shard& shard) {
  // This thread owns every worker_role-guarded field for its lifetime.
  ScopedRole worker(shard.worker_role);
  for (;;) {
    // In-place consume: each frame is scored where it sits in its claimed
    // cell (no pop copy) and its cell goes back to the producer right after,
    // oldest first. The claim keeps the producer — including its
    // drop-oldest dequeuer — off every cell of the batch until then.
    const std::size_t claimed = shard.ring.TryConsumeBatch(
        kWorkerBatch, [&](SpscRing<Frame>::Batch& batch) {
          // The lambda body is a fresh function to the thread-safety
          // analysis; it runs on this worker thread, so re-assert the role.
          shard.worker_role.AssertHeld();
          // Backlog behind the batch's first frame, read once per claim;
          // frame i's sample is that less i, the shard's instantaneous lag
          // a poll right after claiming frame i alone would have seen (less
          // any frame that arrived in between).
          const std::size_t backlog =
              shard.ring.ApproxSize() + batch.size() - 1;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::size_t depth = backlog - i;
            shard.depth_buckets[DepthBucket(depth)] += 1;
            ++shard.depth_samples;
            if (depth > shard.max_depth) shard.max_depth = depth;
            MULINK_OBS_GAUGE(&shard.metrics, kQueueDepth,
                             static_cast<double>(depth));
            PrefetchAhead(shard, batch, i);
            ProcessFrame(shard, batch[i]);
            batch.ReleaseFront();
            ++shard.frames_processed_local;
            shard.consumed.fetch_add(1, std::memory_order_release);
          }
        });
    if (claimed > 0) continue;
    if (stop.stop_requested() &&
        shard.consumed.load(std::memory_order_acquire) ==
            shard.produced.load(std::memory_order_acquire)) {
      return;  // producer finished and the queue is fully drained
    }
    std::this_thread::yield();
  }
}

// Hints only: every stage looks the roster up afresh and never changes a
// value, so a frame whose link was evicted (or not yet admitted) since an
// earlier stage simply warms nothing, and ProcessFrame still does every
// lookup itself in frame order.
void ServeCore::PrefetchAhead(Shard& shard,
                              const SpscRing<Frame>::Batch& batch,
                              std::size_t i)
    MULINK_REQUIRES(shard.worker_role) {
  const std::size_t n = batch.size();
  // Frames [first, end) of a stage `ahead` frames ahead: frame i + ahead,
  // and on the batch's first frame also those no earlier frame reached.
  const auto first = [&](std::size_t ahead) { return i == 0 ? 0 : i + ahead; };
  const auto end = [&](std::size_t ahead) {
    return std::min(i + ahead + 1, n);
  };
  for (std::size_t j = first(kRosterAhead); j < end(kRosterAhead); ++j) {
    shard.roster.Prefetch(batch[j].link_id);
  }
  for (std::size_t j = first(kStateAhead); j < end(kStateAhead); ++j) {
    const std::uint32_t idx = shard.roster.Find(batch[j].link_id);
    if (idx == FlatRoster::kNone) continue;
    kernels::Prefetch(&shard.entries[idx], /*for_write=*/true);
    shard.engine.PrefetchLink(idx, core::SensingEngine::PrefetchStage::kState);
  }
  for (std::size_t j = first(kSlotAhead); j < end(kSlotAhead); ++j) {
    const wifi::CsiPacket& packet = batch[j].packet;
    kernels::PrefetchRange(packet.csi.raw(),
                           packet.csi.rows() * packet.csi.cols() *
                               sizeof(Complex));
    const std::uint32_t idx = shard.roster.Find(batch[j].link_id);
    if (idx == FlatRoster::kNone) continue;
    shard.engine.PrefetchLink(idx, core::SensingEngine::PrefetchStage::kSlot);
  }
}

void ServeCore::ProcessFrame(Shard& shard, const Frame& frame)
    MULINK_REQUIRES(shard.worker_role) {
  std::uint32_t idx = shard.roster.Find(frame.link_id);
  if (idx == FlatRoster::kNone) {
    const auto barred = shard.cooldown.find(frame.link_id);
    if (barred != shard.cooldown.end()) {
      if (barred->second > 0) {
        // The bar is counted in the link's own frames, so the readmission
        // point is independent of shard topology.
        --barred->second;
        return;
      }
      shard.cooldown.erase(barred);
    }
    idx = AdmitLink(shard, frame.link_id, frame.profile_id);
  }
  Shard::LinkEntry& entry = shard.entries[idx];
  ++entry.frames;
  shard.TouchLru(idx);

  std::optional<core::PresenceDecision> decision;
  try {
    decision = shard.engine.ProcessPacket(idx, frame.packet);
  } catch (const Error&) {
    // A link whose pipeline throws (e.g. an unguarded link handed a frame
    // shaped for another profile than the one it was admitted on) is
    // contained: it is evicted with the health cooldown and counted, and
    // the shard keeps serving every other link.
    ++shard.links_failed;
    EvictEntry(shard, idx, kReadmitAfterFrames);
    return;
  }
  if (!decision.has_value()) return;
  ++shard.decisions;
  if (config_.collect_decision_log) {
    // mulink-lint: allow(alloc): opt-in determinism artifact, off for throughput runs
    shard.log.push_back(DecisionRecord{frame.link_id, *decision});
  }
  if (config_.evict_unhealthy && entry.frames >= kHealthCheckMinFrames) {
    const nic::LinkHealth health = shard.engine.Health(idx);
    const std::size_t num_antennas = shard.engine.detector(idx).num_antennas();
    const bool all_dead =
        static_cast<std::size_t>(std::popcount(health.dead_antenna_mask)) >=
        num_antennas;
    const double quarantine_ratio =
        health.received == 0
            ? 0.0
            : static_cast<double>(health.quarantined) /
                  static_cast<double>(health.received);
    if (all_dead || quarantine_ratio > kMaxQuarantineRatio) {
      EvictEntry(shard, idx, kReadmitAfterFrames);
    }
  }
}

std::uint32_t ServeCore::AdmitLink(Shard& shard, std::uint64_t link_id,
                                   std::uint32_t profile_id)
    MULINK_REQUIRES(shard.worker_role) {
  if (config_.max_resident_per_shard != 0 &&
      shard.roster.size() >= config_.max_resident_per_shard) {
    // Capacity eviction: LRU tail goes, no readmission bar (it only lost a
    // residency race, nothing is wrong with the link).
    MULINK_REQUIRE(shard.lru_tail != kNil,
                   "ServeCore: full roster with empty LRU list");
    EvictEntry(shard, shard.lru_tail, 0);
  }

  const Profile& profile = profiles_[profile_id];
  core::StreamingConfig stream = config_.stream;
  std::size_t slot;
  if (profile.per_link_calibration) {
    // mulink-lint: allow(alloc): link admission, control plane
    slot = shard.engine.AddLink(core::Detector(*profile.detector),
                                profile.empty_scores, stream);
  } else {
    // Shared immutable detector: the ladder would mutate it in place, so
    // calibration is structurally off for this profile group.
    stream.calibration.enabled = false;
    slot =
        shard.engine.AddLink(profile.detector, profile.empty_scores, stream);
  }

  const auto idx = static_cast<std::uint32_t>(slot);
  if (idx >= shard.entries.size()) {
    // mulink-lint: allow(alloc): link admission, control plane
    shard.entries.resize(idx + 1);
  }
  shard.entries[idx] = Shard::LinkEntry{link_id, 0, kNil, kNil};
  shard.roster.Insert(link_id, idx);
  shard.TouchLru(idx);

  ++shard.links_admitted;
  MULINK_OBS_COUNT_REF(shard.metrics, kLinksAdmitted, 1);
  if (shard.evicted_ever.contains(link_id)) {
    ++shard.links_readmitted;
    MULINK_OBS_COUNT_REF(shard.metrics, kLinksReadmitted, 1);
  }
  MULINK_OBS_GAUGE(&shard.metrics, kResidentLinks,
                   static_cast<double>(shard.roster.size()));
  return idx;
}

void ServeCore::EvictEntry(Shard& shard, std::uint32_t entry_idx,
                           std::uint64_t cooldown_frames)
    MULINK_REQUIRES(shard.worker_role) {
  const Shard::LinkEntry& entry = shard.entries[entry_idx];
  shard.engine.RemoveLink(entry_idx);
  shard.Unlink(entry_idx);
  shard.roster.Erase(entry.link_id);
  if (cooldown_frames > 0) {
    // mulink-lint: allow(alloc): eviction bookkeeping, control plane
    shard.cooldown.emplace(entry.link_id, cooldown_frames);
  }
  // mulink-lint: allow(alloc): eviction bookkeeping, control plane
  shard.evicted_ever.insert(entry.link_id);
  ++shard.links_evicted;
  MULINK_OBS_COUNT_REF(shard.metrics, kLinksEvicted, 1);
  MULINK_OBS_GAUGE(&shard.metrics, kResidentLinks,
                   static_cast<double>(shard.roster.size()));
}

// Post-run snapshot: called after Drain()/Stop() when the workers are idle
// or joined, so the cross-role reads below are quiescent by contract (the
// serve tests and bench drive exactly this sequence). The waiver is the
// explicit marker that this function reads across the ownership boundary.
std::vector<ShardStats> ServeCore::Stats() const
    MULINK_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<ShardStats> stats;
  // mulink-lint: allow(alloc): monitoring snapshot, off the frame path
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.frames_routed = shard->frames_routed;
    s.frames_dropped = shard->frames_dropped;
    s.frames_rejected = shard->frames_rejected;
    s.frames_processed = shard->frames_processed_local;
    s.decisions = shard->decisions;
    s.links_admitted = shard->links_admitted;
    s.links_evicted = shard->links_evicted;
    s.links_readmitted = shard->links_readmitted;
    s.links_failed = shard->links_failed;
    s.resident_links = shard->roster.size();
    for (std::size_t b = 0; b < ShardStats::kDepthBuckets; ++b) {
      s.depth_buckets[b] = shard->depth_buckets[b];
    }
    s.depth_samples = shard->depth_samples;
    s.max_depth = shard->max_depth;
    // mulink-lint: allow(alloc): monitoring snapshot, off the frame path
    stats.push_back(s);
  }
  return stats;
}

// Post-run snapshot (see Stats).
std::vector<DecisionRecord> ServeCore::MergedDecisionLog() const
    MULINK_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<DecisionRecord> merged;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->log.size();
  // mulink-lint: allow(alloc): post-run log merge, off the frame path
  merged.reserve(total);
  for (const auto& shard : shards_) {
    // mulink-lint: allow(alloc): post-run log merge, off the frame path
    merged.insert(merged.end(), shard->log.begin(), shard->log.end());
  }
  // Link-id-major with per-link arrival order preserved: per-link order is
  // already FIFO within each shard's log, and a link lives on exactly one
  // shard, so a stable sort by link id is the canonical merge.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const DecisionRecord& a, const DecisionRecord& b) {
                     return a.link_id < b.link_id;
                   });
  return merged;
}

// Post-run snapshot (see Stats).
obs::Registry ServeCore::AggregateMetrics() const
    MULINK_NO_THREAD_SAFETY_ANALYSIS {
  obs::Registry total;
  total.MergeFrom(router_metrics_);
  for (const auto& shard : shards_) {
    total.MergeFrom(shard->metrics);
    total.MergeFrom(shard->engine.AggregateMetrics());
  }
  return total;
}

}  // namespace mulink::serve
