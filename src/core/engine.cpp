#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "kernels/kernels.h"

namespace mulink::core {

struct SensingEngine::LinkState {
  LinkState(std::unique_ptr<Detector> owned,
            std::shared_ptr<const Detector> shared,
            const std::vector<double>& empty_scores, StreamingConfig cfg,
            DetectorScratch* engine_scratch)
      : owned_detector(std::move(owned)),
        shared_detector(std::move(shared)),
        view(owned_detector ? owned_detector.get() : shared_detector.get()),
        pre_sanitize(view->UsesSanitizedInput()),
        scratch(engine_scratch != nullptr
                    ? engine_scratch
                    // mulink-lint: allow(alloc): ctor, setup path
                    : (own_scratch = std::make_unique<DetectorScratch>())
                          .get()),
        config(cfg) {
    MULINK_REQUIRE(config.window_packets >= 2,
                   "SensingEngine: window must hold >= 2 packets");
    MULINK_REQUIRE(config.hop_packets >= 1 &&
                       config.hop_packets <= config.window_packets,
                   "SensingEngine: hop must be in [1, window]");
    MULINK_REQUIRE(owned_detector != nullptr || !config.calibration.enabled,
                   "SensingEngine: adaptive calibration mutates the detector "
                   "in place; shared-detector links must disable it");
    num_antennas = view->num_antennas();
    num_subcarriers = view->num_subcarriers();
    if (config.guard_enabled) {
      // Lock the guard onto the detector's shape up front: a mis-shaped
      // first frame is then quarantined instead of becoming the shape.
      nic::FrameGuardConfig guard_config = config.guard;
      if (guard_config.expected_antennas == 0) {
        guard_config.expected_antennas = num_antennas;
      }
      if (guard_config.expected_subcarriers == 0) {
        guard_config.expected_subcarriers = num_subcarriers;
      }
      // mulink-lint: allow(alloc): ctor, setup path
      guard.emplace(guard_config);
    }
    if (config.use_hmm) {
      hmm = PresenceHmm::FitFromEmptyScores(empty_scores, config.hmm);
      filter.emplace(*hmm);  // mulink-lint: allow(alloc): ctor, setup path
    }
    calibrator.Configure(*view, std::span<const double>(empty_scores),
                         config.calibration);
    // One flat block for the ring: at fleet scale the window read is the
    // dominant cold-memory cost of a decision, and one sequential run
    // streams far better than scattered heap blocks.
    slot_stride = view->slot_stride();
    // mulink-lint: allow(alloc): ctor, setup path
    slabs.resize(config.window_packets * slot_stride, 0.0);
    // mulink-lint: allow(alloc): ctor, setup path
    slot_meta.resize(config.window_packets);
    // mulink-lint: allow(alloc): ctor, setup path
    csi_window.resize(config.window_packets, nullptr);
    // mulink-lint: allow(alloc): ctor, setup path
    mu_window.resize(config.window_packets, nullptr);
    // mulink-lint: allow(alloc): ctor, setup path
    stat_window.resize(config.window_packets, 0.0);
  }

  const Detector& det() const { return *view; }

  // Guard, ring, hop, score, HMM and ladder for one packet. The detector's
  // per-packet ingest map runs ONCE per packet, straight into its ring slot
  // (phase sanitize + multipath factors for sanitized schemes, the
  // amplitude distance for the baseline), so overlapping windows reuse
  // window-hop rows instead of re-deriving all window_packets of them.
  std::optional<PresenceDecision> Push(const wifi::CsiPacket& packet) {
    const Detector& detector = det();
    obs::Registry* const sink = metrics_on ? &metrics : nullptr;
    scratch->metrics = sink;
    // One deterministic sampling tick per frame: on a sampled frame every
    // per-frame stage (guard classify, ingest sanitize) is timed.
    obs::Registry* const timed = MULINK_OBS_SAMPLED(sink);
    const auto report = Admit(packet, sink, timed);
    if (!report.has_value()) return std::nullopt;  // quarantined
    MULINK_REQUIRE(packet.NumAntennas() == num_antennas &&
                       packet.NumSubcarriers() == num_subcarriers,
                   "SensingEngine: packet shape mismatches the detector");
    if (report->resync) {
      // Gap too wide to straddle: flush the ring, keep the temporal state.
      write_pos = 0;
      count = 0;
      packets_since_decision = 0;
    }
    {
      MULINK_OBS_STAGE_TIMER(timer, pre_sanitize ? timed : nullptr,
                             kIngestSanitize);
      slot_meta[write_pos] = {
          detector.PrepareSlot(packet, Slab(write_pos), *scratch),
          detector.profile_epoch()};
    }
    write_pos = (write_pos + 1) % config.window_packets;
    if (count < config.window_packets) ++count;
    ++packets_since_decision;

    if (count < config.window_packets ||
        packets_since_decision < config.hop_packets) {
      return std::nullopt;
    }
    packets_since_decision = 0;

    PresenceDecision decision;
    // The decision fires on the packet just pushed, so it is the newest
    // packet of every window shape below.
    decision.timestamp_s = packet.timestamp_s;

    const std::uint32_t full_mask = detector.FullAntennaMask();
    const std::uint32_t live_mask =
        guard.has_value() ? full_mask & ~guard->dead_antenna_mask()
                          : full_mask;
    MULINK_OBS_GAUGE(sink, kLiveAntennas,
                     static_cast<double>(std::popcount(live_mask)));
    if (live_mask == 0) {
      // Every chain dead: pause decisions until one revives (the belief
      // holds).
      MULINK_OBS_COUNT(sink, kDecisionsSuppressed);
      return std::nullopt;
    }

    // Degraded mode: surviving antennas only, fallback threshold, HMM
    // frozen (its emission model belongs to the primary statistic). A link
    // with no threshold to fall back on keeps the full-mask statistic.
    const bool degraded_window =
        live_mask != full_mask && detector.has_threshold();
    const std::uint32_t scored_mask = degraded_window ? live_mask : full_mask;
    // The ring's slots are the window, bit-identical to scoring the packets
    // (each score equals Score, or ScoreDegraded, of the raw window).
    if (!pre_sanitize) RestampStaleDistances(detector);
    for (std::size_t i = 0; i < config.window_packets; ++i) {
      const std::size_t slot = (write_pos + i) % config.window_packets;
      csi_window[i] = Slab(slot);
      mu_window[i] = MuRow(Slab(slot));
      stat_window[i] = slot_meta[slot].stat;
    }
    decision.score = detector.ScorePrepared(
        {csi_window, mu_window, stat_window}, *scratch, scored_mask);

    if (degraded_window) {
      decision.occupied = decision.score >= detector.fallback_threshold();
      decision.posterior = decision.occupied ? 1.0 : 0.0;
      decision.degraded = true;
      degraded = true;
      ++degraded_decisions;
      MULINK_OBS_COUNT(sink, kDegradedDecisions);
    } else {
      if (filter.has_value()) {
        MULINK_OBS_STAGE_TIMER(hmm_timer, sink, kHmmFilter);
        decision.posterior = filter->Update(decision.score);
        decision.occupied = decision.posterior >= config.decision_probability;
        MULINK_OBS_COUNT(sink, kHmmUpdates);
      } else {
        decision.occupied = decision.score >= detector.threshold();
        decision.posterior = decision.occupied ? 1.0 : 0.0;
      }
      degraded = false;
    }
    if (calibrator.enabled()) {
      calibrator.metrics = sink;
      CalibrationWindowContext context;
      context.degraded = decision.degraded;
      context.repaired_frames = repaired_since_decision;
      context.agc_frames = agc_frames_since_decision;
      // The ladder learns from (and stages) the window's slabs.
      // Calibration requires an owned detector (enforced in the ctor).
      calibrator.ObserveDecision(decision.score, decision.posterior,
                                 csi_window, *owned_detector, *scratch,
                                 context);
      if (hmm.has_value()) {
        // Pin the HMM's empty emission to the live quiet posterior every
        // window, not just after a profile swap: the posterior absorbs slow
        // drift online, so the filter's flip point moves with the link and
        // the corridor between drift onset and the next swap stops charging
        // false positives. On quiet windows this is a real update; otherwise
        // the posterior (and hence the refit) is a no-op. The filter's
        // temporal state rides through untouched, and step changes still go
        // through the ladder — the posterior refuses to learn from windows
        // the filter calls occupied, so a jump stalls this refit until the
        // swap re-anchors the posterior.
        hmm->RefitEmptyEmission(calibrator.quiet_log_mean(),
                                calibrator.quiet_log_sigma());
      }
    }
    repaired_since_decision = 0;
    agc_frames_since_decision = 0;
    occupied = decision.occupied;
    posterior = decision.posterior;
    MULINK_OBS_COUNT(sink, kDecisions);
    MULINK_OBS_GAUGE(sink, kLastScore, decision.score);
    MULINK_OBS_GAUGE(sink, kPosterior, decision.posterior);
    return decision;
  }

  // Inspect one arriving frame. nullopt means the frame is quarantined (or,
  // on an unguarded link, refused as non-finite) and must not reach the
  // ring; otherwise the report's `resync` flag tells Push to flush the ring
  // first. Verdict counters are exact; the inspection latency goes to
  // `timed`, the frame's sampled sink (Push's 1-in-kIngestSampleEvery
  // deterministic tick, so totals merge bit-identically across shards).
  std::optional<nic::FrameReport> Admit(const wifi::CsiPacket& packet,
                                        obs::Registry* sink,
                                        obs::Registry* timed) {
    MULINK_OBS_COUNT(sink, kPacketsIngested);
    if (!guard.has_value()) {
      // Without a guard a non-finite value would still poison every window
      // holding it (and, on a ladder link, the learned profile): refuse the
      // frame before it reaches the ring, whose next slot on a full window
      // still holds the oldest frame.
      if (!nic::IsFinite(packet)) {
        MULINK_OBS_COUNT(sink, kPacketsRefusedNonFinite);
        return std::nullopt;
      }
      MULINK_OBS_COUNT(sink, kPacketsAccepted);
      return nic::FrameReport{};
    }
    nic::FrameReport report;
    {
      MULINK_OBS_STAGE_TIMER(timer, timed, kGuardClassify);
      report = guard->Inspect(packet);
    }
    if (report.resync) MULINK_OBS_COUNT(sink, kRingResyncs);
    switch (report.verdict) {
      case nic::FrameVerdict::kQuarantine:
        MULINK_OBS_COUNT(sink, kPacketsQuarantined);
        return std::nullopt;
      case nic::FrameVerdict::kRepair:
        // Taint bookkeeping for the calibration ladder: a repaired frame in
        // the hop disqualifies its window as quiet evidence, and a burst of
        // RSSI-outlier repairs is the AGC fast re-baseline trigger.
        ++repaired_since_decision;
        if (report.Has(nic::FrameFault::kRssiOutlier)) {
          ++agc_frames_since_decision;
        }
        MULINK_OBS_COUNT(sink, kPacketsRepaired);
        break;
      default:
        break;
    }
    MULINK_OBS_COUNT(sink, kPacketsAccepted);
    return report;
  }

  // The ladder fills profile_drift and empty_score_ewma; without it they
  // stay false / 0.
  nic::LinkHealth Health() const {
    nic::LinkHealth health;
    if (guard.has_value()) health = guard->health();
    health.degraded = degraded;
    health.degraded_decisions = degraded_decisions;
    calibrator.FillHealth(health);
    return health;
  }

  double* Slab(std::size_t slot) { return slabs.data() + slot * slot_stride; }
  double* MuRow(double* slab) const {
    return slab + 2 * num_antennas * num_subcarriers;
  }

  // A baseline slot's distance belongs to the profile epoch it was computed
  // under. A ladder swap (ApplyProfile) bumps the epoch; the slots ingested
  // before it get their distances recomputed in place from their slabs.
  void RestampStaleDistances(const Detector& detector) {
    const std::uint64_t epoch = detector.profile_epoch();
    for (std::size_t slot = 0; slot < config.window_packets; ++slot) {
      if (slot_meta[slot].epoch == epoch) continue;
      slot_meta[slot] = {detector.SlotStat(Slab(slot), *scratch), epoch};
    }
  }

  void Reset() {
    write_pos = 0;
    count = 0;
    packets_since_decision = 0;
    occupied = false;
    posterior = 0.0;
    if (filter.has_value()) filter->Reset();
    // Guard counters included, so a reset link decides bit-identically to
    // a fresh one fed the same tail.
    if (guard.has_value()) guard->Reset();
    degraded = false;
    degraded_decisions = 0;
    repaired_since_decision = 0;
    agc_frames_since_decision = 0;
    calibrator.Reset(det());
    metrics.Reset();
    result.decisions.clear();
    result.occupied = false;
    result.posterior = 0.0;
  }

  // Cache hints for a serving loop (SensingEngine::PrefetchLink).
  void Prefetch(PrefetchStage stage) const {
    if (stage == PrefetchStage::kState) {
      // The ingest-hot block through config's window and hop, the guard,
      // and the metrics shard's first line (sampling tick, ingest counters).
      const auto* const hot_end =
          reinterpret_cast<const char*>(&config.hop_packets + 1);
      kernels::PrefetchRange(
          this,
          static_cast<std::size_t>(hot_end -
                                   reinterpret_cast<const char*>(this)),
          /*for_write=*/true);
      if (guard.has_value()) {
        kernels::PrefetchRange(&*guard, sizeof(nic::FrameGuard), true);
      }
      kernels::Prefetch(&metrics, true);
      return;
    }
    // kSlot reads the fields kState fetched: the ring slot and metadata the
    // next frame is written to, and the guard's streak counters.
    kernels::PrefetchRange(slabs.data() + write_pos * slot_stride,
                           slot_stride * sizeof(double), true);
    kernels::Prefetch(&slot_meta[write_pos], true);
    if (guard.has_value()) {
      const auto streaks = guard->streaks();
      kernels::PrefetchRange(streaks.data(), streaks.size_bytes(), true);
    }
  }

  // Exactly one of owned/shared is set; `view` is the scoring-side alias.
  // Calibration (which rewrites thresholds and profiles in place) is only
  // legal on owned links.
  std::unique_ptr<Detector> owned_detector;
  std::shared_ptr<const Detector> shared_detector;
  const Detector* view = nullptr;

  // ---- ingest-hot block: with config's first line, the guard and the
  // metrics shard's first line, what a frame that completes no window
  // touches (kept together so Prefetch(kState) warms few lines) ----
  // The detector's input state is sanitized (every scheme but the
  // amplitude-only baseline, whose slot stats are profile distances).
  bool pre_sanitize = false;
  bool metrics_on = true;
  // The window ring: one Detector::PrepareSlot slot per packet
  // (slot_stride doubles — the packet's CSI split antenna-major in the
  // detector's input state, then its mu row) plus its SlotStat.
  struct SlotMeta {
    double stat;          // the mu row's median, or the baseline distance
    std::uint64_t epoch;  // profile epoch the baseline distance belongs to
  };
  std::size_t num_antennas = 0;
  std::size_t num_subcarriers = 0;
  std::size_t slot_stride = 0;
  std::size_t write_pos = 0;
  std::size_t count = 0;
  std::size_t packets_since_decision = 0;
  // Repaired frames — and the subset carrying the RSSI-outlier (AGC) fault
  // — admitted since the last decision; the calibration ladder's taint.
  std::size_t repaired_since_decision = 0;
  std::size_t agc_frames_since_decision = 0;
  // Own scratch by default; engine-owned shared workspace in fleet mode
  // (`scratch` then aliases the engine's, `own_scratch` stays null).
  std::unique_ptr<DetectorScratch> own_scratch;
  DetectorScratch* scratch = nullptr;
  std::vector<double> slabs;
  std::vector<SlotMeta> slot_meta;
  StreamingConfig config;                // window and hop lead it
  std::optional<nic::FrameGuard> guard;  // set iff config.guard_enabled
  // Per-link observability shard; merged in link order by AggregateMetrics.
  obs::Registry metrics;

  // ---- decision-time state ----
  // csi_window / mu_window / stat_window are the window-ordered views of
  // the ring.
  std::vector<const double*> csi_window;
  std::vector<const double*> mu_window;
  std::vector<double> stat_window;
  // Degraded-mode state (LinkHealth's sensing fields).
  bool degraded = false;  // last decision used the fallback statistic
  std::size_t degraded_decisions = 0;
  bool occupied = false;
  double posterior = 0.0;
  LinkCalibrator calibrator;
  std::optional<PresenceHmm> hmm;
  std::optional<PresenceHmm::Filter> filter;  // references hmm; do not move
  BatchResult result;
};

SensingEngine::SensingEngine() = default;
SensingEngine::~SensingEngine() = default;
SensingEngine::SensingEngine(SensingEngine&&) noexcept = default;
SensingEngine& SensingEngine::operator=(SensingEngine&&) noexcept = default;

std::size_t SensingEngine::AddLink(Detector detector,
                                   const std::vector<double>& empty_scores,
                                   StreamingConfig config) {
  // mulink-lint: allow(alloc): AddLink, setup path
  auto owned = std::make_unique<Detector>(std::move(detector));
  // mulink-lint: allow(alloc): AddLink, setup path
  return InstallLink(std::make_unique<LinkState>(std::move(owned), nullptr,
                                                 empty_scores, config,
                                                 shared_scratch_.get()));
}

std::size_t SensingEngine::AddLink(std::shared_ptr<const Detector> detector,
                                   const std::vector<double>& empty_scores,
                                   StreamingConfig config) {
  MULINK_REQUIRE(detector != nullptr,
                 "SensingEngine: shared detector must be non-null");
  // mulink-lint: allow(alloc): AddLink, setup path
  return InstallLink(std::make_unique<LinkState>(
      nullptr, std::move(detector), empty_scores, config,
      shared_scratch_.get()));
}

std::size_t SensingEngine::InstallLink(std::unique_ptr<LinkState> state) {
  if (shared_scratch_ != nullptr) WarmSharedScratch(*state);
  ++active_links_;
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    links_[slot] = std::move(state);
    return slot;
  }
  // mulink-lint: allow(alloc): AddLink, setup path
  links_.push_back(std::move(state));
  return links_.size() - 1;
}

void SensingEngine::WarmSharedScratch(const LinkState& link) {
  const Detector& detector = link.det();
  DetectorScratch& scratch = *shared_scratch_;
  const std::size_t cells =
      detector.num_antennas() * detector.num_subcarriers();
  bool grew = false;
  // Power planes: a window, or a ladder swap rescoring a staging ring.
  const std::size_t rescored =
      link.calibrator.enabled()
          ? std::max(link.config.window_packets,
                     LinkCalibrator::kStagedQuietPackets)
          : link.config.window_packets;
  if (scratch.power_plane.size() < rescored * cells) {
    // mulink-lint: allow(alloc): AddLink, setup path
    scratch.power_plane.resize(rescored * cells);
    grew = true;
  }
  if (scratch.cell_center.size() < cells) {
    // mulink-lint: allow(alloc): AddLink, setup path
    scratch.cell_center.resize(cells);
    // mulink-lint: allow(alloc): AddLink, setup path
    scratch.cell_spread.resize(cells);
    grew = true;
  }
  // A swap prepares its staged rows in the detector's slot block: a block
  // too small for a staging ring re-runs the swap rehearsal below, which
  // prepares one.
  if (link.calibrator.enabled() &&
      (scratch.slot_stats.size() < rescored ||
       scratch.slots.size() < rescored * detector.slot_stride())) {
    grew = true;
  }
  if (link.pre_sanitize) {
    // Ingest lanes and the mu-row median copy, so a link's first frame
    // finds them warm.
    const std::size_t subcarriers = detector.num_subcarriers();
    scratch.sanitize.Reserve(subcarriers);
    // mulink-lint: allow(alloc): AddLink, setup path
    scratch.median_scratch.reserve(subcarriers);
  }
  if (detector.config().scheme ==
      DetectionScheme::kSubcarrierAndPathWeighting) {
    // The combined scheme's monitor covariance planes, assembled from the
    // window's slabs (AlignedBuffer::Ensure only grows).
    const std::size_t lanes = link.config.window_packets *
                              detector.num_subcarriers();
    scratch.music.plane_re.Ensure(detector.num_antennas() * lanes);
    scratch.music.plane_im.Ensure(detector.num_antennas() * lanes);
    scratch.music.w_rep.Ensure(lanes);
  }
  if (grew) rehearsed_schemes_ = 0;
  const std::uint32_t scheme_bit =
      1u << static_cast<unsigned>(detector.config().scheme);
  const bool rehearse_decision =
      link.pre_sanitize && (rehearsed_schemes_ & scheme_bit) == 0;
  const bool rehearse_swap =
      link.calibrator.enabled() && (!swap_warmed_ || grew);
  if (!rehearse_decision && !rehearse_swap) return;
  // The rehearsals below score retained calibration rows with the sink
  // muted — they are not scored windows, and their values are discarded.
  scratch.metrics = nullptr;
  const std::span<const double> retained(detector.retained_rows());
  const std::size_t row = 2 * cells;
  const std::size_t count = detector.retained_count();
  if (rehearse_decision) {
    // A first decision of this scheme: its weights, covariances, spectra
    // and steering table then exist before any link of it decides.
    const std::size_t rows = std::min(count, link.config.window_packets);
    if (rows >= 2) {
      (void)detector.ScorePrepared(
          detector.PrepareSlabs(retained.first(rows * row), scratch), scratch);
    }
    rehearsed_schemes_ |= scheme_bit;
  }
  if (!rehearse_swap) return;
  // Rehearse a ladder swap on a throwaway copy: the MUSIC refresh over the
  // retained set, then rescoring a window (or a staging ring) of quiet
  // rows, staged as the ladder stages them — here cycled from the retained
  // rows.
  Detector probe(detector);
  if (count >= 2) {
    // mulink-lint: allow(alloc): AddLink, setup path
    std::vector<double> rows(rescored * row);
    for (std::size_t i = 0; i < rescored; ++i) {
      std::copy_n(retained.data() + (i % count) * row, row,
                  rows.data() + i * row);
    }
    probe.RefreshAngularProfile(rows, scratch);
    (void)probe.ScorePrepared(probe.PrepareSlabs(rows, scratch), scratch);
  }
  swap_warmed_ = true;
}

void SensingEngine::RemoveLink(std::size_t link) {
  MULINK_REQUIRE(link < links_.size() && links_[link] != nullptr,
                 "SensingEngine: RemoveLink on inactive slot");
  links_[link].reset();
  // mulink-lint: allow(alloc): eviction path, off the per-packet hot loop
  free_slots_.push_back(link);
  --active_links_;
}

bool SensingEngine::LinkActive(std::size_t link) const {
  return link < links_.size() && links_[link] != nullptr;
}

void SensingEngine::UseSharedScratch() {
  MULINK_REQUIRE(links_.empty(),
                 "SensingEngine: UseSharedScratch must precede AddLink");
  if (shared_scratch_ == nullptr) {
    // mulink-lint: allow(alloc): setup path
    shared_scratch_ = std::make_unique<DetectorScratch>();
  }
}

SensingEngine::LinkState& SensingEngine::Link(std::size_t link) {
  MULINK_REQUIRE(link < links_.size() && links_[link] != nullptr,
                 "SensingEngine: link out of range or removed");
  return *links_[link];
}

const SensingEngine::LinkState& SensingEngine::Link(std::size_t link) const {
  MULINK_REQUIRE(link < links_.size() && links_[link] != nullptr,
                 "SensingEngine: link out of range or removed");
  return *links_[link];
}

const BatchResult& SensingEngine::ProcessBatch(
    std::size_t link, std::span<const wifi::CsiPacket> packets) {
  LinkState& state = Link(link);
  state.metrics_on = metrics_enabled_;
  if (metrics_enabled_) MULINK_OBS_COUNT_REF(state.metrics, kBatches, 1);
  state.result.decisions.clear();
  for (const auto& packet : packets) {
    if (auto decision = state.Push(packet)) {
      // mulink-lint: allow(alloc): batch output; clear() keeps capacity, warm after first batch
      state.result.decisions.push_back(*decision);
    }
  }
  state.result.occupied = state.occupied;
  state.result.posterior = state.posterior;
  return state.result;
}

const BatchResult& SensingEngine::ProcessBatch(
    std::span<const wifi::CsiPacket> packets) {
  MULINK_REQUIRE(active_links_ == 1 && links_.size() == 1,
                 "SensingEngine: single-link ProcessBatch needs exactly one "
                 "registered link");
  return ProcessBatch(0, packets);
}

void SensingEngine::PrefetchLink(std::size_t link, PrefetchStage stage) const {
  if (link < links_.size() && links_[link] != nullptr) {
    links_[link]->Prefetch(stage);
  }
}

std::optional<PresenceDecision> SensingEngine::ProcessPacket(
    std::size_t link, const wifi::CsiPacket& packet) {
  LinkState& state = Link(link);
  state.metrics_on = metrics_enabled_;
  return state.Push(packet);
}

bool SensingEngine::occupied(std::size_t link) const {
  return Link(link).occupied;
}

double SensingEngine::posterior(std::size_t link) const {
  return Link(link).posterior;
}

nic::LinkHealth SensingEngine::Health(std::size_t link) const {
  return Link(link).Health();
}

const LinkCalibrator& SensingEngine::Calibrator(std::size_t link) const {
  return Link(link).calibrator;
}

const obs::Registry& SensingEngine::Metrics(std::size_t link) const {
  return Link(link).metrics;
}

obs::Registry SensingEngine::AggregateMetrics() const {
  obs::Registry total;
  for (const auto& link : links_) {
    if (link != nullptr) total.MergeFrom(link->metrics);
  }
  return total;
}

const Detector& SensingEngine::detector(std::size_t link) const {
  return Link(link).det();
}

const StreamingConfig& SensingEngine::config(std::size_t link) const {
  return Link(link).config;
}

void SensingEngine::Reset(std::size_t link) { Link(link).Reset(); }

void SensingEngine::ResetAll() {
  for (auto& link : links_) {
    if (link != nullptr) link->Reset();
  }
}

}  // namespace mulink::core
