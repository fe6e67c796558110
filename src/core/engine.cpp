#include "core/engine.h"

#include <bit>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "dsp/stats.h"
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
        config(cfg),
        pre_sanitize(view->UsesSanitizedInput()),
        ingest(config),
        scratch(engine_scratch != nullptr
                    ? engine_scratch
                    // mulink-lint: allow(alloc): ctor, setup path
                    : (own_scratch = std::make_unique<DetectorScratch>())
                          .get()) {
    MULINK_REQUIRE(config.window_packets >= 2,
                   "SensingEngine: window must hold >= 2 packets");
    MULINK_REQUIRE(config.hop_packets >= 1 &&
                       config.hop_packets <= config.window_packets,
                   "SensingEngine: hop must be in [1, window]");
    MULINK_REQUIRE(owned_detector != nullptr || !config.calibration.enabled,
                   "SensingEngine: adaptive calibration mutates the detector "
                   "in place; shared-detector links must disable it");
    if (config.use_hmm) {
      hmm = PresenceHmm::FitFromEmptyScores(empty_scores, config.hmm);
      filter.emplace(*hmm);  // mulink-lint: allow(alloc): ctor, setup path
    }
    // Seed the drift watchdog's EWMA at the expected quiet score so the
    // first windows after construction or Reset cannot spuriously trip the
    // flag (mirrors StreamingDetector).
    if (!empty_scores.empty()) {
      ingest.quiet_score_seed = dsp::Mean(empty_scores);
      ingest.empty_score_ewma = ingest.quiet_score_seed;
    }
    calibrator.Configure(*view, std::span<const double>(empty_scores),
                         config.calibration);
    // mulink-lint: allow(alloc): ctor, setup path
    ring.reserve(config.window_packets);
    // mulink-lint: allow(alloc): ctor, setup path
    window.reserve(config.window_packets);
    if (pre_sanitize) {
      // mulink-lint: allow(alloc): ctor, setup path
      mu_ring.resize(config.window_packets);
      // mulink-lint: allow(alloc): ctor, setup path
      mu_median_ring.resize(config.window_packets, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      mu_window.resize(config.window_packets, nullptr);
      // mulink-lint: allow(alloc): ctor, setup path
      median_window.resize(config.window_packets, 0.0);
      if (view->config().scheme ==
          DetectionScheme::kSubcarrierAndPathWeighting) {
        // Split-complex slab cache (see SampleCovarianceSlabsInto): each
        // ring slot keeps its packet pre-deinterleaved so full-mask
        // combined windows skip both the window copy and the per-window
        // re-split of every packet. One contiguous block for the whole
        // ring: at fleet scale the window read is the dominant cold-memory
        // cost of a decision, and a single sequential run (with one wrap)
        // streams far better than window_packets scattered heap blocks.
        soa_stride = 2 * view->num_antennas() * view->num_subcarriers();
        // mulink-lint: allow(alloc): ctor, setup path
        soa_slabs.resize(config.window_packets * soa_stride, 0.0);
        // mulink-lint: allow(alloc): ctor, setup path
        soa_window.resize(config.window_packets, nullptr);
      }
    } else {
      // Amplitude-only baseline: the per-packet distance is a deterministic
      // map of the raw packet, so it rides the ring like the mu factors do
      // for sanitized schemes. Epoch stamps invalidate cached values when a
      // recalibration swaps the amplitude profile under the ring.
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_ring.resize(config.window_packets, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_epoch_ring.resize(config.window_packets, ~std::uint64_t{0});
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_window.resize(config.window_packets, 0.0);
    }
  }

  const Detector& det() const { return *view; }

  // Mirror of StreamingDetector::Push — same ring discipline, same HMM
  // update — so batch and streaming decisions are bit-identical. The one
  // deliberate difference: per-packet maps are computed ONCE on ingest
  // (phase sanitize + multipath factors for sanitized schemes, the
  // amplitude distance for the baseline), so overlapping windows reuse
  // window-hop rows instead of re-deriving all window_packets of them.
  std::optional<PresenceDecision> Push(const wifi::CsiPacket& packet) {
    const Detector& detector = det();
    obs::Registry* const sink = metrics_on ? &metrics : nullptr;
    ingest.metrics = sink;
    scratch->metrics = sink;
    calibrator.metrics = sink;
    const auto report = ingest.Admit(packet);
    if (!report.has_value()) return std::nullopt;  // quarantined
    if (report->resync) {
      // Gap too wide to straddle: flush the ring, keep the temporal state.
      write_pos = 0;
      count = 0;
      packets_since_decision = 0;
    }
    if (write_pos >= ring.size()) {
      // mulink-lint: allow(alloc): initial ring fill only; capacity reserved in ctor
      ring.emplace_back();  // initial fill only; capacity is reserved
    }
    wifi::CsiPacket& slot = ring[write_pos];
    if (pre_sanitize) {
      // Writes into the slot, reusing its CSI buffer once warm. Per-packet
      // sanitize latency is sampled on the shard's deterministic tick, like
      // the guard-classify stage.
      obs::Registry* const timed = MULINK_OBS_SAMPLED(sink);
      MULINK_OBS_STAGE_TIMER(timer, timed, kIngestSanitize);
      SanitizePhaseInto(packet, detector.band(), slot, scratch->sanitize);
      // Multipath factors and their median are per-packet maps of the
      // sanitized slot, so they ride the ring too: each hop's decision
      // reuses window-hop rows instead of re-deriving all window_packets
      // of them (ScoreSanitizedPrepared is bit-identical to the
      // recompute-per-window path on the same packets).
      MeasureMultipathFactorsInto(slot, detector.band(), mu_ring[write_pos],
                                  scratch->multipath);
      mu_median_ring[write_pos] =
          dsp::Median(mu_ring[write_pos], scratch->median_scratch);
      if (!soa_slabs.empty()) {
        // Split the sanitized slot into the slot's slab (antenna-major re
        // rows then im rows — exactly kernels::Deinterleave's bytes), so
        // the covariance planes assemble by memcpy at decision time.
        double* const slab = soa_slabs.data() + write_pos * soa_stride;
        const std::size_t num_sub = detector.num_subcarriers();
        const std::size_t num_ant = detector.num_antennas();
        for (std::size_t m = 0; m < num_ant; ++m) {
          kernels::Deinterleave(slot.csi.raw() + m * num_sub, num_sub,
                                slab + m * num_sub,
                                slab + (num_ant + m) * num_sub);
        }
      }
    } else {
      slot = packet;  // copy-assign reuses the slot's CSI buffer
      baseline_ring[write_pos] = detector.BaselinePacketScore(slot);
      baseline_epoch_ring[write_pos] = detector.profile_epoch();
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

    const std::uint32_t live_mask = ingest.LiveMask(detector.num_antennas());
    const std::uint32_t full_mask =
        GuardedIngest::FullMask(detector.num_antennas());
    MULINK_OBS_GAUGE(sink, kLiveAntennas,
                     static_cast<double>(std::popcount(live_mask)));
    if (live_mask == 0 ||
        (live_mask != full_mask && !config.degraded_fallback)) {
      // Every chain dead, or fallback disabled while one is: pause
      // decisions until the chain revives.
      MULINK_OBS_COUNT(sink, kDecisionsSuppressed);
      return std::nullopt;
    }

    // Baseline fast path: full-mask windows fold the ingest-cached packet
    // distances directly (bit-identical to ScoreBaseline), and the window
    // vector is only assembled when the calibrator needs to learn from it.
    const bool baseline_fast =
        !pre_sanitize && live_mask == full_mask &&
        BaselineCacheFresh(detector.profile_epoch());
    // Combined-scheme fast path: full-mask windows score straight from the
    // ingest-cached SoA slabs (bit-identical — the slab bytes ARE the
    // Deinterleave output the covariance kernel would otherwise compute),
    // so the window vector is only assembled for degraded windows or when
    // the calibrator needs packets to learn from.
    const bool slab_fast = !soa_slabs.empty() && live_mask == full_mask;
    const bool need_window =
        (!baseline_fast && !slab_fast) || calibrator.enabled();
    if (need_window) {
      // mulink-lint: allow(alloc): capacity reserved in ctor; resize never reallocates
      window.resize(config.window_packets);
    }
    for (std::size_t i = 0; i < config.window_packets; ++i) {
      const std::size_t slot_idx = (write_pos + i) % config.window_packets;
      if (need_window) window[i] = ring[slot_idx];
      if (pre_sanitize) {
        mu_window[i] = mu_ring[slot_idx].data();
        median_window[i] = mu_median_ring[slot_idx];
        if (slab_fast) {
          soa_window[i] = soa_slabs.data() + slot_idx * soa_stride;
        }
      } else if (baseline_fast) {
        baseline_window[i] = baseline_ring[slot_idx];
      }
    }
    // Stale window contents from an earlier hop must not leak into the
    // fast paths, so the span is empty whenever the window was not
    // (re)assembled this hop.
    const std::span<const wifi::CsiPacket> window_span =
        need_window ? std::span<const wifi::CsiPacket>(window)
                    : std::span<const wifi::CsiPacket>();

    if (live_mask != full_mask && detector.has_threshold()) {
      // Degraded mode: surviving antennas only, fallback threshold, HMM
      // frozen (its emission model belongs to the primary statistic). The
      // ring holds sanitized packets when pre_sanitize is on, so the
      // degraded score matches StreamingDetector's bit for bit.
      decision.score =
          pre_sanitize
              ? detector.ScoreSanitizedDegraded(window_span, *scratch,
                                                live_mask)
              : detector.ScoreDegraded(window_span, *scratch, live_mask);
      decision.occupied = decision.score >= detector.fallback_threshold();
      decision.posterior = decision.occupied ? 1.0 : 0.0;
      decision.degraded = true;
      ingest.degraded = true;
      ++ingest.degraded_decisions;
      MULINK_OBS_COUNT(sink, kDegradedDecisions);
    } else {
      if (pre_sanitize) {
        Detector::PreparedWindowFactors factors;
        factors.mu_rows = std::span<const double* const>(mu_window);
        factors.medians = std::span<const double>(median_window);
        if (slab_fast) {
          factors.csi_slabs = std::span<const double* const>(soa_window);
        }
        decision.score =
            detector.ScoreSanitizedPrepared(window_span, factors, *scratch);
      } else if (baseline_fast) {
        decision.score = detector.ScoreBaselinePrepared(
            std::span<const double>(baseline_window), *scratch);
      } else {
        decision.score = detector.Score(window_span, *scratch);
      }
      if (filter.has_value()) {
        MULINK_OBS_STAGE_TIMER(hmm_timer, sink, kHmmFilter);
        decision.posterior = filter->Update(decision.score);
        decision.occupied =
            decision.posterior >= config.decision_probability ||
            (config.hmm_threshold_fusion && detector.has_threshold() &&
             decision.score >= detector.threshold());
        MULINK_OBS_COUNT(sink, kHmmUpdates);
      } else {
        decision.occupied = decision.score >= detector.threshold();
        decision.posterior = decision.occupied ? 1.0 : 0.0;
      }
      ingest.degraded = false;
      ingest.ObserveDecision(decision, detector, config);
    }
    if (calibrator.enabled()) {
      CalibrationWindowContext context;
      context.degraded = decision.degraded;
      context.repaired_frames = ingest.repaired_since_decision;
      context.agc_frames = ingest.agc_frames_since_decision;
      // The ring already holds packets in the detector's expected
      // sanitization state (sanitized on ingest iff the scheme consumes
      // sanitized windows), so the posteriors learn from window_span
      // directly — bit-identical to StreamingDetector's per-window copy.
      // Calibration requires an owned detector (enforced in the ctor).
      calibrator.ObserveDecision(decision.score, decision.posterior,
                                 window_span, *owned_detector, *scratch,
                                 context);
      if (hmm.has_value()) {
        // Every-window emission refit from the live quiet posterior —
        // same rationale and ordering as StreamingDetector (bit-identical
        // flip points between the two paths).
        hmm->RefitEmptyEmission(calibrator.quiet_log_mean(),
                                calibrator.quiet_log_sigma());
      }
      ingest.profile_drift = calibrator.drift_flagged();
    }
    ingest.repaired_since_decision = 0;
    ingest.agc_frames_since_decision = 0;
    occupied = decision.occupied;
    posterior = decision.posterior;
    MULINK_OBS_COUNT(sink, kDecisions);
    MULINK_OBS_GAUGE(sink, kLastScore, decision.score);
    MULINK_OBS_GAUGE(sink, kPosterior, decision.posterior);
    return decision;
  }

  // True when every cached baseline distance in the (full) ring was
  // computed against the detector's current amplitude profile. A ladder
  // swap (ApplyProfile/UpdateProfile) bumps the epoch, which falls back to
  // full window rescoring until the ring refills with fresh stamps.
  bool BaselineCacheFresh(std::uint64_t epoch) const {
    for (std::size_t i = 0; i < config.window_packets; ++i) {
      if (baseline_epoch_ring[i] != epoch) return false;
    }
    return true;
  }

  void Reset() {
    write_pos = 0;
    count = 0;
    packets_since_decision = 0;
    occupied = false;
    posterior = 0.0;
    if (filter.has_value()) filter->Reset();
    ingest.Reset();
    calibrator.Reset(det());
    metrics.Reset();
    result.decisions.clear();
    result.occupied = false;
    result.posterior = 0.0;
  }

  // Exactly one of owned/shared is set; `view` is the scoring-side alias.
  // Calibration (which rewrites thresholds and profiles in place) is only
  // legal on owned links.
  std::unique_ptr<Detector> owned_detector;
  std::shared_ptr<const Detector> shared_detector;
  const Detector* view = nullptr;
  StreamingConfig config;
  // Sanitize on ingest only when the scheme consumes sanitized windows (the
  // amplitude-only baseline must see raw packets).
  bool pre_sanitize = false;
  GuardedIngest ingest;
  LinkCalibrator calibrator;
  std::optional<PresenceHmm> hmm;
  std::optional<PresenceHmm::Filter> filter;  // references hmm; do not move
  std::vector<wifi::CsiPacket> ring;
  std::vector<wifi::CsiPacket> window;
  // Ingest-time multipath factors riding the packet ring (pre_sanitize
  // links only): mu_ring[slot] / mu_median_ring[slot] belong to ring[slot];
  // mu_window / median_window are their window-ordered views for
  // ScoreSanitizedPrepared.
  std::vector<std::vector<double>> mu_ring;
  std::vector<double> mu_median_ring;
  std::vector<const double*> mu_window;
  std::vector<double> median_window;
  // Ingest-time split-complex slabs riding the ring (combined-scheme links
  // only): the slab at soa_slabs[slot * soa_stride] holds ring[slot]'s CSI
  // deinterleaved antenna-major (re rows then im rows), and soa_window is
  // the window-ordered pointer view handed to ScoreSanitizedPrepared via
  // PreparedWindowFactors. One flat block so the per-decision window read
  // is a sequential stream.
  std::vector<double> soa_slabs;
  std::size_t soa_stride = 0;
  std::vector<const double*> soa_window;
  // Ingest-time baseline distances riding the ring (baseline links only),
  // stamped with the profile epoch they were computed under.
  std::vector<double> baseline_ring;
  std::vector<std::uint64_t> baseline_epoch_ring;
  std::vector<double> baseline_window;
  std::size_t write_pos = 0;
  std::size_t count = 0;
  std::size_t packets_since_decision = 0;
  bool occupied = false;
  double posterior = 0.0;
  // Own scratch by default; engine-owned shared workspace in fleet mode
  // (`scratch` then aliases the engine's, `own_scratch` stays null).
  std::unique_ptr<DetectorScratch> own_scratch;
  DetectorScratch* scratch = nullptr;
  BatchResult result;
  // Per-link observability shard; merged in link order by AggregateMetrics.
  obs::Registry metrics;
  bool metrics_on = true;
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

std::optional<PresenceDecision> SensingEngine::ProcessPacket(
    std::size_t link, const wifi::CsiPacket& packet) {
  LinkState& state = Link(link);
  state.metrics_on = metrics_enabled_;
  return state.Push(packet);
}

double SensingEngine::ScoreWindow(std::size_t link,
                                  std::span<const wifi::CsiPacket> window) {
  LinkState& state = Link(link);
  state.scratch->metrics = metrics_enabled_ ? &state.metrics : nullptr;
  return state.det().Score(window, *state.scratch);
}

bool SensingEngine::occupied(std::size_t link) const {
  return Link(link).occupied;
}

double SensingEngine::posterior(std::size_t link) const {
  return Link(link).posterior;
}

nic::LinkHealth SensingEngine::Health(std::size_t link) const {
  nic::LinkHealth health = Link(link).ingest.Health();
  Link(link).calibrator.FillHealth(health);
  return health;
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
