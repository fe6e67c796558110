// Device-free human detection pipeline (paper Sec. IV-C).
//
// Two stages, as in the paper:
//  * Calibration — from an empty-room CSI session: phase-sanitize it once
//    into one block of split CSI rows (the layout of an ingest slot's CSI),
//    store the static profile s(0) (per-antenna per-subcarrier mean power,
//    mean amplitude and temporal variance, as flat antenna-major planes),
//    the static angular pseudospectrum and the Eq. 17 path weights, plus an
//    even subsample of those rows — the retained set, one flat block — so
//    monitoring-stage subcarrier weights can be applied consistently to both
//    sides before the distance is taken.
//  * Monitoring — a window of M packets is scored against the profile; the
//    score exceeding the threshold declares human presence.
//
// Four schemes are provided — the paper's three plus its mobile-target
// statistic:
//  * kBaseline                    — per-packet Euclidean distance of CSI
//                                   amplitudes (the naive prior-work recipe).
//  * kSubcarrierWeighting         — Eq. 15-weighted RSS change distance.
//  * kSubcarrierAndPathWeighting  — distance between subcarrier-weighted,
//                                   path-weighted angular spectra.
//  * kVarianceMobile              — subcarrier-weighted excess temporal
//                                   variance (Sec. III's statistic for
//                                   moving targets [18]).
//
// Scores are normalized by the static profile's mean power so one global
// threshold works across links — the role AGC scaling plays on real NICs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/path_weighting.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "obs/metrics.h"
#include "wifi/array.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

enum class DetectionScheme {
  kBaseline,
  kSubcarrierWeighting,
  kSubcarrierAndPathWeighting,
  // Variance statistic for MOBILE targets (Sec. III: "the mean of the RSS
  // difference is used to detect stationary targets, while the corresponding
  // variance is adopted for mobile targets" [18]). Subcarrier-weighted
  // temporal variance of per-subcarrier power over the window.
  kVarianceMobile,
};

const char* ToString(DetectionScheme scheme);

struct DetectorConfig {
  DetectionScheme scheme = DetectionScheme::kSubcarrierAndPathWeighting;
  MusicConfig music;
  PathWeightingConfig path_weighting;

  // Eq. 15 factor selection (ablation hook; the paper's scheme is the
  // product of mean multipath factor and stability ratio).
  WeightingMode weighting_mode = WeightingMode::kMeanMuTimesStability;

  // Monitoring window length M in packets (paper: ~0.5 s at 50 pkt/s).
  std::size_t window_packets = 25;

  // Aggregate the window's per-subcarrier power with the median instead of
  // the mean. The paper uses the mean of the RSS difference for stationary
  // targets; the median is the robust drop-in that survives co-channel
  // interference bursts shorter than half the window (see the
  // ablate_weighting bench for the comparison).
  bool robust_window_aggregate = true;

  // Subtract the smallest covariance eigenvalue (the spatially-white noise
  // floor) before the Bartlett comparison in the combined scheme. Removes
  // AWGN and receiver-local interference from the angular statistic.
  bool noise_floor_subtraction = true;

  // Auto-threshold margin: threshold = mean + sigma * std of empty-window
  // scores (used by CalibrateThreshold).
  double threshold_sigma = 3.0;
};

// Every buffer the scoring hot path needs, owned by the caller so repeated
// Score calls perform zero heap allocations after the first window. The
// scratch holds per-window temporaries only — nothing that belongs to a
// profile — so one scratch serves any number of detectors, interleaved in
// any order, and detectors of one shape share its warm buffers.
struct DetectorScratch {
  // Observability shard the scoring path reports into: per-stage timings
  // (sanitize, subcarrier weighting, MUSIC/path weighting, score) plus the
  // windows-scored and profile-stack-hit counters. Null (the default) is
  // the no-op sink — scoring reads no clocks and bumps no counters.
  // Recording never changes a score.
  obs::Registry* metrics = nullptr;
  SanitizeScratch sanitize;
  // The detector's own slot block (Detector::PrepareSlabs, and Score on a
  // raw window): one ingest slot per packet, slot_stride() doubles each,
  // plus the window-order views and stats handed to the scheme body.
  // Grow-only, so a shared scratch keeps the largest window's capacity.
  std::vector<double> slots;
  std::vector<const double*> slot_csi;
  std::vector<const double*> slot_mu;
  std::vector<double> slot_stats;
  SubcarrierWeights weights;
  std::vector<double> median_scratch;
  // Window-order power plane (FillPowerPlane; grow-only, so a shared
  // scratch keeps the largest window's capacity). The amplitude schemes
  // sort it in place, column by column.
  std::vector<double> power_plane;
  // Per-(antenna, subcarrier) window statistics read off the plane: the
  // window power (median, or mean) and the variance-mobile spread (MAD, or
  // variance).
  std::vector<double> cell_center;
  std::vector<double> cell_spread;
  linalg::CMatrix monitor_cov;
  linalg::CMatrix profile_cov;
  MusicWorkspace music;
  Pseudospectrum monitor_spectrum;
  Pseudospectrum profile_spectrum;
  std::vector<double> weighted_monitor;
  std::vector<double> weighted_profile;
};

// Fill `plane` with a window's power plane, row-major rows x cells, window
// order: row i holds packet i's |h|^2 = re*re + im*im for each (antenna,
// subcarrier) cell, antenna-major (cells = antennas * subcarriers; one lane
// per cell), read from `csi_slabs` — one per window packet, in
// kernels::Deinterleave's layout (re rows then im rows). The slabs are exact
// copies of the packets' CSI, so the bits are CsiPacket::SubcarrierPower's.
// `plane` only grows. Returns the filled rows * cells prefix.
std::span<double> FillPowerPlane(std::span<const double* const> csi_slabs,
                                 std::size_t antennas, std::size_t subcarriers,
                                 std::vector<double>& plane);

// Scoring surface. The detector is one per-packet map followed by window
// folds: PrepareSlot turns a packet into an ingest slot (the split CSI in
// the detector's input state, its mu row, and one per-packet statistic),
// and one body per scheme folds a window of slots. Every entry runs that
// same map and that same body, so all of them are bit-identical on the
// same packets:
//  * Score          — the offline statistic of a raw window (two overloads;
//                     the span one is allocation-free on a warm scratch).
//                     Prepares the window into the scratch's slot block.
//  * ScoreDegraded  — the offline dead-chain statistic over the live rows:
//                     the raw-window reference for degraded decisions, and
//                     at full mask the combined scheme's fallback statistic
//                     CalibrateThreshold derives fallback_threshold() from.
//  * Detect         — Score against the operating threshold.
//  * ScorePrepared  — a window of slots already prepared (SensingEngine's
//                     ring, or PrepareSlabs), primary or degraded by its
//                     live mask.
class Detector {
 public:
  // How many sanitized calibration packets the retained set keeps for the
  // re-weighted profile pseudospectrum and covariance stack, evenly
  // subsampled from the session (all of them for a shorter session).
  static constexpr std::size_t kRetainedCalibrationPackets = 128;

  // Build a detector from an empty-room calibration session. Requires >= 2
  // packets of one shape; the combined scheme additionally requires >= 2 RX
  // antennas.
  static Detector Calibrate(const std::vector<wifi::CsiPacket>& empty_session,
                            const wifi::BandPlan& band,
                            const wifi::UniformLinearArray& array,
                            const DetectorConfig& config = {});

  // Decision statistic for a raw monitoring window (>= 1 packet; the
  // combined scheme needs >= 2 packets for a stable covariance). Higher =
  // more evidence of human presence.
  double Score(const std::vector<wifi::CsiPacket>& window) const;

  // Workspace variant: bit-identical to Score, but all intermediate buffers
  // live in `scratch`, so steady-state scoring is allocation-free.
  MULINK_HOT double Score(std::span<const wifi::CsiPacket> window,
                          DetectorScratch& scratch) const;

  // Degraded-mode statistic for raw windows with dead RX chains: only the
  // antennas set in `live_mask` (bit m = antenna m) contribute. The
  // combined scheme always falls back to subcarrier-only weighting here —
  // MUSIC needs the full ULA — and its decisions compare against
  // fallback_threshold(); the other schemes score their own statistic over
  // the live rows and keep their primary threshold (their score is a
  // per-antenna average, so the scale is preserved). For those schemes a
  // full live_mask is bit-identical to Score.
  double ScoreDegraded(std::span<const wifi::CsiPacket> window,
                       DetectorScratch& scratch,
                       std::uint32_t live_mask) const;

  bool Detect(const std::vector<wifi::CsiPacket>& window) const;

  // A window of ingest slots, in window order, one entry per packet.
  struct PreparedWindowFactors {
    // The packet's CSI in the detector's input state, split antenna-major:
    // re rows then im rows, exactly kernels::Deinterleave's bytes (see
    // SampleCovarianceSlabsInto).
    std::span<const double* const> csi_slabs;
    // The packet's num_subcarriers() multipath factors
    // (MeasureMultipathFactorsSplitInto's values; only sanitized schemes
    // read them).
    std::span<const double* const> mu_rows;
    // SlotStat's value: the mu row's cross-subcarrier median (dsp::Median's),
    // or the baseline's full-mask distance under the current
    // profile_epoch().
    std::span<const double> stats;
  };

  // Score a window of prepared slots. A `live_mask` short of
  // FullAntennaMask() scores ScoreDegraded's statistic over the live rows;
  // otherwise (the default) Score's.
  MULINK_HOT double ScorePrepared(const PreparedWindowFactors& factors,
                                  DetectorScratch& scratch,
                                  std::uint32_t live_mask = ~0u) const;

  // The per-packet ingest map. Writes `packet` into `slot` (slot_stride()
  // doubles) in the detector's input state — phase-sanitized, or raw for
  // the baseline — split antenna-major (re rows, then im rows), and returns
  // SlotStat(slot). The packet must have the calibrated shape.
  MULINK_HOT double PrepareSlot(const wifi::CsiPacket& packet, double* slot,
                                DetectorScratch& scratch) const;

  // The slot's per-packet statistic, from its CSI rows. Sanitized schemes
  // write the packet's mu row after the CSI rows and return its median. The
  // baseline returns the packet's full-mask amplitude distance to the
  // profile (the sum over antennas of the normalized distance), which is
  // tied to profile_epoch(): a profile rewrite makes it stale, and callers
  // that keep slots recompute it from the slot.
  MULINK_HOT double SlotStat(double* slot, DetectorScratch& scratch) const;

  // Doubles per ingest slot: 2 * antennas * subcarriers CSI values, then
  // the mu row.
  std::size_t slot_stride() const {
    return (2 * num_antennas_ + 1) * num_subcarriers_;
  }

  // Prepare `csi_rows` — consecutive split CSI blocks of 2 * antennas *
  // subcarriers doubles, already in the input state (the ladder's staged
  // quiet packets) — into scratch's slot block: copy each block into a slot
  // and compute its SlotStat under the current profile. The returned views
  // point into the scratch until its next use.
  PreparedWindowFactors PrepareSlabs(std::span<const double> csi_rows,
                                     DetectorScratch& scratch) const;

  // Monotonic epoch of the amplitude profile the baseline statistic reads;
  // bumped by Calibrate and ApplyProfile. Baseline stats computed under an
  // older epoch must be recomputed.
  std::uint64_t profile_epoch() const { return profile_epoch_; }

  // Whether the input state is phase-sanitized (every scheme except the
  // baseline, which is amplitude-only and reads the raw CSI).
  bool UsesSanitizedInput() const {
    return config_.scheme != DetectionScheme::kBaseline;
  }

  const wifi::BandPlan& band() const { return band_; }
  // The band's ingest constants (phase-fit normal equations, subcarrier
  // offsets, Eq. 10 LOS fractions), built with the detector.
  const IngestPlan& ingest_plan() const { return ingest_plan_; }

  // Set the operating threshold directly (e.g. from a ROC sweep).
  void SetThreshold(double threshold) {
    threshold_ = threshold;
    threshold_set_ = true;
  }
  double threshold() const { return threshold_; }
  bool has_threshold() const { return threshold_set_; }

  // Threshold for ScoreDegraded decisions. CalibrateThreshold derives it
  // from the same empty windows when the scheme is the combined one (whose
  // fallback statistic lives on a different scale); every other scheme
  // shares the primary threshold.
  void SetFallbackThreshold(double threshold) {
    fallback_threshold_ = threshold;
    fallback_threshold_set_ = true;
  }
  double fallback_threshold() const {
    return fallback_threshold_set_ ? fallback_threshold_ : threshold_;
  }

  // Derive the threshold from held-out empty-room windows:
  // mean + threshold_sigma * std of their scores.
  void CalibrateThreshold(
      const std::vector<std::vector<wifi::CsiPacket>>& empty_windows);

  // In-place recalibration entry points for core/calibration's ladder, the
  // closed-loop drift compensation of long deployments. Both run between
  // windows, never mid-score — the caller owns that contract.
  //
  // Overwrite the static profile with posterior means (flat antenna-major
  // spans, the planes' own layout) and re-derive the normalization scales.
  // Allocation-free: the double-buffered swap writes the staged values over
  // the active profile without touching the retained rows or the threshold.
  void ApplyProfile(std::span<const double> power,
                    std::span<const double> amplitude,
                    std::span<const double> variance);

  // Rescale the retained rows onto the active amplitude profile, rotate
  // staged sanitized quiet packets — consecutive split CSI blocks of 2 *
  // antennas * subcarriers doubles, as PrepareSlabs takes them — into the
  // retained set (copied over the oldest rows first) and recompute the
  // static pseudospectrum, the Eq. 17 path weights and the profile
  // covariance stack in place, so the combined scheme's angular profile
  // follows the recalibrated environment. `scratch` lends the MUSIC
  // workspace (the link's scoring scratch, idle between windows); with it
  // warm the refresh allocates nothing. No-op for single-antenna links or
  // an empty `staged`.
  void RefreshAngularProfile(std::span<const double> staged,
                             DetectorScratch& scratch);

  // Calibrated shape (rows / columns of every CSI matrix this detector
  // accepts).
  std::size_t num_antennas() const { return num_antennas_; }
  std::size_t num_subcarriers() const { return num_subcarriers_; }
  // All antennas usable (the non-degraded case; bit m = antenna m).
  std::uint32_t FullAntennaMask() const;

  // Introspection for the characterization benches.
  const Pseudospectrum& static_spectrum() const { return static_spectrum_; }
  const PathWeights& path_weights() const { return path_weights_; }
  // The retained calibration set: retained_count() consecutive split CSI
  // rows of 2 * antennas * subcarriers doubles (re rows then im rows, an
  // ingest slot's CSI layout), sanitized, each rescaled in place by every
  // RefreshAngularProfile since it was rotated in.
  const std::vector<double>& retained_rows() const { return retained_rows_; }
  std::size_t retained_count() const {
    return retained_rows_.size() / (2 * num_antennas_ * num_subcarriers_);
  }
  const SubcarrierCovarianceStack& profile_stack() const {
    return profile_stack_;
  }
  // The static profile planes, flat antenna-major: cell (m, k) is entry
  // m * num_subcarriers() + k.
  const std::vector<double>& profile_power() const { return profile_power_; }
  const std::vector<double>& profile_amplitude() const {
    return profile_amplitude_;
  }
  const std::vector<double>& profile_variance() const {
    return profile_variance_;
  }
  const DetectorConfig& config() const { return config_; }

 private:
  Detector(const wifi::BandPlan& band, const wifi::UniformLinearArray& array,
           const DetectorConfig& config);

  // Re-derive everything built from retained_rows_ — the smoothed
  // static MUSIC pseudospectrum, the Eq. 17 path weights and, for the
  // combined scheme, the profile covariance stack — into the existing
  // buffers, with `scratch` as the MUSIC workspace. Needs >= 2 antennas.
  void RebuildAngularProfile(DetectorScratch& scratch);

  // Size scratch's slot block for `rows` slots and point its views at them.
  PreparedWindowFactors SlotViews(std::size_t rows,
                                  DetectorScratch& scratch) const;
  // A raw window through PrepareSlot into scratch's slot block (shape
  // checked per packet).
  PreparedWindowFactors PrepareWindow(std::span<const wifi::CsiPacket> window,
                                      DetectorScratch& scratch) const;
  // Every scoring entry's one body: checks the factors, counts the window,
  // and runs the scheme's statistic over the antennas in live_mask (the
  // full mask reproduces the clean statistic bit for bit). `fallback`
  // selects the combined scheme's degraded statistic.
  double Dispatch(const PreparedWindowFactors& factors,
                  DetectorScratch& scratch, std::uint32_t live_mask,
                  bool fallback) const;
  // The baseline's per-packet distance over the antennas in live_mask, from
  // a slot's raw CSI rows.
  double BaselineDistance(const double* slab, std::uint32_t live_mask) const;
  // The scheme bodies below fold a window of prepared slots.
  double ScoreBaseline(const PreparedWindowFactors& factors,
                       std::uint32_t live_mask) const;
  // Eq. 13–15 window weights into scratch.weights.
  void ComputeWindowWeights(const PreparedWindowFactors& factors,
                            DetectorScratch& scratch) const;
  // Fill the window's power plane and read the per-cell window power into
  // scratch.cell_center — plus, with `spread`, the variance-mobile spread
  // into scratch.cell_spread: medians and MADs under
  // robust_window_aggregate (kernels::ColumnMedians), else dsp::Mean /
  // dsp::Variance's values, accumulated in their order.
  void ComputeCellStats(const PreparedWindowFactors& factors,
                        DetectorScratch& scratch, bool spread) const;
  double ScoreSubcarrierWeighting(const PreparedWindowFactors& factors,
                                  DetectorScratch& scratch,
                                  std::uint32_t live_mask) const;
  double ScoreCombined(const PreparedWindowFactors& factors,
                       DetectorScratch& scratch) const;
  double ScoreVarianceMobile(const PreparedWindowFactors& factors,
                             DetectorScratch& scratch,
                             std::uint32_t live_mask) const;

  wifi::BandPlan band_;
  IngestPlan ingest_plan_;
  wifi::UniformLinearArray array_;
  DetectorConfig config_;

  std::size_t num_antennas_ = 0;
  std::size_t num_subcarriers_ = 0;

  // Static profile: mean power / amplitude / temporal variance per
  // (antenna, subcarrier), flat antenna-major.
  std::vector<double> profile_power_;
  std::vector<double> profile_amplitude_;
  std::vector<double> profile_variance_;
  // Mean per-antenna profile power (normalization scale).
  double profile_scale_power_ = 0.0;
  double profile_scale_amplitude_ = 0.0;

  // retained_rows() and the rotation cursor RefreshAngularProfile writes
  // its next staged row at (modulo retained_count()).
  std::vector<double> retained_rows_;
  std::size_t retained_rotation_ = 0;
  // Epoch of profile_amplitude_/profile_scale_amplitude_ (the baseline
  // statistic's inputs), drawn from a process-unique counter so a cache
  // stamped by one detector never matches another's.
  std::uint64_t profile_epoch_ = 0;
  Pseudospectrum static_spectrum_;
  PathWeights path_weights_;
  // Combined scheme only: per-subcarrier covariance blocks of
  // retained_rows_, rebuilt wherever that set is rewritten, so each
  // window just re-combines them with its Eq. 15 weights. Read-only while
  // scoring (shared fleet profiles share it); copies copy it (~4 KB).
  SubcarrierCovarianceStack profile_stack_;

  double threshold_ = 0.0;
  bool threshold_set_ = false;
  double fallback_threshold_ = 0.0;
  bool fallback_threshold_set_ = false;
};

}  // namespace mulink::core
