// Device-free human detection pipeline (paper Sec. IV-C).
//
// Two stages, as in the paper:
//  * Calibration — from an empty-room CSI session: phase-sanitize, store the
//    static profile s(0) (per-antenna per-subcarrier mean power), the static
//    angular pseudospectrum and the Eq. 17 path weights, plus a subsample of
//    sanitized calibration packets so monitoring-stage subcarrier weights can
//    be applied consistently to both sides before the distance is taken.
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

  // How many sanitized calibration packets to retain for re-weighted
  // pseudospectrum computation (evenly subsampled from the session).
  std::size_t retained_calibration_packets = 128;

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
  std::vector<wifi::CsiPacket> sanitized;
  // SensingEngine's rebuilt window (grow-only; see there).
  std::vector<wifi::CsiPacket> window;
  std::vector<std::vector<double>> mu;
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
// per cell). Read from `csi_slabs` when given — one per window packet, in
// kernels::Deinterleave's layout (re rows then im rows) — else from
// `window`'s packets; the slabs are exact copies, so both sources give the
// same bits, and those bits are CsiPacket::SubcarrierPower's. `plane` only
// grows. Returns the filled rows * cells prefix.
std::span<double> FillPowerPlane(std::span<const wifi::CsiPacket> window,
                                 std::span<const double* const> csi_slabs,
                                 std::size_t antennas, std::size_t subcarriers,
                                 std::vector<double>& plane);

// Scoring surface (every entry is bit-identical to the others on the same
// packets — sanitization, mu extraction and the baseline's per-packet
// distance are deterministic per-packet maps, so computing them at ingest
// instead of per window changes no bits):
//  * Score          — the offline statistic of a raw window (two overloads;
//                     the span one is allocation-free on a warm scratch).
//  * ScoreDegraded  — the offline dead-chain statistic over the live rows:
//                     the raw-window reference for degraded decisions, and
//                     at full mask the combined scheme's fallback statistic
//                     CalibrateThreshold derives fallback_threshold() from.
//  * Detect         — Score against the operating threshold.
//  * ScorePrepared  — the engine's entry: a window already in the
//                     detector's input state plus whatever SensingEngine
//                     prepared at ingest (slabs, mu rows, baseline
//                     distances), primary or degraded by its live mask.
// BaselinePacketScore is the per-packet map behind the baseline's prepared
// distances.
class Detector {
 public:
  // Build a detector from an empty-room calibration session. Requires >= 2
  // packets; the combined scheme additionally requires >= 2 RX antennas.
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

  // Per-packet values a caller prepared at ingest, all in window order.
  // Any subset may be empty; the scheme reads a prepared value in place of
  // re-deriving it from the window packets.
  struct PreparedWindowFactors {
    // Sanitized schemes: mu_rows[m] points at packet m's num_subcarriers()
    // multipath factors (MeasureMultipathFactorsInto's values) and
    // medians[m] is that row's cross-subcarrier median (dsp::Median's).
    std::span<const double* const> mu_rows;
    std::span<const double> medians;
    // Sanitized schemes: ingest-split CSI slabs, one per packet
    // (antenna-major re rows then im rows, exactly kernels::Deinterleave's
    // bytes — see SampleCovarianceSlabsInto). With them, every sanitized
    // statistic reads these instead of the packets — the combined scheme's
    // monitor covariance, the amplitude schemes' power plane — so the
    // window span may be empty. Requires mu_rows.
    std::span<const double* const> csi_slabs;
    // Baseline: BaselinePacketScore of each raw packet under the current
    // profile_epoch(). Full-mask windows only; the window may then be
    // empty.
    std::span<const double> packet_scores;
  };

  // Score a window already in the detector's input state (phase-sanitized
  // exactly as SanitizePhaseInto would, or raw for the baseline — see
  // UsesSanitizedInput), reading `factors` in place of re-deriving them. A
  // `live_mask` short of FullAntennaMask() scores ScoreDegraded's statistic
  // over the live rows; otherwise (the default) Score's.
  MULINK_HOT double ScorePrepared(std::span<const wifi::CsiPacket> window,
                                  const PreparedWindowFactors& factors,
                                  DetectorScratch& scratch,
                                  std::uint32_t live_mask = ~0u) const;

  // Per-packet contribution to the baseline statistic: the full-mask inner
  // body of ScoreBaseline (sum over antennas of the normalized amplitude
  // distance to the profile). A deterministic per-packet map of the RAW
  // packet, so ingest paths cache one double per ring slot and fold the
  // window's statistic through PreparedWindowFactors::packet_scores
  // instead of re-walking window_packets x antennas x subcarriers every
  // hop. Values are tied to profile_epoch(): a profile rewrite invalidates
  // them.
  MULINK_HOT double BaselinePacketScore(const wifi::CsiPacket& packet) const;

  // Monotonic epoch of the amplitude profile the baseline statistic reads;
  // bumped by Calibrate, UpdateProfile and ApplyProfile. Caches of
  // BaselinePacketScore stamped with an older epoch must recompute.
  std::uint64_t profile_epoch() const { return profile_epoch_; }

  // Whether Score sanitizes its input (every scheme except the baseline,
  // which is amplitude-only). When false, callers must not pre-sanitize —
  // feed raw windows to ScorePrepared.
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

  // Closed-loop drift compensation for long deployments: blend a window the
  // deployment believes is empty (e.g. HMM posterior ~0 for minutes) into
  // the static profile with EWMA weight alpha. Keeps slow AGC/TX-power and
  // furniture drift from inflating false positives between manual
  // recalibrations (the paper's campaign spanned two weeks). A subset of
  // the retained calibration packets is rotated out so the combined
  // scheme's angular profile tracks too.
  void UpdateProfile(const std::vector<wifi::CsiPacket>& empty_window,
                     double alpha = 0.05);

  // In-place recalibration entry points for core/calibration's ladder. Both
  // run between windows, never mid-score — the caller owns that contract.
  //
  // Overwrite the static profile with posterior means (flattened row-major
  // [antenna][subcarrier] spans) and re-derive the normalization scales.
  // Allocation-free: the double-buffered swap writes the staged values over
  // the active profile without touching packet buffers or the threshold.
  void ApplyProfile(std::span<const double> power,
                    std::span<const double> amplitude,
                    std::span<const double> variance);

  // Rotate staged sanitized quiet packets into the retained calibration set
  // (oldest first, reusing each slot's CSI buffer) and recompute the static
  // pseudospectrum, the Eq. 17 path weights and the profile covariance
  // stack in place, so the combined scheme's angular profile follows the
  // recalibrated environment. `scratch` lends the MUSIC workspace (the
  // link's scoring scratch, idle between windows); with it warm the refresh
  // allocates nothing. No-op for single-antenna links or an empty `staged`.
  void RefreshAngularProfile(std::span<const wifi::CsiPacket> staged,
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
  std::span<const wifi::CsiPacket> retained_calibration() const {
    return retained_calibration_;
  }
  const SubcarrierCovarianceStack& profile_stack() const {
    return profile_stack_;
  }
  const std::vector<std::vector<double>>& profile_power() const {
    return profile_power_;
  }
  const std::vector<std::vector<double>>& profile_variance() const {
    return profile_variance_;
  }
  const DetectorConfig& config() const { return config_; }

 private:
  Detector(const wifi::BandPlan& band, const wifi::UniformLinearArray& array,
           const DetectorConfig& config);

  // Re-derive everything built from retained_calibration_ — the smoothed
  // static MUSIC pseudospectrum, the Eq. 17 path weights and, for the
  // combined scheme, the profile covariance stack — into the existing
  // buffers, with `scratch` as the MUSIC workspace. Needs >= 2 antennas.
  void RebuildAngularProfile(DetectorScratch& scratch);

  // `window` in the detector's input state: phase-sanitized into
  // scratch.sanitized, or the raw window itself for the baseline.
  std::span<const wifi::CsiPacket> InputState(
      std::span<const wifi::CsiPacket> window, DetectorScratch& scratch) const;
  // Every scoring entry's one body: checks the window against the
  // calibration and the factors, counts it, and runs the scheme's statistic
  // over the antennas in live_mask (the full mask reproduces the clean
  // statistic bit for bit). `fallback` selects the combined scheme's
  // degraded statistic.
  double Dispatch(std::span<const wifi::CsiPacket> window,
                  const PreparedWindowFactors& factors,
                  DetectorScratch& scratch, std::uint32_t live_mask,
                  bool fallback) const;
  // The scheme bodies below take a window in the input state and read the
  // prepared factors in place of its packets where given.
  double ScoreBaseline(std::span<const wifi::CsiPacket> window,
                       std::uint32_t live_mask) const;
  // Eq. 13–15 window weights into scratch.weights — from the prepared
  // per-packet factors when given, else measured from the sanitized window.
  void ComputeWindowWeights(std::span<const wifi::CsiPacket> sanitized,
                            DetectorScratch& scratch,
                            const PreparedWindowFactors& factors) const;
  // Fill the window's power plane (from factors.csi_slabs when set, else
  // the packets) and read the per-cell window power into
  // scratch.cell_center — plus, with `spread`, the variance-mobile spread
  // into scratch.cell_spread: medians and MADs under
  // robust_window_aggregate (kernels::ColumnMedians), else dsp::Mean /
  // dsp::Variance's values, accumulated in their order.
  void ComputeCellStats(std::span<const wifi::CsiPacket> sanitized,
                        DetectorScratch& scratch,
                        const PreparedWindowFactors& factors,
                        bool spread) const;
  double ScoreSubcarrierWeighting(std::span<const wifi::CsiPacket> sanitized,
                                  DetectorScratch& scratch,
                                  std::uint32_t live_mask,
                                  const PreparedWindowFactors& factors) const;
  double ScoreCombined(std::span<const wifi::CsiPacket> sanitized,
                       DetectorScratch& scratch,
                       const PreparedWindowFactors& factors) const;
  double ScoreVarianceMobile(std::span<const wifi::CsiPacket> sanitized,
                             DetectorScratch& scratch, std::uint32_t live_mask,
                             const PreparedWindowFactors& factors) const;

  wifi::BandPlan band_;
  IngestPlan ingest_plan_;
  wifi::UniformLinearArray array_;
  DetectorConfig config_;

  std::size_t num_antennas_ = 0;
  std::size_t num_subcarriers_ = 0;

  // Static profile: mean power / amplitude / temporal variance per
  // (antenna, subcarrier).
  std::vector<std::vector<double>> profile_power_;
  std::vector<std::vector<double>> profile_amplitude_;
  std::vector<std::vector<double>> profile_variance_;
  // Mean per-antenna profile power (normalization scale).
  double profile_scale_power_ = 0.0;
  double profile_scale_amplitude_ = 0.0;

  std::vector<wifi::CsiPacket> retained_calibration_;
  std::size_t retained_rotation_ = 0;
  // Epoch of profile_amplitude_/profile_scale_amplitude_ (the baseline
  // statistic's inputs), drawn from a process-unique counter so a cache
  // stamped by one detector never matches another's.
  std::uint64_t profile_epoch_ = 0;
  Pseudospectrum static_spectrum_;
  PathWeights path_weights_;
  // Combined scheme only: per-subcarrier covariance blocks of
  // retained_calibration_, rebuilt wherever that set is rewritten, so each
  // window just re-combines them with its Eq. 15 weights. Read-only while
  // scoring (shared fleet profiles share it); copies copy it (~4 KB).
  SubcarrierCovarianceStack profile_stack_;

  double threshold_ = 0.0;
  bool threshold_set_ = false;
  double fallback_threshold_ = 0.0;
  bool fallback_threshold_set_ = false;
};

}  // namespace mulink::core
