#include "core/detector.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>

#include "common/assert.h"
#include "core/multipath_factor.h"
#include "core/sanitize.h"
#include "dsp/stats.h"
#include "kernels/kernels.h"
#include "linalg/hermitian_eig.h"

namespace mulink::core {

namespace {

// Process-unique profile epochs: every rewrite of a detector's amplitude
// profile gets a fresh value, so a baseline cache stamped under one profile
// (of this or any other detector) never passes for another's.
std::uint64_t NextProfileVersion() {
  static std::atomic<std::uint64_t> counter{0};
  // Relaxed is sufficient (and what the analyzer's atomics rule demands be
  // said out loud): the value is only used for uniqueness, never to order
  // other memory.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::span<double> FillPowerPlane(std::span<const double* const> csi_slabs,
                                 std::size_t antennas, std::size_t subcarriers,
                                 std::vector<double>& plane) {
  const std::size_t cells = antennas * subcarriers;
  const std::size_t rows = csi_slabs.size();
  if (plane.size() < rows * cells) {
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    plane.resize(rows * cells);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    double* const out = plane.data() + i * cells;
    const double* const re = csi_slabs[i];
    const double* const im = re + cells;
    for (std::size_t c = 0; c < cells; ++c) {
      out[c] = re[c] * re[c] + im[c] * im[c];
    }
  }
  return {plane.data(), rows * cells};
}

const char* ToString(DetectionScheme scheme) {
  switch (scheme) {
    case DetectionScheme::kBaseline:
      return "baseline";
    case DetectionScheme::kSubcarrierWeighting:
      return "subcarrier-weighting";
    case DetectionScheme::kSubcarrierAndPathWeighting:
      return "subcarrier+path-weighting";
    case DetectionScheme::kVarianceMobile:
      return "variance-mobile";
  }
  return "unknown";
}

Detector::Detector(const wifi::BandPlan& band,
                   const wifi::UniformLinearArray& array,
                   const DetectorConfig& config)
    : band_(band), ingest_plan_(band), array_(array), config_(config) {}

Detector Detector::Calibrate(const std::vector<wifi::CsiPacket>& empty_session,
                             const wifi::BandPlan& band,
                             const wifi::UniformLinearArray& array,
                             const DetectorConfig& config) {
  MULINK_REQUIRE(empty_session.size() >= 2,
                 "Detector::Calibrate: need >= 2 calibration packets");
  const std::size_t num_ant = empty_session[0].NumAntennas();
  const std::size_t num_sc = empty_session[0].NumSubcarriers();
  MULINK_REQUIRE(num_sc == band.NumSubcarriers(),
                 "Detector::Calibrate: packet/band subcarrier mismatch");
  MULINK_REQUIRE(num_ant == array.num_antennas(),
                 "Detector::Calibrate: packet/array antenna mismatch");
  if (config.scheme == DetectionScheme::kSubcarrierAndPathWeighting) {
    MULINK_REQUIRE(num_ant >= 2,
                   "Detector::Calibrate: combined scheme needs >= 2 antennas");
  }

  Detector d(band, array, config);
  d.num_antennas_ = num_ant;
  d.num_subcarriers_ = num_sc;

  // Sanitize the session once into one block of split CSI rows, an ingest
  // slot's CSI layout, for every scheme (the baseline scores raw CSI, but
  // its profile is the sanitized session's too).
  const std::size_t cells = num_ant * num_sc;
  const std::size_t row = 2 * cells;
  const std::size_t n = empty_session.size();
  // mulink-lint: allow(alloc): calibration path
  std::vector<double> rows(n * row);
  {
    SanitizeScratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
      MULINK_REQUIRE(empty_session[i].NumAntennas() == num_ant &&
                         empty_session[i].NumSubcarriers() == num_sc,
                     "Detector::Calibrate: inconsistent packet dimensions");
      double* const re = rows.data() + i * row;
      SanitizePhaseSplitInto(empty_session[i], d.ingest_plan_, re, re + cells,
                             scratch);
    }
  }

  // Static power/amplitude profile s(0); each cell sums |h|^2 = re*re +
  // im*im (CsiPacket::SubcarrierPower's bits) in packet order.
  // mulink-lint: allow(alloc): calibration path
  d.profile_power_.assign(cells, 0.0);
  // mulink-lint: allow(alloc): calibration path
  d.profile_amplitude_.assign(cells, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* const re = rows.data() + i * row;
    const double* const im = re + cells;
    for (std::size_t c = 0; c < cells; ++c) {
      const double p = re[c] * re[c] + im[c] * im[c];
      d.profile_power_[c] += p;
      d.profile_amplitude_[c] += std::sqrt(p);
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  double power_sum = 0.0, amp_sum = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    d.profile_power_[c] *= inv_n;
    d.profile_amplitude_[c] *= inv_n;
    power_sum += d.profile_power_[c];
    amp_sum += d.profile_amplitude_[c];
  }
  // Empty-room temporal variance per (antenna, subcarrier) — the noise/
  // dynamics floor the mobile-target variance statistic must exceed.
  // mulink-lint: allow(alloc): calibration path
  d.profile_variance_.assign(cells, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* const re = rows.data() + i * row;
    const double* const im = re + cells;
    for (std::size_t c = 0; c < cells; ++c) {
      const double diff = (re[c] * re[c] + im[c] * im[c]) - d.profile_power_[c];
      d.profile_variance_[c] += diff * diff;
    }
  }
  for (std::size_t c = 0; c < cells; ++c) d.profile_variance_[c] *= inv_n;

  d.profile_scale_power_ = power_sum / static_cast<double>(cells);
  d.profile_scale_amplitude_ = amp_sum / static_cast<double>(cells);
  MULINK_REQUIRE(d.profile_scale_power_ > 0.0,
                 "Detector::Calibrate: calibration session has no power");

  // Retain an even subsample of the sanitized rows for monitoring-time
  // re-weighted pseudospectrum computation.
  const std::size_t keep = std::min(kRetainedCalibrationPackets, n);
  // mulink-lint: allow(alloc): calibration path
  d.retained_rows_.resize(keep * row);
  for (std::size_t i = 0; i < keep; ++i) {
    std::copy_n(rows.data() + (i * n / keep) * row, row,
                d.retained_rows_.data() + i * row);
  }
  d.profile_epoch_ = NextProfileVersion();

  // Static pseudospectrum and Eq. 17 path weights (combined scheme only
  // needs them, but they are cheap and useful introspection for all).
  if (num_ant >= 2) {
    DetectorScratch scratch;
    d.RebuildAngularProfile(scratch);
  }
  return d;
}

double Detector::Score(const std::vector<wifi::CsiPacket>& window) const {
  DetectorScratch scratch;
  return Score(std::span<const wifi::CsiPacket>(window), scratch);
}

double Detector::Score(std::span<const wifi::CsiPacket> window,
                       DetectorScratch& scratch) const {
  return Dispatch(PrepareWindow(window, scratch), scratch, FullAntennaMask(),
                  /*fallback=*/false);
}

double Detector::ScoreDegraded(std::span<const wifi::CsiPacket> window,
                               DetectorScratch& scratch,
                               std::uint32_t live_mask) const {
  return Dispatch(PrepareWindow(window, scratch), scratch, live_mask,
                  /*fallback=*/true);
}

double Detector::ScorePrepared(const PreparedWindowFactors& factors,
                               DetectorScratch& scratch,
                               std::uint32_t live_mask) const {
  live_mask &= FullAntennaMask();
  return Dispatch(factors, scratch, live_mask,
                  /*fallback=*/live_mask != FullAntennaMask());
}

double Detector::PrepareSlot(const wifi::CsiPacket& packet, double* slot,
                             DetectorScratch& scratch) const {
  double* const im = slot + num_antennas_ * num_subcarriers_;
  if (UsesSanitizedInput()) {
    // One pass from the raw frame into the slot: phase fit and rotation
    // into the split rows.
    SanitizePhaseSplitInto(packet, ingest_plan_, slot, im, scratch.sanitize);
  } else {
    for (std::size_t m = 0; m < num_antennas_; ++m) {
      kernels::Deinterleave(packet.csi.raw() + m * num_subcarriers_,
                            num_subcarriers_, slot + m * num_subcarriers_,
                            im + m * num_subcarriers_);
    }
  }
  return SlotStat(slot, scratch);
}

double Detector::SlotStat(double* slot, DetectorScratch& scratch) const {
  if (!UsesSanitizedInput()) return BaselineDistance(slot, FullAntennaMask());
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  const std::span<double> mu(slot + 2 * cells, num_subcarriers_);
  MeasureMultipathFactorsSplitInto(slot, slot + cells, num_antennas_,
                                   ingest_plan_.los_frac, mu);
  return dsp::Median(mu, scratch.median_scratch);
}

Detector::PreparedWindowFactors Detector::SlotViews(
    std::size_t rows, DetectorScratch& scratch) const {
  const std::size_t stride = slot_stride();
  if (scratch.slots.size() < rows * stride) {
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    scratch.slots.resize(rows * stride);
  }
  if (scratch.slot_stats.size() < rows) {
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    scratch.slot_csi.resize(rows);
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    scratch.slot_mu.resize(rows);
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    scratch.slot_stats.resize(rows);
  }
  const std::size_t csi_doubles = 2 * num_antennas_ * num_subcarriers_;
  for (std::size_t i = 0; i < rows; ++i) {
    scratch.slot_csi[i] = scratch.slots.data() + i * stride;
    scratch.slot_mu[i] = scratch.slot_csi[i] + csi_doubles;
  }
  return {std::span<const double* const>(scratch.slot_csi).first(rows),
          std::span<const double* const>(scratch.slot_mu).first(rows),
          std::span<const double>(scratch.slot_stats).first(rows)};
}

Detector::PreparedWindowFactors Detector::PrepareWindow(
    std::span<const wifi::CsiPacket> window, DetectorScratch& scratch) const {
  MULINK_REQUIRE(!window.empty(), "Detector: empty window");
  for (const auto& packet : window) {
    MULINK_REQUIRE(packet.NumAntennas() == num_antennas_ &&
                       packet.NumSubcarriers() == num_subcarriers_,
                   "Detector: window dimensions mismatch calibration");
  }
  const PreparedWindowFactors factors = SlotViews(window.size(), scratch);
  MULINK_OBS_STAGE_TIMER(timer,
                         UsesSanitizedInput() ? scratch.metrics : nullptr,
                         kIngestSanitize);
  const std::size_t stride = slot_stride();
  for (std::size_t i = 0; i < window.size(); ++i) {
    scratch.slot_stats[i] =
        PrepareSlot(window[i], scratch.slots.data() + i * stride, scratch);
  }
  return factors;
}

Detector::PreparedWindowFactors Detector::PrepareSlabs(
    std::span<const double> csi_rows, DetectorScratch& scratch) const {
  const std::size_t csi_doubles = 2 * num_antennas_ * num_subcarriers_;
  MULINK_REQUIRE(csi_rows.size() % csi_doubles == 0,
                 "Detector::PrepareSlabs: slab shape mismatch");
  const std::size_t rows = csi_rows.size() / csi_doubles;
  const PreparedWindowFactors factors = SlotViews(rows, scratch);
  const std::size_t stride = slot_stride();
  for (std::size_t i = 0; i < rows; ++i) {
    double* const slot = scratch.slots.data() + i * stride;
    std::copy_n(csi_rows.data() + i * csi_doubles, csi_doubles, slot);
    scratch.slot_stats[i] = SlotStat(slot, scratch);
  }
  return factors;
}

bool Detector::Detect(const std::vector<wifi::CsiPacket>& window) const {
  MULINK_REQUIRE(threshold_set_,
                 "Detector::Detect: threshold not calibrated; call "
                 "SetThreshold or CalibrateThreshold first");
  return Score(window) >= threshold_;
}

std::uint32_t Detector::FullAntennaMask() const {
  return num_antennas_ >= 32 ? 0xffffffffu
                             : ((1u << num_antennas_) - 1u);
}

double Detector::Dispatch(const PreparedWindowFactors& factors,
                          DetectorScratch& scratch, std::uint32_t live_mask,
                          bool fallback) const {
  const std::size_t packets = factors.csi_slabs.size();
  MULINK_REQUIRE(packets > 0, "Detector: empty window");
  MULINK_REQUIRE(factors.mu_rows.size() == packets &&
                     factors.stats.size() == packets,
                 "Detector: prepared factors/window size mismatch");
  MULINK_REQUIRE((live_mask & FullAntennaMask()) != 0,
                 "Detector: no live antennas");
  MULINK_OBS_COUNT(scratch.metrics, kWindowsScored);
  switch (config_.scheme) {
    case DetectionScheme::kBaseline: {
      MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kScore);
      return ScoreBaseline(factors, live_mask);
    }
    case DetectionScheme::kSubcarrierWeighting:
      return ScoreSubcarrierWeighting(factors, scratch, live_mask);
    case DetectionScheme::kSubcarrierAndPathWeighting:
      // MUSIC needs the full 3-element ULA; with a dead chain the angular
      // statistic is meaningless, so fall back to subcarrier-only
      // weighting over the live rows (decisions use fallback_threshold()).
      if (fallback) {
        return ScoreSubcarrierWeighting(factors, scratch, live_mask);
      }
      return ScoreCombined(factors, scratch);
    case DetectionScheme::kVarianceMobile:
      return ScoreVarianceMobile(factors, scratch, live_mask);
  }
  return 0.0;
}

void Detector::ComputeWindowWeights(const PreparedWindowFactors& factors,
                                    DetectorScratch& scratch) const {
  MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kSubcarrierWeighting);
  ComputeSubcarrierWeightsInto(factors.mu_rows, factors.stats,
                               num_subcarriers_, config_.weighting_mode,
                               scratch.weights);
}

void Detector::CalibrateThreshold(
    const std::vector<std::vector<wifi::CsiPacket>>& empty_windows) {
  MULINK_REQUIRE(empty_windows.size() >= 2,
                 "Detector::CalibrateThreshold: need >= 2 empty windows");
  // The combined scheme's degraded fallback (subcarrier-only weighting)
  // lives on a different scale than the angular statistic, so derive its
  // threshold from the same empty windows, scored from the same prepared
  // slots. The other schemes' degraded statistic is a per-antenna average
  // of the primary one — same scale, same threshold.
  const bool fallback =
      config_.scheme == DetectionScheme::kSubcarrierAndPathWeighting;
  std::vector<double> scores;
  std::vector<double> fallback_scores;
  // mulink-lint: allow(alloc): calibration path
  scores.reserve(empty_windows.size());
  // mulink-lint: allow(alloc): calibration path
  if (fallback) fallback_scores.reserve(empty_windows.size());
  DetectorScratch scratch;
  const std::uint32_t full = FullAntennaMask();
  for (const auto& w : empty_windows) {
    const PreparedWindowFactors factors = PrepareWindow(w, scratch);
    // mulink-lint: allow(alloc): calibration path
    scores.push_back(Dispatch(factors, scratch, full, /*fallback=*/false));
    if (fallback) {
      fallback_scores.push_back(  // mulink-lint: allow(alloc): calibration path
          Dispatch(factors, scratch, full, /*fallback=*/true));
    }
  }
  threshold_ =
      dsp::Mean(scores) + config_.threshold_sigma * dsp::StdDev(scores);
  threshold_set_ = true;
  if (fallback) {
    fallback_threshold_ = dsp::Mean(fallback_scores) +
                          config_.threshold_sigma * dsp::StdDev(fallback_scores);
    fallback_threshold_set_ = true;
  }
}

void Detector::ApplyProfile(std::span<const double> power,
                            std::span<const double> amplitude,
                            std::span<const double> variance) {
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  MULINK_REQUIRE(power.size() == cells && amplitude.size() == cells &&
                     variance.size() == cells,
                 "Detector::ApplyProfile: shape mismatch");
  // Validate before writing anything, so a refused profile leaves the
  // detector as it was.
  double power_sum = 0.0, amp_sum = 0.0;
  for (std::size_t idx = 0; idx < cells; ++idx) {
    power_sum += power[idx];
    amp_sum += amplitude[idx];
  }
  const double scale_power = power_sum / static_cast<double>(cells);
  MULINK_REQUIRE(scale_power > 0.0,
                 "Detector::ApplyProfile: staged profile has no power");
  std::copy(power.begin(), power.end(), profile_power_.begin());
  std::copy(amplitude.begin(), amplitude.end(), profile_amplitude_.begin());
  std::copy(variance.begin(), variance.end(), profile_variance_.begin());
  profile_scale_power_ = scale_power;
  profile_scale_amplitude_ = amp_sum / static_cast<double>(cells);
  profile_epoch_ = NextProfileVersion();
}

void Detector::RefreshAngularProfile(std::span<const double> staged,
                                     DetectorScratch& scratch) {
  if (staged.empty() || retained_rows_.empty() || num_antennas_ < 2) {
    return;
  }
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  const std::size_t row = 2 * cells;
  MULINK_REQUIRE(staged.size() % row == 0,
                 "Detector::RefreshAngularProfile: slab shape mismatch");
  const std::size_t count = retained_count();
  // Re-anchor the retained rows onto the ACTIVE profile's per-cell
  // amplitude before rotating the staged slice in. The rotation below only
  // replaces a fraction of the set, and both the pseudospectrum and the
  // combined scheme's profile-side covariance are built from the retained
  // rows — left at the pre-drift gain they would dominate the profile
  // statistics no matter what ApplyProfile installed. Scaling each cell's
  // amplitude to the applied profile keeps the rows' phase structure (the
  // angular information) while moving their scale to the new operating
  // point; a gain ramp or AGC step is a real scalar, so for those faults
  // the correction is exact. The scale is applied in place (re and im each
  // times it), so every row carries the product of the rescales since it
  // was rotated in.
  double* const block = retained_rows_.data();
  for (std::size_t c = 0; c < cells; ++c) {
    double stale_amp = 0.0;
    for (std::size_t r = 0; r < count; ++r) {
      const double re = block[r * row + c];
      const double im = block[r * row + cells + c];
      stale_amp += std::sqrt(re * re + im * im);
    }
    stale_amp /= static_cast<double>(count);
    const double target = profile_amplitude_[c];
    if (stale_amp <= 0.0 || target <= 0.0) continue;
    const double scale = target / stale_amp;
    for (std::size_t r = 0; r < count; ++r) {
      block[r * row + c] *= scale;
      block[r * row + cells + c] *= scale;
    }
  }
  // The rotation cursor keeps replacing the oldest retained rows first.
  const std::size_t rotate = std::min(staged.size() / row, count);
  for (std::size_t i = 0; i < rotate; ++i) {
    std::copy_n(staged.data() + i * row, row,
                block + (retained_rotation_ % count) * row);
    ++retained_rotation_;
  }
  RebuildAngularProfile(scratch);
}

void Detector::RebuildAngularProfile(DetectorScratch& scratch) {
  const std::size_t count = retained_count();
  const std::size_t row = 2 * num_antennas_ * num_subcarriers_;
  std::array<const double*, kRetainedCalibrationPackets> views{};
  for (std::size_t r = 0; r < count; ++r) {
    views[r] = retained_rows_.data() + r * row;
  }
  const std::span<const double* const> retained(views.data(), count);
  // The scratch's monitor-side covariance and spectrum are per-window
  // temporaries, free between windows.
  SampleCovarianceSlabsInto(retained, num_antennas_, num_subcarriers_, {},
                            scratch.monitor_cov, scratch.music);
  ComputeMusicSpectrumInto(scratch.monitor_cov, array_, band_, config_.music,
                           scratch.monitor_spectrum, scratch.music);
  // Gaussian smoothing (degrees) of the pseudospectrum before it is
  // inverted into Eq. 17 weights. Roughly the 3-antenna array's angular
  // resolution; keeps the weights stable under the +-1 grid-point peak
  // jitter of finite-sample MUSIC.
  constexpr double kSpectrumSmoothingDeg = 6.0;
  SmoothSpectrumInto(scratch.monitor_spectrum, kSpectrumSmoothingDeg,
                     static_spectrum_, scratch.music.smoothing_kernel);
  ComputePathWeightsInto(static_spectrum_, config_.path_weighting,
                         path_weights_);
  if (config_.scheme == DetectionScheme::kSubcarrierAndPathWeighting) {
    BuildSubcarrierCovarianceStack(retained, num_antennas_, num_subcarriers_,
                                   profile_stack_);
  }
}

double Detector::BaselineDistance(const double* slab,
                                  std::uint32_t live_mask) const {
  // |h|^2 = re*re + im*im, CsiPacket::SubcarrierPower's bits.
  const double* const im = slab + num_antennas_ * num_subcarriers_;
  double packet_score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      const std::size_t c = m * num_subcarriers_ + k;
      const double amp = std::sqrt(slab[c] * slab[c] + im[c] * im[c]);
      const double diff =
          (amp - profile_amplitude_[c]) / profile_scale_amplitude_;
      sum_sq += diff * diff;
    }
    packet_score += std::sqrt(sum_sq);
  }
  return packet_score;
}

double Detector::ScoreBaseline(const PreparedWindowFactors& factors,
                               std::uint32_t live_mask) const {
  // The paper's baseline is the naive per-packet Euclidean distance of CSI
  // amplitudes against the profile (the prior-work recipe its evaluation
  // compares against). Averaging the *distances* rather than the CSI keeps
  // the per-packet noise floor inside the statistic — which is exactly why
  // this baseline loses weak/faraway targets. The statistic is a
  // per-antenna average, so restricting it to the live rows of a degraded
  // window preserves its scale (and the calibrated threshold). A full-mask
  // window folds the slots' prepared distances; a degraded one walks the
  // live rows of the slabs.
  const std::uint32_t full = FullAntennaMask();
  const bool full_mask = (live_mask & full) == full;
  const std::size_t live =
      static_cast<std::size_t>(std::popcount(live_mask & full));
  const std::size_t packets = factors.csi_slabs.size();
  double score = 0.0;
  for (std::size_t i = 0; i < packets; ++i) {
    const double packet_score =
        full_mask ? factors.stats[i]
                  : BaselineDistance(factors.csi_slabs[i], live_mask);
    score += packet_score / static_cast<double>(live);
  }
  return score / static_cast<double>(packets);
}

void Detector::ComputeCellStats(const PreparedWindowFactors& factors,
                                DetectorScratch& scratch, bool spread) const {
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  const std::span<double> plane =
      FillPowerPlane(factors.csi_slabs, num_antennas_, num_subcarriers_,
                     scratch.power_plane);
  const std::size_t rows = plane.size() / cells;
  auto& center = scratch.cell_center;
  auto& spread_out = scratch.cell_spread;
  if (center.size() < cells || spread_out.size() < cells) {
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    center.resize(cells);
    // mulink-lint: allow(alloc): grow-only; a shared scratch is pre-warmed
    spread_out.resize(cells);
  }
  if (config_.robust_window_aggregate) {
    // Medians (and MADs) of every cell's column in one batched kernel.
    kernels::ColumnMedians(plane.data(), rows, cells, cells, center.data(),
                           spread ? spread_out.data() : nullptr);
    return;
  }
  // dsp::Mean / dsp::Variance per cell: each cell accumulates its column in
  // window order, so the values are theirs bit for bit.
  const double n = static_cast<double>(rows);
  std::fill_n(center.begin(), cells, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* const row = plane.data() + r * cells;
    for (std::size_t c = 0; c < cells; ++c) center[c] += row[c];
  }
  for (std::size_t c = 0; c < cells; ++c) center[c] /= n;
  if (!spread) return;
  std::fill_n(spread_out.begin(), cells, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* const row = plane.data() + r * cells;
    for (std::size_t c = 0; c < cells; ++c) {
      const double d = row[c] - center[c];
      spread_out[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < cells; ++c) spread_out[c] /= n;
}

double Detector::ScoreSubcarrierWeighting(const PreparedWindowFactors& factors,
                                          DetectorScratch& scratch,
                                          std::uint32_t live_mask) const {
  ComputeWindowWeights(factors, scratch);
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  ComputeCellStats(factors, scratch, /*spread=*/false);
  const auto& weights = scratch.weights;
  const double* const window_power = scratch.cell_center.data();

  // Uniform weight reference so weighting redistributes emphasis without
  // changing the overall score scale (weights sum to <= 1 by construction).
  const double uniform = 1.0 / static_cast<double>(num_subcarriers_);

  // Dead rows contribute zero mu to the antenna-averaged factors, which
  // scales every mu_bar_k by the same constant — Eq. 15 normalizes it away,
  // so the weights are unaffected. Only the power distance below must skip
  // the dead rows (a silent chain reads as a full-profile deviation).
  const std::size_t live = static_cast<std::size_t>(
      std::popcount(live_mask & FullAntennaMask()));
  double score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      // Eq. 12's linear power difference, normalized by the profile's mean
      // power so one global threshold works across links. (A dB-domain
      // difference was evaluated and rejected: the log expands the noise of
      // deep-fade subcarriers — exactly the ones Eq. 15 up-weights.)
      const std::size_t c = m * num_subcarriers_ + k;
      const double delta_s =
          (window_power[c] - profile_power_[c]) / profile_scale_power_;
      const double weighted = (weights.weights[k] / uniform) * delta_s;
      sum_sq += weighted * weighted;
    }
    score += std::sqrt(sum_sq);
  }
  return score / static_cast<double>(live);
}

double Detector::ScoreVarianceMobile(const PreparedWindowFactors& factors,
                                     DetectorScratch& scratch,
                                     std::uint32_t live_mask) const {
  MULINK_REQUIRE(factors.csi_slabs.size() >= 2,
                 "Detector: variance statistic needs >= 2 packets");
  ComputeWindowWeights(factors, scratch);
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  ComputeCellStats(factors, scratch, /*spread=*/true);
  const auto& weights = scratch.weights;
  const double* const spread = scratch.cell_spread.data();
  const double uniform = 1.0 / static_cast<double>(num_subcarriers_);

  const std::size_t live = static_cast<std::size_t>(
      std::popcount(live_mask & FullAntennaMask()));
  double score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      // EXCESS temporal spread over the empty-room floor (walkers, noise
      // and interference already vibrate the channel; only spread beyond
      // that is evidence of a moving person). The robust aggregate swaps the
      // variance for a MAD-based estimate that one interference burst cannot
      // inflate; both are normalized like Delta_s so one global threshold
      // works across links.
      const std::size_t c = m * num_subcarriers_ + k;
      double window_variance;
      if (config_.robust_window_aggregate) {
        const double robust_sigma = 1.4826 * spread[c];
        window_variance = robust_sigma * robust_sigma;
      } else {
        window_variance = spread[c];
      }
      const double excess =
          std::max(0.0, window_variance - profile_variance_[c]);
      const double sigma = std::sqrt(excess) / profile_scale_power_;
      const double weighted = (weights.weights[k] / uniform) * sigma;
      sum_sq += weighted * weighted;
    }
    score += std::sqrt(sum_sq);
  }
  return score / static_cast<double>(live);
}

double Detector::ScoreCombined(const PreparedWindowFactors& factors,
                               DetectorScratch& scratch) const {
  MULINK_REQUIRE(num_antennas_ >= 2,
                 "Detector: combined scheme needs >= 2 antennas");
  ComputeWindowWeights(factors, scratch);
  const auto& weights = scratch.weights;

  // Same monitoring-stage subcarrier weights applied to both sides — valid
  // because the Bartlett angular spectrum is linear in per-subcarrier
  // strength (the "linear properties" argument of Sec. IV-C) — then the
  // Eq. 17 path weights from the calibration-stage MUSIC spectrum.
  auto& monitor_cov = scratch.monitor_cov;
  auto& profile_cov = scratch.profile_cov;
  {
    MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kMusicPathWeighting);
    SampleCovarianceSlabsInto(factors.csi_slabs, num_antennas_,
                              num_subcarriers_, weights.weights, monitor_cov,
                              scratch.music);
    // The profile side is a *fixed* packet set scored against per-window
    // weights: its per-subcarrier covariance stack is built with the
    // profile, so each window only re-combines it.
    MULINK_OBS_COUNT(scratch.metrics, kProfileStackHits);
    CombineSubcarrierCovariances(profile_stack_, weights.weights, profile_cov);
    if (config_.noise_floor_subtraction) {
      // Spatially-white components (AWGN, receiver-local interference) add
      // lambda_min * I to the covariance; removing it keeps the angular
      // statistic about propagation paths only. Only lambda_min is needed,
      // so the closed-form smallest-eigenvalue path skips the full Jacobi
      // diagonalization the MUSIC calibration stage still uses.
      for (auto* cov : {&monitor_cov, &profile_cov}) {
        const double floor =
            std::max(linalg::SmallestHermitianEigenvalue(*cov), 0.0);
        for (std::size_t i = 0; i < cov->rows(); ++i) {
          cov->At(i, i) -= Complex(floor, 0.0);
        }
      }
    }
    // Both Bartlett scans share one pass over the steering table.
    ComputeBartlettSpectraInto(monitor_cov, profile_cov, array_, band_,
                               config_.music, scratch.monitor_spectrum,
                               scratch.profile_spectrum, scratch.music);

    ApplyPathWeightsInto(path_weights_, scratch.monitor_spectrum,
                         scratch.weighted_monitor);
    ApplyPathWeightsInto(path_weights_, scratch.profile_spectrum,
                         scratch.weighted_profile);
  }
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  const auto& weighted_monitor = scratch.weighted_monitor;
  const auto& weighted_profile = scratch.weighted_profile;

  // Euclidean distance of the weighted spectra, normalized by the weighted
  // profile so one global threshold works across links of different length.
  const double norm_profile = std::sqrt(
      kernels::SumSquares(weighted_profile.data(), weighted_profile.size()));
  MULINK_ASSERT_MSG(norm_profile > 0.0,
                    "combined score: weighted profile spectrum is all zero");
  return std::sqrt(kernels::NormalizedDistanceSq(
      weighted_monitor.data(), weighted_profile.data(), norm_profile,
      weighted_monitor.size()));
}

}  // namespace mulink::core
