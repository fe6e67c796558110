#include "core/music.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/assert.h"
#include "dsp/peaks.h"
#include "kernels/kernels.h"
#include "linalg/hermitian_eig.h"

namespace mulink::core {

std::vector<double> Pseudospectrum::PeakAngles(std::size_t max_peaks) const {
  dsp::PeakOptions options;
  options.max_peaks = max_peaks;
  // MUSIC peak heights span decades (1 / noise-subspace projection), so a
  // secondary path's peak can sit orders of magnitude below the primary's;
  // keep only a permissive floor to reject grid ripple.
  options.min_relative_height = 1e-6;
  options.min_relative_prominence = 1e-6;
  const auto peaks = dsp::FindPeaks(power, options);
  std::vector<double> angles;
  // mulink-lint: allow(alloc): AoA analysis API, off the decision path
  angles.reserve(peaks.size());
  // mulink-lint: allow(alloc): AoA analysis API, off the decision path
  for (const auto& p : peaks) angles.push_back(theta_deg[p.index]);
  return angles;
}

double Pseudospectrum::ValueAt(double angle_deg) const {
  MULINK_REQUIRE(!theta_deg.empty(), "Pseudospectrum::ValueAt: empty spectrum");
  std::size_t best = 0;
  double best_dist = std::abs(theta_deg[0] - angle_deg);
  for (std::size_t i = 1; i < theta_deg.size(); ++i) {
    const double d = std::abs(theta_deg[i] - angle_deg);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return power[best];
}

Pseudospectrum Pseudospectrum::Normalized() const {
  double norm_sq = 0.0;
  for (double v : power) norm_sq += v * v;
  Pseudospectrum out = *this;
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& v : out.power) v *= inv;
  }
  return out;
}

Pseudospectrum Pseudospectrum::Smoothed(double sigma_deg) const {
  Pseudospectrum out;
  std::vector<double> kernel;
  SmoothSpectrumInto(*this, sigma_deg, out, kernel);
  return out;
}

void SmoothSpectrumInto(const Pseudospectrum& in, double sigma_deg,
                        Pseudospectrum& out, std::vector<double>& kernel) {
  MULINK_REQUIRE(sigma_deg > 0.0, "Smoothed: sigma must be > 0");
  MULINK_REQUIRE(in.theta_deg.size() >= 2, "Smoothed: need >= 2 grid points");
  MULINK_REQUIRE(&in != &out, "Smoothed: output must not alias the input");
  const double step = in.theta_deg[1] - in.theta_deg[0];
  const double sigma_pts = sigma_deg / step;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma_pts)));

  // mulink-lint: allow(alloc): warm kernel taps; fixed by the grid and sigma
  kernel.resize(static_cast<std::size_t>(2 * radius + 1));
  double kernel_sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i / sigma_pts) * (i / sigma_pts));
    kernel[static_cast<std::size_t>(i + radius)] = v;
    kernel_sum += v;
  }
  for (auto& v : kernel) v /= kernel_sum;

  out.theta_deg = in.theta_deg;  // copy-assign reuses out's capacity
  // mulink-lint: allow(alloc): warm spectrum output
  out.power.resize(in.power.size());
  const int n = static_cast<int>(in.power.size());
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = -radius; j <= radius; ++j) {
      const int idx = std::clamp(i + j, 0, n - 1);  // replicate edges
      acc += kernel[static_cast<std::size_t>(j + radius)] *
             in.power[static_cast<std::size_t>(idx)];
    }
    out.power[static_cast<std::size_t>(i)] = acc;
  }
}

linalg::CMatrix SampleCovariance(const std::vector<wifi::CsiPacket>& packets,
                                 const std::vector<double>& weights) {
  MULINK_REQUIRE(!packets.empty(), "SampleCovariance: need >= 1 packet");
  const std::size_t num_ant = packets[0].NumAntennas();
  const std::size_t num_sc = packets[0].NumSubcarriers();
  const std::size_t cells = num_ant * num_sc;
  // Split each packet once (kernels::Deinterleave's bytes) and take the slab
  // form.
  // mulink-lint: allow(alloc): convenience wrapper, not a scoring path
  std::vector<double> rows(packets.size() * 2 * cells);
  // mulink-lint: allow(alloc): convenience wrapper, not a scoring path
  std::vector<const double*> slabs(packets.size());
  for (std::size_t p = 0; p < packets.size(); ++p) {
    MULINK_REQUIRE(packets[p].NumAntennas() == num_ant &&
                       packets[p].NumSubcarriers() == num_sc,
                   "SampleCovariance: inconsistent packet dimensions");
    double* const re = rows.data() + p * 2 * cells;
    kernels::Deinterleave(packets[p].csi.raw(), cells, re, re + cells);
    slabs[p] = re;
  }
  linalg::CMatrix r;
  MusicWorkspace ws;
  SampleCovarianceSlabsInto(slabs, num_ant, num_sc, weights, r, ws);
  return r;
}

void SampleCovarianceSlabsInto(std::span<const double* const> slabs,
                               std::size_t num_antennas,
                               std::size_t num_subcarriers,
                               std::span<const double> weights,
                               linalg::CMatrix& out, MusicWorkspace& ws) {
  const std::size_t num_pk = slabs.size();
  MULINK_REQUIRE(num_pk > 0, "SampleCovariance: need >= 1 packet");
  MULINK_REQUIRE(num_antennas >= 2, "SampleCovariance: need >= 2 antennas");
  MULINK_REQUIRE(weights.empty() || weights.size() == num_subcarriers,
                 "SampleCovariance: weights size mismatch");
  const std::size_t n = num_pk * num_subcarriers;
  ws.plane_re.Ensure(num_antennas * n);
  ws.plane_im.Ensure(num_antennas * n);
  ws.w_rep.Ensure(n);
  // Assemble the planes (plane m = antenna m, packet-major, n lanes) by
  // memcpy from the per-packet slabs.
  const std::size_t row_bytes = num_subcarriers * sizeof(double);
  for (std::size_t p = 0; p < num_pk; ++p) {
    const double* slab = slabs[p];
    for (std::size_t m = 0; m < num_antennas; ++m) {
      std::memcpy(ws.plane_re.data() + m * n + p * num_subcarriers,
                  slab + m * num_subcarriers, row_bytes);
      std::memcpy(ws.plane_im.data() + m * n + p * num_subcarriers,
                  slab + (num_antennas + m) * num_subcarriers, row_bytes);
    }
  }
  // Replicate the clipped weights across every packet's lanes, run the
  // covariance kernel and normalize by the total weight. Subcarriers with
  // w <= 0 stay in the planes with weight 0 — an exact multiply-by-zero
  // no-op that keeps the lanes dense for SIMD.
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < num_subcarriers; ++k) {
    const double w = weights.empty() ? 1.0 : weights[k];
    const double clipped = w > 0.0 ? w : 0.0;
    ws.w_rep[k] = clipped;
    weight_sum += clipped;
  }
  for (std::size_t p = 1; p < num_pk; ++p) {
    std::memcpy(ws.w_rep.data() + p * num_subcarriers, ws.w_rep.data(),
                row_bytes);
  }
  MULINK_REQUIRE(weight_sum > 0.0, "SampleCovariance: all weights are zero");
  out.Resize(num_antennas, num_antennas);
  kernels::WeightedCovariance(ws.plane_re.data(), ws.plane_im.data(),
                              num_antennas, n, ws.w_rep.data(), out.raw());
  const double total_weight = weight_sum * static_cast<double>(num_pk);
  out *= Complex(1.0 / total_weight, 0.0);
}

void BuildSubcarrierCovarianceStack(std::span<const double* const> slabs,
                                    std::size_t num_antennas,
                                    std::size_t num_subcarriers,
                                    SubcarrierCovarianceStack& out) {
  MULINK_REQUIRE(!slabs.empty(), "SubcarrierCovarianceStack: need >= 1 packet");
  MULINK_REQUIRE(num_antennas >= 2,
                 "SubcarrierCovarianceStack: need >= 2 antennas");
  const std::size_t num_ant = num_antennas;
  const std::size_t num_sc = num_subcarriers;
  const std::size_t cells = num_ant * num_sc;
  out.num_antennas = num_ant;
  out.num_subcarriers = num_sc;
  out.num_packets = slabs.size();
  // Reuses out.data's capacity, so a profile refresh that rebuilds a
  // detector's stack at the same shape allocates nothing.
  // mulink-lint: allow(alloc): grows only on the first build of a shape
  out.data.assign(num_sc * num_ant * num_ant, Complex(0.0, 0.0));
  for (const double* const re : slabs) {
    const double* const im = re + cells;
    for (std::size_t k = 0; k < num_sc; ++k) {
      Complex* block = out.data.data() + k * num_ant * num_ant;
      for (std::size_t i = 0; i < num_ant; ++i) {
        const Complex xi(re[i * num_sc + k], im[i * num_sc + k]);
        for (std::size_t j = 0; j < num_ant; ++j) {
          block[i * num_ant + j] +=
              xi * std::conj(Complex(re[j * num_sc + k], im[j * num_sc + k]));
        }
      }
    }
  }
}

void CombineSubcarrierCovariances(const SubcarrierCovarianceStack& stack,
                                  std::span<const double> weights,
                                  linalg::CMatrix& out) {
  MULINK_REQUIRE(stack.num_packets > 0,
                 "CombineSubcarrierCovariances: empty stack");
  MULINK_REQUIRE(weights.empty() || weights.size() == stack.num_subcarriers,
                 "CombineSubcarrierCovariances: weights size mismatch");
  const std::size_t num_ant = stack.num_antennas;
  out.Resize(num_ant, num_ant);
  Complex* r = out.raw();
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < stack.num_subcarriers; ++k) {
    const double w = weights.empty() ? 1.0 : weights[k];
    if (w <= 0.0) continue;
    const Complex* block = stack.Block(k);
    for (std::size_t e = 0; e < num_ant * num_ant; ++e) {
      r[e] += w * block[e];
    }
    weight_sum += w;
  }
  MULINK_REQUIRE(weight_sum > 0.0,
                 "CombineSubcarrierCovariances: all weights are zero");
  const double total = weight_sum * static_cast<double>(stack.num_packets);
  out *= Complex(1.0 / total, 0.0);
}

namespace {

// Lazily (re)build the steering-vector table for the spectrum grid. The
// cached values are produced by the same SteeringVector math as the
// allocating path, so spectra computed from the table are bit-identical.
const Complex* EnsureSteeringTable(const wifi::UniformLinearArray& array,
                                   const wifi::BandPlan& band,
                                   const MusicConfig& config,
                                   MusicWorkspace& ws) {
  const std::size_t num_ant = array.num_antennas();
  const double freq = band.center_hz();
  const bool stale =
      ws.table_points != config.num_points || ws.table_antennas != num_ant ||
      ws.table_theta_min_deg != config.theta_min_deg ||
      ws.table_theta_max_deg != config.theta_max_deg ||
      ws.table_freq_hz != freq || ws.table_spacing_m != array.spacing_m() ||
      ws.table_axis_rad != array.axis_angle_rad();
  if (stale) {
    // mulink-lint: allow(alloc): steering table rebuild, cached until geometry changes
    ws.steering_table.resize(config.num_points * num_ant);
    // mulink-lint: allow(alloc): steering table rebuild, cached until geometry changes
    ws.theta_grid_deg.resize(config.num_points);
    for (std::size_t i = 0; i < config.num_points; ++i) {
      const double frac = static_cast<double>(i) /
                          static_cast<double>(config.num_points - 1);
      const double theta_deg =
          config.theta_min_deg +
          frac * (config.theta_max_deg - config.theta_min_deg);
      ws.theta_grid_deg[i] = theta_deg;
      array.SteeringVectorInto(
          DegToRad(theta_deg), freq,
          std::span<Complex>(ws.steering_table.data() + i * num_ant, num_ant));
    }
    // Mirror the table into split SoA planes (plane m = antenna m, grid
    // point contiguous) for the scan kernels.
    ws.steer_re.Ensure(config.num_points * num_ant);
    ws.steer_im.Ensure(config.num_points * num_ant);
    for (std::size_t i = 0; i < config.num_points; ++i) {
      for (std::size_t m = 0; m < num_ant; ++m) {
        const Complex a = ws.steering_table[i * num_ant + m];
        ws.steer_re[m * config.num_points + i] = a.real();
        ws.steer_im[m * config.num_points + i] = a.imag();
      }
    }
    ws.table_points = config.num_points;
    ws.table_antennas = num_ant;
    ws.table_theta_min_deg = config.theta_min_deg;
    ws.table_theta_max_deg = config.theta_max_deg;
    ws.table_freq_hz = freq;
    ws.table_spacing_m = array.spacing_m();
    ws.table_axis_rad = array.axis_angle_rad();
  }
  return ws.steering_table.data();
}

}  // namespace

Pseudospectrum ComputeMusicSpectrum(const linalg::CMatrix& covariance,
                                    const wifi::UniformLinearArray& array,
                                    const wifi::BandPlan& band,
                                    const MusicConfig& config) {
  Pseudospectrum spectrum;
  MusicWorkspace ws;
  ComputeMusicSpectrumInto(covariance, array, band, config, spectrum, ws);
  return spectrum;
}

void ComputeMusicSpectrumInto(const linalg::CMatrix& covariance,
                              const wifi::UniformLinearArray& array,
                              const wifi::BandPlan& band,
                              const MusicConfig& config, Pseudospectrum& out,
                              MusicWorkspace& ws) {
  const std::size_t num_ant = array.num_antennas();
  MULINK_REQUIRE(covariance.rows() == num_ant && covariance.cols() == num_ant,
                 "ComputeMusicSpectrum: covariance/array size mismatch");
  MULINK_REQUIRE(config.num_sources >= 1 && config.num_sources < num_ant,
                 "ComputeMusicSpectrum: num_sources must be in [1, antennas)");
  MULINK_REQUIRE(config.num_points >= 3,
                 "ComputeMusicSpectrum: need >= 3 grid points");
  MULINK_REQUIRE(config.theta_max_deg > config.theta_min_deg,
                 "ComputeMusicSpectrum: empty angle range");

  linalg::HermitianEigen(covariance, ws.eig, ws.eig_ws);
  // Noise subspace: eigenvectors of the smallest (num_ant - num_sources)
  // eigenvalues (HermitianEigen sorts ascending).
  const std::size_t noise_dim = num_ant - config.num_sources;
  EnsureSteeringTable(array, band, config, ws);
  const Complex* vectors = ws.eig.vectors.raw();

  // Split the noise eigenvectors into SoA planes (vector e at offset
  // e * num_ant) and hand the ||E_n^H a||^2 scan to the kernel — the same
  // per-point accumulation order as the historical loop, so spectra are
  // unchanged bit-for-bit.
  ws.noise_re.Ensure(noise_dim * num_ant);
  ws.noise_im.Ensure(noise_dim * num_ant);
  for (std::size_t e = 0; e < noise_dim; ++e) {
    for (std::size_t m = 0; m < num_ant; ++m) {
      const Complex v = vectors[m * num_ant + e];
      ws.noise_re[e * num_ant + m] = v.real();
      ws.noise_im[e * num_ant + m] = v.imag();
    }
  }
  // mulink-lint: allow(alloc): warm spectrum output
  out.theta_deg.resize(config.num_points);
  // mulink-lint: allow(alloc): warm spectrum output
  out.power.resize(config.num_points);
  std::memcpy(out.theta_deg.data(), ws.theta_grid_deg.data(),
              config.num_points * sizeof(double));
  kernels::MusicScan(ws.steer_re.data(), ws.steer_im.data(), config.num_points,
                     num_ant, ws.noise_re.data(), ws.noise_im.data(), noise_dim,
                     1e-12, out.power.data());
}

Pseudospectrum ComputeBartlettSpectrum(const linalg::CMatrix& covariance,
                                       const wifi::UniformLinearArray& array,
                                       const wifi::BandPlan& band,
                                       const MusicConfig& config) {
  Pseudospectrum spectrum;
  MusicWorkspace ws;
  ComputeBartlettSpectrumInto(covariance, array, band, config, spectrum, ws);
  return spectrum;
}

namespace {

// Shared tail of the Bartlett scans: pack covariances, run the kernel over
// the cached steering planes, copy the cached grid angles out.
void BartlettScanInto(std::span<const linalg::CMatrix* const> covariances,
                      std::span<Pseudospectrum* const> outs,
                      const wifi::UniformLinearArray& array,
                      const wifi::BandPlan& band, const MusicConfig& config,
                      MusicWorkspace& ws) {
  const std::size_t num_ant = array.num_antennas();
  MULINK_REQUIRE(config.num_points >= 3,
                 "ComputeBartlettSpectrum: need >= 3 grid points");
  MULINK_REQUIRE(config.theta_max_deg > config.theta_min_deg,
                 "ComputeBartlettSpectrum: empty angle range");
  for (const linalg::CMatrix* covariance : covariances) {
    MULINK_REQUIRE(
        covariance->rows() == num_ant && covariance->cols() == num_ant,
        "ComputeBartlettSpectrum: covariance/array size mismatch");
  }
  EnsureSteeringTable(array, band, config, ws);

  const std::size_t packed_size = kernels::PackedHermitianSize(num_ant);
  kernels::AlignedBuffer* const packed_bufs[2] = {&ws.packed_a, &ws.packed_b};
  const double* packed[2] = {nullptr, nullptr};
  double* powers[2] = {nullptr, nullptr};
  MULINK_ASSERT(covariances.size() <= 2);
  for (std::size_t c = 0; c < covariances.size(); ++c) {
    packed_bufs[c]->Ensure(packed_size);
    kernels::PackHermitian(covariances[c]->raw(), num_ant,
                           packed_bufs[c]->data());
    packed[c] = packed_bufs[c]->data();
    Pseudospectrum& out = *outs[c];
    // mulink-lint: allow(alloc): warm spectrum output
    out.theta_deg.resize(config.num_points);
    // mulink-lint: allow(alloc): warm spectrum output
    out.power.resize(config.num_points);
    std::memcpy(out.theta_deg.data(), ws.theta_grid_deg.data(),
                config.num_points * sizeof(double));
    powers[c] = out.power.data();
  }
  const double inv_norm = 1.0 / static_cast<double>(num_ant * num_ant);
  kernels::BartlettScan(ws.steer_re.data(), ws.steer_im.data(),
                        config.num_points, num_ant, packed, covariances.size(),
                        inv_norm, powers);
}

}  // namespace

void ComputeBartlettSpectrumInto(const linalg::CMatrix& covariance,
                                 const wifi::UniformLinearArray& array,
                                 const wifi::BandPlan& band,
                                 const MusicConfig& config, Pseudospectrum& out,
                                 MusicWorkspace& ws) {
  const linalg::CMatrix* const covariances[1] = {&covariance};
  Pseudospectrum* const outs[1] = {&out};
  BartlettScanInto(covariances, outs, array, band, config, ws);
}

void ComputeBartlettSpectraInto(const linalg::CMatrix& covariance_a,
                                const linalg::CMatrix& covariance_b,
                                const wifi::UniformLinearArray& array,
                                const wifi::BandPlan& band,
                                const MusicConfig& config,
                                Pseudospectrum& out_a, Pseudospectrum& out_b,
                                MusicWorkspace& ws) {
  const linalg::CMatrix* const covariances[2] = {&covariance_a, &covariance_b};
  Pseudospectrum* const outs[2] = {&out_a, &out_b};
  BartlettScanInto(covariances, outs, array, band, config, ws);
}

Pseudospectrum ComputeBartlettSpectrum(
    const std::vector<wifi::CsiPacket>& packets,
    const wifi::UniformLinearArray& array, const wifi::BandPlan& band,
    const MusicConfig& config, const std::vector<double>& weights) {
  return ComputeBartlettSpectrum(SampleCovariance(packets, weights), array,
                                 band, config);
}

Pseudospectrum ComputeMusicSpectrum(const std::vector<wifi::CsiPacket>& packets,
                                    const wifi::UniformLinearArray& array,
                                    const wifi::BandPlan& band,
                                    const MusicConfig& config,
                                    const std::vector<double>& weights) {
  return ComputeMusicSpectrum(SampleCovariance(packets, weights), array, band,
                              config);
}

double AngleFromPhaseShift(double delta_phi_rad) {
  const double ratio = std::clamp(delta_phi_rad / kPi, -1.0, 1.0);
  return std::asin(ratio);
}

double EstimateNewPathAngleDeg(const std::vector<wifi::CsiPacket>& window,
                               const linalg::CMatrix& static_covariance,
                               const wifi::UniformLinearArray& array,
                               const wifi::BandPlan& band) {
  const auto monitor_cov = SampleCovariance(window);
  MULINK_REQUIRE(static_covariance.rows() == monitor_cov.rows(),
                 "EstimateNewPathAngleDeg: covariance size mismatch");
  auto diff = monitor_cov - static_covariance;
  // The difference of two PSD matrices may be indefinite; shift by the
  // smallest eigenvalue so MUSIC sees a PSD matrix.
  const auto eig = linalg::HermitianEigen(diff);
  const double lambda_min = std::min(eig.values.front(), 0.0);
  for (std::size_t i = 0; i < diff.rows(); ++i) {
    diff.At(i, i) -= Complex(lambda_min, 0.0);
  }
  MusicConfig config;
  config.num_sources = 1;
  const auto spectrum = ComputeMusicSpectrum(diff, array, band, config);
  const auto peaks = spectrum.PeakAngles(1);
  return peaks.empty() ? 0.0 : peaks[0];
}

linalg::CMatrix SpatiallySmoothedCovariance(const linalg::CMatrix& covariance,
                                            std::size_t subarray_size) {
  const std::size_t m = covariance.rows();
  MULINK_REQUIRE(covariance.cols() == m,
                 "SpatiallySmoothedCovariance: covariance must be square");
  MULINK_REQUIRE(subarray_size >= 2 && subarray_size <= m,
                 "SpatiallySmoothedCovariance: subarray size must be in "
                 "[2, antennas]");
  const std::size_t num_subarrays = m - subarray_size + 1;

  // Forward smoothing: average the principal L x L blocks.
  linalg::CMatrix forward(subarray_size, subarray_size);
  for (std::size_t s = 0; s < num_subarrays; ++s) {
    for (std::size_t i = 0; i < subarray_size; ++i) {
      for (std::size_t j = 0; j < subarray_size; ++j) {
        forward.At(i, j) += covariance.At(s + i, s + j);
      }
    }
  }
  forward *= Complex(1.0 / static_cast<double>(num_subarrays), 0.0);

  // Backward smoothing: J * conj(R_f) * J (exchange-conjugate), averaged in.
  linalg::CMatrix smoothed(subarray_size, subarray_size);
  for (std::size_t i = 0; i < subarray_size; ++i) {
    for (std::size_t j = 0; j < subarray_size; ++j) {
      const Complex backward = std::conj(
          forward.At(subarray_size - 1 - i, subarray_size - 1 - j));
      smoothed.At(i, j) = 0.5 * (forward.At(i, j) + backward);
    }
  }
  return smoothed;
}

Pseudospectrum ComputeSmoothedMusicSpectrum(
    const std::vector<wifi::CsiPacket>& packets,
    const wifi::UniformLinearArray& array, const wifi::BandPlan& band,
    std::size_t subarray_size, const MusicConfig& config) {
  MULINK_REQUIRE(config.num_sources < subarray_size,
                 "ComputeSmoothedMusicSpectrum: num_sources must be < "
                 "subarray size");
  const auto full = SampleCovariance(packets);
  const auto smoothed = SpatiallySmoothedCovariance(full, subarray_size);
  const wifi::UniformLinearArray subarray(subarray_size, array.spacing_m(),
                                          array.axis_angle_rad());
  return ComputeMusicSpectrum(smoothed, subarray, band, config);
}

}  // namespace mulink::core
