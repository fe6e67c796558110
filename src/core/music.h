// MUSIC angle-of-arrival estimation (Schmidt '86; paper Sec. IV-B1).
//
// Snapshots are the per-subcarrier antenna vectors of each CSI packet (the
// standard trick for bandwidth-limited WiFi: 30 subcarriers x M packets
// snapshots for a 3x3 covariance). The paper deliberately uses *plain*
// MUSIC rather than spatially smoothed MUSIC: smoothing would halve the
// effective aperture and a 3-antenna array could then resolve only one path.
#pragma once

#include <span>
#include <vector>

#include "kernels/aligned.h"
#include "linalg/cmatrix.h"
#include "linalg/hermitian_eig.h"
#include "wifi/array.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

struct MusicConfig {
  double theta_min_deg = -90.0;
  double theta_max_deg = 90.0;
  std::size_t num_points = 181;
  // Assumed signal-subspace dimension; must be < number of antennas.
  std::size_t num_sources = 2;
};

struct Pseudospectrum {
  std::vector<double> theta_deg;
  std::vector<double> power;

  // Angles of the strongest local maxima, strongest first.
  std::vector<double> PeakAngles(std::size_t max_peaks = 0) const;

  // Value at the grid point nearest to the given angle.
  double ValueAt(double angle_deg) const;

  // Scale so that the L2 norm of `power` is 1 (for scale-free comparison).
  Pseudospectrum Normalized() const;

  // Gaussian smoothing along the angle axis (sigma in degrees). MUSIC peaks
  // from a high-SNR covariance are razor sharp, so a +-1 grid-point peak
  // jitter between two spectra produces huge pointwise ratios; smoothing to
  // roughly the array's angular resolution makes spectrum comparison stable.
  Pseudospectrum Smoothed(double sigma_deg) const;
};

// Scratch variant of Pseudospectrum::Smoothed: writes the smoothed copy of
// `in` into `out` (which must not alias `in`), keeping the Gaussian taps in
// `kernel`. Allocation-free once `out` and `kernel` are warm; bit-identical
// to in.Smoothed(sigma_deg).
void SmoothSpectrumInto(const Pseudospectrum& in, double sigma_deg,
                        Pseudospectrum& out, std::vector<double>& kernel);

// Reusable scratch for the covariance/spectrum hot path. Besides plain
// buffers it caches the steering-vector table for a fixed
// (array, band, MusicConfig) grid — the table is invalidated and rebuilt
// whenever any of those fingerprint fields change. The buffers are the
// split-complex SoA planes the kernel layer (src/kernels, DESIGN.md §14)
// consumes: 64-byte aligned, grown once during warm-up, zero hot-path
// allocations afterwards.
struct MusicWorkspace {
  linalg::EigWorkspace eig_ws;
  linalg::EigenSystem eig;

  // Split-complex window planes for the covariance kernel: plane m holds
  // packets.size() * num_subcarriers lanes of antenna m, packet-major;
  // w_rep is the per-lane subcarrier weight (replicated across packets,
  // zero-clipped).
  kernels::AlignedBuffer plane_re;
  kernels::AlignedBuffer plane_im;
  kernels::AlignedBuffer w_rep;

  // Packed Hermitian covariances (kernels::PackHermitian layout) for the
  // batched Bartlett scan, and split noise-eigenvector planes for MUSIC.
  kernels::AlignedBuffer packed_a;
  kernels::AlignedBuffer packed_b;
  kernels::AlignedBuffer noise_re;
  kernels::AlignedBuffer noise_im;

  // Cached steering table: row i holds a(theta_i) for grid point i, plus the
  // split SoA mirror (plane m = steer_re/im[m * points ..]) and the grid
  // angles, all rebuilt together when the fingerprint below goes stale.
  std::vector<Complex> steering_table;
  kernels::AlignedBuffer steer_re;
  kernels::AlignedBuffer steer_im;
  std::vector<double> theta_grid_deg;
  std::size_t table_points = 0;
  std::size_t table_antennas = 0;
  double table_theta_min_deg = 0.0;
  double table_theta_max_deg = 0.0;
  double table_freq_hz = 0.0;
  double table_spacing_m = 0.0;
  double table_axis_rad = 0.0;

  // Gaussian taps for SmoothSpectrumInto.
  std::vector<double> smoothing_kernel;
};

// Sample covariance across antennas, accumulated over all packets and
// subcarriers, optionally weighting subcarrier k's contribution by
// weights[k] (the subcarrier-weighted variant of Sec. IV-C).
linalg::CMatrix SampleCovariance(const std::vector<wifi::CsiPacket>& packets,
                                 const std::vector<double>& weights = {});

// Scratch variant over split packets: slab p points at packet p's
// split-complex block — antenna-major re rows then im rows, each
// num_antennas * num_subcarriers doubles, exactly the bytes
// kernels::Deinterleave produces from the packet's CSI. Callers that score
// overlapping windows (SensingEngine) split each packet once at ingest and
// assemble the window by memcpy here, instead of re-deinterleaving every
// packet on every hop. Accumulates into `out` (resized to antennas x
// antennas) with zero heap traffic after warm-up; bit-identical to
// SampleCovariance on the packets the slabs were split from.
void SampleCovarianceSlabsInto(std::span<const double* const> slabs,
                               std::size_t num_antennas,
                               std::size_t num_subcarriers,
                               std::span<const double> weights,
                               linalg::CMatrix& out, MusicWorkspace& ws);

// Per-subcarrier covariance stack: block k holds the *unweighted* sum over
// packets of the antenna outer product x_k x_k^H. Because the weighted
// sample covariance is linear in the per-subcarrier terms, a caller that
// scores many windows against a fixed packet set (the combined scheme's
// retained calibration profile) can build the stack once and re-combine it
// with each window's subcarrier weights in O(K * A^2), instead of
// re-scanning all packets every window.
struct SubcarrierCovarianceStack {
  std::size_t num_antennas = 0;
  std::size_t num_subcarriers = 0;
  std::size_t num_packets = 0;
  // num_subcarriers blocks of num_antennas^2 row-major entries.
  std::vector<Complex> data;

  const Complex* Block(std::size_t k) const {
    return data.data() + k * num_antennas * num_antennas;
  }
};

// Build the stack from split packets (SampleCovarianceSlabsInto's slabs)
// into `out`, reusing its capacity; deterministic, so rebuilding from the
// same slabs reproduces the stack bit-for-bit.
void BuildSubcarrierCovarianceStack(std::span<const double* const> slabs,
                                    std::size_t num_antennas,
                                    std::size_t num_subcarriers,
                                    SubcarrierCovarianceStack& out);

// out = (sum_k w_k C_k) / (num_packets * sum_k w_k) over subcarriers with
// w_k > 0 — the weighted sample covariance of the stacked packets. Pass an
// empty weights span for uniform weighting.
void CombineSubcarrierCovariances(const SubcarrierCovarianceStack& stack,
                                  std::span<const double> weights,
                                  linalg::CMatrix& out);

// MUSIC pseudospectrum P(theta) = 1 / (a^H E_n E_n^H a) from a covariance.
Pseudospectrum ComputeMusicSpectrum(const linalg::CMatrix& covariance,
                                    const wifi::UniformLinearArray& array,
                                    const wifi::BandPlan& band,
                                    const MusicConfig& config = {});

// Scratch variant of the above writing into `out`.
void ComputeMusicSpectrumInto(const linalg::CMatrix& covariance,
                              const wifi::UniformLinearArray& array,
                              const wifi::BandPlan& band,
                              const MusicConfig& config, Pseudospectrum& out,
                              MusicWorkspace& ws);

// Conventional (Bartlett) beamformer spectrum B(theta) = a^H R a.
//
// Unlike MUSIC it is *linear* in the covariance — and hence in per-
// subcarrier signal strength — which is the property Sec. IV-C leans on to
// weight monitoring and calibration sides independently before subtracting.
// The detector uses it for the monitoring-stage angular comparison; MUSIC
// remains the calibration-stage tool for AoA and the Eq. 17 path weights.
Pseudospectrum ComputeBartlettSpectrum(const linalg::CMatrix& covariance,
                                       const wifi::UniformLinearArray& array,
                                       const wifi::BandPlan& band,
                                       const MusicConfig& config = {});

// Scratch variant of the above writing into `out`.
void ComputeBartlettSpectrumInto(const linalg::CMatrix& covariance,
                                 const wifi::UniformLinearArray& array,
                                 const wifi::BandPlan& band,
                                 const MusicConfig& config, Pseudospectrum& out,
                                 MusicWorkspace& ws);

// Batched pair variant: both covariances are scanned in one pass over the
// cached steering table, so the per-grid-point steering loads amortize
// across the monitor/profile pair the combined scheme evaluates every
// window. Each output is bit-identical to the single-covariance scratch
// variant above.
void ComputeBartlettSpectraInto(const linalg::CMatrix& covariance_a,
                                const linalg::CMatrix& covariance_b,
                                const wifi::UniformLinearArray& array,
                                const wifi::BandPlan& band,
                                const MusicConfig& config, Pseudospectrum& out_a,
                                Pseudospectrum& out_b, MusicWorkspace& ws);

// Bartlett spectrum straight from packets (optionally subcarrier-weighted).
Pseudospectrum ComputeBartlettSpectrum(
    const std::vector<wifi::CsiPacket>& packets,
    const wifi::UniformLinearArray& array, const wifi::BandPlan& band,
    const MusicConfig& config = {}, const std::vector<double>& weights = {});

// Convenience: covariance + spectrum in one call.
Pseudospectrum ComputeMusicSpectrum(const std::vector<wifi::CsiPacket>& packets,
                                    const wifi::UniformLinearArray& array,
                                    const wifi::BandPlan& band,
                                    const MusicConfig& config = {},
                                    const std::vector<double>& weights = {});

// Eq. 16: incident angle from the inter-antenna phase shift at
// half-wavelength spacing, theta = arcsin(delta_phi / pi). Exposed for the
// two-antenna sanity checks and tests.
double AngleFromPhaseShift(double delta_phi_rad);

// Estimate the angle of a NEW path (e.g. a person's reflection) by
// subtracting the calibration-time covariance from the monitoring-window
// covariance and running MUSIC on the (PSD-shifted) residual — the angle
// estimator behind Fig. 10's error study.
double EstimateNewPathAngleDeg(const std::vector<wifi::CsiPacket>& window,
                               const linalg::CMatrix& static_covariance,
                               const wifi::UniformLinearArray& array,
                               const wifi::BandPlan& band);

// Forward-backward spatially smoothed covariance (Shan/Wax/Kailath; the
// smoothed MUSIC of ArrayTrack [17] and Wi-Vi [24] the paper discusses in
// Sec. IV-B1). Averages all length-L subarray covariances of an M-antenna
// ULA covariance, plus the conjugate-reversed ("backward") copies, restoring
// rank for fully correlated (coherent multipath) sources at the cost of the
// effective aperture: the result is L x L, resolving at most L-1 sources.
//
// This is exactly why the paper sticks with plain MUSIC on 3 antennas: L = 2
// leaves room for only ONE path, and it needs at least two (LOS + bounce).
linalg::CMatrix SpatiallySmoothedCovariance(const linalg::CMatrix& covariance,
                                            std::size_t subarray_size);

// Smoothed-MUSIC pseudospectrum: smooth the covariance, then run MUSIC with
// a subarray-sized steering vector (same element spacing as `array`).
// Requires config.num_sources < subarray_size.
Pseudospectrum ComputeSmoothedMusicSpectrum(
    const std::vector<wifi::CsiPacket>& packets,
    const wifi::UniformLinearArray& array, const wifi::BandPlan& band,
    std::size_t subarray_size, const MusicConfig& config = {});

}  // namespace mulink::core
