// Independent reference for the calibration stage and its refreshes.
//
// Detector::Calibrate keeps its static profile as flat antenna-major planes
// and its retained calibration set as one block of split CSI rows, and
// RefreshAngularProfile rescales and rotates that block in place. The
// reference below is the packet form the stage was first written in: it
// sanitizes the session into CsiPackets with SanitizePhase, sums each
// (antenna, subcarrier) cell over the packets, keeps an even subsample of
// the packets, rescales the retained packets' CSI cell by cell
// (Complex *= double) and re-interleaves staged rows over the oldest, and
// builds the combined scheme's covariance stack from packets. The
// detector's profile planes, retained rows, profile stack and static
// pseudospectrum must match it bit for bit after Calibrate and after every
// one of a run of ApplyProfile + RefreshAngularProfile calls whose rotation
// cursor wraps the retained set — for every scheme, on every kernel
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

// The detector state under test, in the flat forms compared below (one
// function each, so the reference also builds against the earlier
// packet-form accessors it was first checked on).
std::vector<double> PowerPlane(const core::Detector& d) {
  return d.profile_power();
}
std::vector<double> AmplitudePlane(const core::Detector& d) {
  return d.profile_amplitude();
}
std::vector<double> VariancePlane(const core::Detector& d) {
  return d.profile_variance();
}
std::vector<double> RetainedRows(const core::Detector& d) {
  return d.retained_rows();
}

// Packets as consecutive split CSI rows (antenna-major re rows, then im
// rows): kernels::Deinterleave's bytes.
std::vector<double> SplitRows(std::span<const wifi::CsiPacket> packets) {
  std::vector<double> rows;
  for (const auto& packet : packets) {
    const std::size_t cells = packet.csi.rows() * packet.csi.cols();
    const std::size_t at = rows.size();
    rows.resize(at + 2 * cells);
    kernels::Deinterleave(packet.csi.raw(), cells, rows.data() + at,
                          rows.data() + at + cells);
  }
  return rows;
}

std::vector<double> Flatten(const std::vector<std::vector<double>>& plane) {
  std::vector<double> flat;
  for (const auto& row : plane) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

// The packet-form calibration state.
struct PacketCalibration {
  std::size_t antennas = 0;
  std::size_t subcarriers = 0;
  std::vector<std::vector<double>> power, amplitude, variance;  // [m][k]
  std::vector<wifi::CsiPacket> retained;
  std::size_t rotation = 0;
};

PacketCalibration ReferenceCalibrate(
    const std::vector<wifi::CsiPacket>& session, const wifi::BandPlan& band) {
  const auto sanitized = core::SanitizePhase(session, band);
  PacketCalibration ref;
  ref.antennas = sanitized[0].NumAntennas();
  ref.subcarriers = sanitized[0].NumSubcarriers();
  const std::size_t a = ref.antennas, k_max = ref.subcarriers;
  ref.power.assign(a, std::vector<double>(k_max, 0.0));
  ref.amplitude.assign(a, std::vector<double>(k_max, 0.0));
  for (const auto& packet : sanitized) {
    for (std::size_t m = 0; m < a; ++m) {
      for (std::size_t k = 0; k < k_max; ++k) {
        const double p = packet.SubcarrierPower(m, k);
        ref.power[m][k] += p;
        ref.amplitude[m][k] += std::sqrt(p);
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(sanitized.size());
  for (std::size_t m = 0; m < a; ++m) {
    for (std::size_t k = 0; k < k_max; ++k) {
      ref.power[m][k] *= inv_n;
      ref.amplitude[m][k] *= inv_n;
    }
  }
  ref.variance.assign(a, std::vector<double>(k_max, 0.0));
  for (const auto& packet : sanitized) {
    for (std::size_t m = 0; m < a; ++m) {
      for (std::size_t k = 0; k < k_max; ++k) {
        const double diff = packet.SubcarrierPower(m, k) - ref.power[m][k];
        ref.variance[m][k] += diff * diff;
      }
    }
  }
  for (std::size_t m = 0; m < a; ++m) {
    for (std::size_t k = 0; k < k_max; ++k) ref.variance[m][k] *= inv_n;
  }
  const std::size_t keep = std::min<std::size_t>(128, sanitized.size());
  for (std::size_t i = 0; i < keep; ++i) {
    ref.retained.push_back(sanitized[i * sanitized.size() / keep]);
  }
  return ref;
}

void ReferenceApplyProfile(PacketCalibration& ref,
                           std::span<const double> power,
                           std::span<const double> amplitude,
                           std::span<const double> variance) {
  for (std::size_t m = 0; m < ref.antennas; ++m) {
    for (std::size_t k = 0; k < ref.subcarriers; ++k) {
      const std::size_t idx = m * ref.subcarriers + k;
      ref.power[m][k] = power[idx];
      ref.amplitude[m][k] = amplitude[idx];
      ref.variance[m][k] = variance[idx];
    }
  }
}

void ReferenceRefresh(PacketCalibration& ref, std::span<const double> staged) {
  const std::size_t cells = ref.antennas * ref.subcarriers;
  for (std::size_t m = 0; m < ref.antennas; ++m) {
    for (std::size_t k = 0; k < ref.subcarriers; ++k) {
      double stale_amp = 0.0;
      for (const auto& packet : ref.retained) {
        stale_amp += std::sqrt(packet.SubcarrierPower(m, k));
      }
      stale_amp /= static_cast<double>(ref.retained.size());
      const double target = ref.amplitude[m][k];
      if (stale_amp <= 0.0 || target <= 0.0) continue;
      const double scale = target / stale_amp;
      for (auto& packet : ref.retained) packet.csi.At(m, k) *= scale;
    }
  }
  const std::size_t rotate =
      std::min(staged.size() / (2 * cells), ref.retained.size());
  for (std::size_t i = 0; i < rotate; ++i) {
    Complex* const h =
        ref.retained[ref.rotation % ref.retained.size()].csi.raw();
    const double* const re = staged.data() + i * 2 * cells;
    const double* const im = re + cells;
    for (std::size_t c = 0; c < cells; ++c) h[c] = Complex(re[c], im[c]);
    ++ref.rotation;
  }
}

// The combined scheme's profile stack, summed from packets.
core::SubcarrierCovarianceStack ReferenceStack(
    const std::vector<wifi::CsiPacket>& packets) {
  core::SubcarrierCovarianceStack out;
  const std::size_t a = packets[0].NumAntennas();
  const std::size_t k_max = packets[0].NumSubcarriers();
  out.num_antennas = a;
  out.num_subcarriers = k_max;
  out.num_packets = packets.size();
  out.data.assign(k_max * a * a, Complex(0.0, 0.0));
  for (const auto& packet : packets) {
    const Complex* csi = packet.csi.raw();
    for (std::size_t k = 0; k < k_max; ++k) {
      Complex* block = out.data.data() + k * a * a;
      for (std::size_t i = 0; i < a; ++i) {
        const Complex xi = csi[i * k_max + k];
        for (std::size_t j = 0; j < a; ++j) {
          block[i * a + j] += xi * std::conj(csi[j * k_max + k]);
        }
      }
    }
  }
  return out;
}

void ExpectMatches(const core::Detector& detector, const PacketCalibration& ref,
                   const nic::ChannelSimulator& sim, const std::string& label) {
  EXPECT_EQ(PowerPlane(detector), Flatten(ref.power)) << label;
  EXPECT_EQ(AmplitudePlane(detector), Flatten(ref.amplitude)) << label;
  EXPECT_EQ(VariancePlane(detector), Flatten(ref.variance)) << label;
  EXPECT_EQ(RetainedRows(detector), SplitRows(ref.retained)) << label;

  // The static pseudospectrum the Eq. 17 path weights come from.
  const core::Pseudospectrum music = core::ComputeMusicSpectrum(
      core::SampleCovariance(ref.retained), sim.array(), sim.band(),
      detector.config().music);
  EXPECT_EQ(detector.static_spectrum().power, music.Smoothed(6.0).power)
      << label;

  const auto& stack = detector.profile_stack();
  if (detector.config().scheme ==
      core::DetectionScheme::kSubcarrierAndPathWeighting) {
    const auto expected = ReferenceStack(ref.retained);
    EXPECT_EQ(stack.num_antennas, expected.num_antennas) << label;
    EXPECT_EQ(stack.num_subcarriers, expected.num_subcarriers) << label;
    EXPECT_EQ(stack.num_packets, expected.num_packets) << label;
    EXPECT_TRUE(stack.data == expected.data) << label;
  } else {
    EXPECT_TRUE(stack.data.empty()) << label;
  }
}

// The per-cell mean power, mean amplitude and power variance of sanitized
// packets, flat antenna-major: the profile ApplyProfile installs.
struct FlatProfile {
  std::vector<double> power, amplitude, variance;
};

FlatProfile MeanProfile(const std::vector<wifi::CsiPacket>& sanitized) {
  const double n = static_cast<double>(sanitized.size());
  FlatProfile profile;
  for (std::size_t m = 0; m < sanitized[0].NumAntennas(); ++m) {
    for (std::size_t k = 0; k < sanitized[0].NumSubcarriers(); ++k) {
      double power = 0.0, amplitude = 0.0, square = 0.0;
      for (const auto& packet : sanitized) {
        const double p = packet.SubcarrierPower(m, k);
        power += p;
        amplitude += std::sqrt(p);
        square += p * p;
      }
      profile.power.push_back(power / n);
      profile.amplitude.push_back(amplitude / n);
      profile.variance.push_back(square / n - (power / n) * (power / n));
    }
  }
  return profile;
}

TEST(CalibrationReference, FlatProfileAndRetainedRowsMatchPacketForm) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(2626);
  const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
  // Six refreshes of 40 staged packets each: 240 rotations, so the cursor
  // wraps past the 128 retained rows. Each batch is taken at its own gain
  // (a ramp, as drift brings), so every refresh rescales the retained rows.
  constexpr std::size_t kRefreshes = 6;
  constexpr std::size_t kStaged = 40;
  auto drift = sim.CaptureSession(kRefreshes * kStaged, std::nullopt, rng);
  for (std::size_t i = 0; i < drift.size(); ++i) {
    const double gain = 1.0 + 0.05 * static_cast<double>(i / kStaged + 1);
    auto& csi = drift[i].csi;
    for (std::size_t m = 0; m < csi.rows(); ++m) {
      for (std::size_t k = 0; k < csi.cols(); ++k) csi.At(m, k) *= gain;
    }
  }

  for (const auto backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::BackendAvailable(backend)) continue;
    kernels::SetBackend(backend);
    for (const auto scheme :
         {core::DetectionScheme::kBaseline,
          core::DetectionScheme::kSubcarrierWeighting,
          core::DetectionScheme::kSubcarrierAndPathWeighting,
          core::DetectionScheme::kVarianceMobile}) {
      const std::string label = std::string(kernels::ToString(backend)) +
                                " " + core::ToString(scheme);
      core::DetectorConfig config;
      config.scheme = scheme;
      auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                                sim.array(), config);
      auto ref = ReferenceCalibrate(calibration, sim.band());
      ASSERT_EQ(ref.retained.size(), 128u);
      ExpectMatches(detector, ref, sim, label + " after Calibrate");

      core::DetectorScratch scratch;
      for (std::size_t r = 0; r < kRefreshes; ++r) {
        const auto first =
            drift.begin() + static_cast<std::ptrdiff_t>(r * kStaged);
        const auto staged = core::SanitizePhase(
            std::vector<wifi::CsiPacket>(
                first, first + static_cast<std::ptrdiff_t>(kStaged)),
            sim.band());
        const FlatProfile profile = MeanProfile(staged);
        const auto rows = SplitRows(staged);
        detector.ApplyProfile(profile.power, profile.amplitude,
                              profile.variance);
        detector.RefreshAngularProfile(rows, scratch);
        ReferenceApplyProfile(ref, profile.power, profile.amplitude,
                              profile.variance);
        ReferenceRefresh(ref, rows);
        ExpectMatches(detector, ref, sim,
                      label + " after refresh " + std::to_string(r + 1));
      }
      EXPECT_GT(ref.rotation, ref.retained.size()) << label;
    }
  }
  kernels::ResetBackend();
}

}  // namespace
