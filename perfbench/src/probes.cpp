#include "probes.h"

#include <algorithm>
#include <cmath>

#include "alloc_counter.h"
#include "kernels/kernels.h"
#include "nic/frame_guard.h"

namespace perfbench {

namespace {

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Per-call ns of `call`, timed in batches of `per_batch` calls (the clock
// read costs as much as the smallest kernels).
template <typename Fn>
std::vector<double> TimeBatches(std::size_t batches, std::size_t per_batch,
                                Fn&& call) {
  std::vector<double> ns;
  ns.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) call(b * per_batch + i);
    ns.push_back(NsBetween(t0, Clock::now()) / static_cast<double>(per_batch));
  }
  return ns;
}

bool Finite(const wifi::CsiPacket& p) {
  const Complex* c = p.csi.raw();
  for (std::size_t i = 0; i < p.csi.rows() * p.csi.cols(); ++i) {
    if (!std::isfinite(c[i].real()) || !std::isfinite(c[i].imag())) {
      return false;
    }
  }
  return true;
}

// Windows of `window` frames from pool 0, stride window/2, skipping any
// that hold a corrupted (non-finite) frame.
std::vector<std::span<const wifi::CsiPacket>> PoolWindows(const Workload& w) {
  const auto& frames = w.pools[0].frames;
  const std::size_t window = w.serve.stream.window_packets;
  std::vector<std::span<const wifi::CsiPacket>> out;
  for (std::size_t s = 0; s + window <= frames.size(); s += window / 2) {
    const std::span<const wifi::CsiPacket> span(frames.data() + s, window);
    if (std::all_of(span.begin(), span.end(), Finite)) out.push_back(span);
  }
  return out;
}

volatile double g_sink = 0.0;

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Timing Median(const std::vector<double>& values) {
  return Timing{Quantile(values, 0.5), values.size()};
}

EngineProbe RunEngineProbe(Workload& w,
                           const std::vector<CalibratedProfile>& profiles,
                           std::size_t timed_passes, Tracer& tracer) {
  EngineProbe out;
  core::SensingEngine engine;
  engine.UseSharedScratch();
  std::vector<std::size_t> slot(w.links);
  {
    ScopedSpan span(tracer, "core.engine.setup");
    for (std::size_t l = 0; l < w.links; ++l) {
      slot[l] = AddLinkLikeServe(engine, w, profiles,
                                 w.classes[w.link_class[l]].profile);
    }
    for (std::size_t pass = 0; pass < w.warm_passes; ++pass) {
      ForEachDueLink(w, pass, [&](std::size_t l, std::size_t i) {
        engine.ProcessPacket(slot[l], StreamFrame(w, w.link_class[l], i));
      });
    }
  }
  out.before = engine.AggregateMetrics();
  double ingest_ns = 0.0, decide_ns = 0.0;
  const std::uint64_t allocs0 = AllocCount();
  {
    ScopedSpan span(tracer, "core.engine.process_packet");
    const auto begin = Clock::now();
    for (std::size_t k = 0; k < timed_passes; ++k) {
      ForEachDueLink(w, w.warm_passes + k, [&](std::size_t l, std::size_t i) {
        const auto& frame = StreamFrame(w, w.link_class[l], i);
        const auto t0 = Clock::now();
        const bool decided = engine.ProcessPacket(slot[l], frame).has_value();
        const double ns = NsBetween(t0, Clock::now());
        ++out.frames;
        if (decided) {
          decide_ns += ns;
          ++out.decisions;
        } else {
          ingest_ns += ns;
        }
      });
    }
    out.total_ns = NsBetween(begin, Clock::now());
  }
  out.allocs = AllocCount() - allocs0;
  out.after = engine.AggregateMetrics();
  const std::uint64_t ingests = out.frames - out.decisions;
  out.ingest_ns = {ingests ? ingest_ns / static_cast<double>(ingests) : 0.0,
                   ingests};
  out.decide_ns = {
      out.decisions ? decide_ns / static_cast<double>(out.decisions) : 0.0,
      out.decisions};
  return out;
}

std::array<Timing, 3> RunScoreProbe(const Workload& w, Tracer& tracer) {
  const core::DetectionScheme schemes[] = {
      core::DetectionScheme::kSubcarrierAndPathWeighting,
      core::DetectionScheme::kSubcarrierWeighting,
      core::DetectionScheme::kVarianceMobile};
  const RoomData& room = w.rooms[0];
  const auto windows = PoolWindows(w);
  std::array<Timing, 3> out;
  for (std::size_t s = 0; s < 3; ++s) {
    core::DetectorConfig config;
    config.scheme = schemes[s];
    config.window_packets = w.serve.stream.window_packets;
    const auto detector = core::Detector::Calibrate(
        room.calibration, room.band, room.array, config);
    core::DetectorScratch scratch;
    ScopedSpan span(tracer, "core.detector.score");
    for (int i = 0; i < 3; ++i) g_sink = detector.Score(windows[0], scratch);
    std::vector<double> ns;
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (const auto& window : windows) {
        const auto t0 = Clock::now();
        g_sink = detector.Score(window, scratch);
        ns.push_back(NsBetween(t0, Clock::now()));
      }
    }
    out[s] = Median(ns);
  }
  return out;
}

Timing RunGuardProbe(Workload& w, Tracer& tracer) {
  ScopedSpan span(tracer, "nic.frame_guard.inspect");
  nic::FrameGuard guard(w.serve.stream.guard);
  constexpr std::size_t kPerBatch = 64;
  const auto ns = TimeBatches(64, kPerBatch, [&](std::size_t i) {
    g_sink = guard.Inspect(StreamFrame(w, 0, i)).resync ? 1.0 : 0.0;
  });
  Timing t = Median(ns);
  t.samples *= kPerBatch;
  return t;
}

KernelProbe RunKernelProbe(const Workload& w, Tracer& tracer) {
  ScopedSpan span(tracer, "kernels.probe");
  const auto windows = PoolWindows(w);
  const auto window = windows[0];
  const std::size_t A = window[0].NumAntennas();
  const std::size_t n = window[0].NumSubcarriers();
  const std::size_t W = window.size();
  const std::size_t points = 181;

  std::vector<double> y(W * n), x(W * n), out(n), re(A * n), im(A * n),
      accum(n), los(n, 0.5);
  std::vector<double> plane_re(A * W * n), plane_im(A * W * n),
      w_rep(W * n, 1.0);
  std::vector<Complex> cov(A * A);
  std::vector<double> steer_re(A * points), steer_im(A * points);
  std::vector<double> packed_a(kernels::PackedHermitianSize(A)),
      packed_b(kernels::PackedHermitianSize(A));
  std::vector<double> scan_a(points), scan_b(points);

  // Workload-shaped inputs: the window's split planes, its covariance, and
  // the room's steering table.
  for (std::size_t p = 0; p < W; ++p) {
    for (std::size_t m = 0; m < A; ++m) {
      kernels::Deinterleave(window[p].csi.raw() + m * n, n,
                            plane_re.data() + m * W * n + p * n,
                            plane_im.data() + m * W * n + p * n);
    }
  }
  kernels::WeightedCovariance(plane_re.data(), plane_im.data(), A, W * n,
                              w_rep.data(), cov.data());
  kernels::PackHermitian(cov.data(), A, packed_a.data());
  kernels::PackHermitian(cov.data(), A, packed_b.data());
  std::vector<Complex> a(A);
  for (std::size_t i = 0; i < points; ++i) {
    const double theta = (-90.0 + static_cast<double>(i)) * M_PI / 180.0;
    w.rooms[0].array.SteeringVectorInto(theta, w.rooms[0].band.center_hz(),
                                        std::span<Complex>(a));
    for (std::size_t m = 0; m < A; ++m) {
      steer_re[m * points + i] = a[m].real();
      steer_im[m * points + i] = a[m].imag();
    }
  }
  const double* packed[2] = {packed_a.data(), packed_b.data()};
  double* scans[2] = {scan_a.data(), scan_b.data()};

  const auto frame = [&](std::size_t i) -> const wifi::CsiPacket& {
    return window[i % W];
  };
  constexpr std::size_t kBatches = 40, kPerBatch = 256;
  KernelProbe probe;
  // Sanitize's input to Atan2: the antenna-summed CSI of each packet.
  for (std::size_t p = 0; p < W; ++p) {
    const Complex* c = window[p].csi.raw();
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t m = 0; m < A; ++m) {
        x[p * n + k] += c[m * n + k].real();
        y[p * n + k] += c[m * n + k].imag();
      }
    }
  }
  probe.ns[0] = Median(TimeBatches(kBatches, kPerBatch, [&](std::size_t i) {
    const std::size_t p = i % W;
    kernels::Atan2(y.data() + p * n, x.data() + p * n, n, out.data());
  }));
  probe.bytes[0] = 3.0 * static_cast<double>(n) * 8.0;  // y, x in; out
  probe.ns[1] = Median(TimeBatches(kBatches, kPerBatch, [&](std::size_t i) {
    const Complex* c = frame(i).csi.raw();
    for (std::size_t m = 0; m < A; ++m) {
      kernels::Deinterleave(c + m * n, n, re.data() + m * n, im.data() + m * n);
    }
  }));
  probe.bytes[1] = 32.0 * static_cast<double>(A * n);
  probe.ns[2] = Median(TimeBatches(kBatches, kPerBatch, [&](std::size_t i) {
    kernels::MuAccumulateRow(frame(i).csi.raw(), los.data(), 1.0, n,
                             accum.data());
  }));
  probe.bytes[2] = 40.0 * static_cast<double>(n);
  probe.ns[3] = Median(TimeBatches(kBatches, kPerBatch / 8, [&](std::size_t) {
    kernels::WeightedCovariance(plane_re.data(), plane_im.data(), A, W * n,
                                w_rep.data(), cov.data());
  }));
  probe.bytes[3] = 8.0 * static_cast<double>(2 * A * W * n + W * n) +
                   16.0 * static_cast<double>(A * A);
  probe.ns[4] = Median(TimeBatches(kBatches, kPerBatch / 8, [&](std::size_t) {
    kernels::BartlettScan(steer_re.data(), steer_im.data(), points, A, packed,
                          2, 1.0 / static_cast<double>(A * A), scans);
  }));
  probe.bytes[4] =
      8.0 * static_cast<double>(2 * A * points + 2 * A * A + 2 * points);
  probe.ns[0].samples *= kPerBatch;
  probe.ns[1].samples *= kPerBatch;
  probe.ns[2].samples *= kPerBatch;
  probe.ns[3].samples *= kPerBatch / 8;
  probe.ns[4].samples *= kPerBatch / 8;
  g_sink = out[0] + re[0] + accum[0] + cov[0].real() + scan_a[0];
  return probe;
}

}  // namespace perfbench
