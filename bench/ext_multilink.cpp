// Extension — one adapted link vs a bundle of naive links.
//
// The paper's introduction frames its contribution against prior art that
// covers a space by densely deploying links, each only sensitive on its LOS.
// This bench plays that comparison out in one room: a single
// multipath-adapted link (subcarrier + path weighting) against one / two
// naive baseline links, measured over a coverage grid spanning the room.
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "core/detector.h"
#include "experiments/format.h"
#include "experiments/scenario.h"
#include "experiments/workload.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

struct LinkRig {
  std::unique_ptr<nic::ChannelSimulator> sim;
  std::optional<core::Detector> detector;
};

LinkRig MakeRig(const ex::LinkCase& lc, core::DetectionScheme scheme,
                Rng& rng) {
  LinkRig rig;
  rig.sim = std::make_unique<nic::ChannelSimulator>(ex::MakeSimulator(lc));
  core::DetectorConfig config;
  config.scheme = scheme;
  rig.detector = core::Detector::Calibrate(
      rig.sim->CaptureSession(400, std::nullopt, rng), rig.sim->band(),
      rig.sim->array(), config);
  std::vector<std::vector<wifi::CsiPacket>> empties;
  for (int i = 0; i < 12; ++i) {
    empties.push_back(rig.sim->CaptureSession(25, std::nullopt, rng));
  }
  rig.detector->CalibrateThreshold(empties);
  return rig;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = ex::SmokeMode(argc, argv);
  (void)smoke;
  ex::PrintBanner(std::cout,
                  "Extension — single adapted link vs naive link bundles");

  // Room A with three candidate links.
  const auto base = ex::MakePaperCases()[0];  // room A geometry + walkers
  ex::LinkCase link_a = base;                 // 5 m link along the north side
  ex::LinkCase link_b = base;
  link_b.tx = {3.5, 1.0};
  link_b.rx = {3.5, 7.8};  // vertical crossing link
  link_b.name = "crossing-link";

  Rng rng(61);
  auto adapted =
      MakeRig(link_a, core::DetectionScheme::kSubcarrierAndPathWeighting, rng);
  auto naive_a = MakeRig(link_a, core::DetectionScheme::kBaseline, rng);
  auto naive_b = MakeRig(link_b, core::DetectionScheme::kBaseline, rng);

  // The two-link bundle fuses with an any-vote: it alarms when either naive
  // link crosses its own threshold.

  // Coverage grid across the whole room.
  int grid_total = 0;
  int adapted_hits = 0, naive_one_hits = 0, bundle_hits = 0;
  for (double x = 1.0; x <= 6.0; x += 1.0) {
    for (double y = 1.0; y <= 8.0; y += 1.4) {
      propagation::HumanBody body;
      body.position = {x, y};
      ++grid_total;
      if (adapted.detector->Detect(
              adapted.sim->CaptureSession(25, body, rng))) {
        ++adapted_hits;
      }
      const auto window_a = naive_a.sim->CaptureSession(25, body, rng);
      const auto window_b = naive_b.sim->CaptureSession(25, body, rng);
      const bool alarm_a = naive_a.detector->Detect(window_a);
      if (alarm_a) ++naive_one_hits;
      if (alarm_a || naive_b.detector->Detect(window_b)) ++bundle_hits;
    }
  }

  // Idle false alarms per rig over fresh empty windows.
  int adapted_fa = 0, naive_one_fa = 0, bundle_fa = 0;
  const int idle_windows = 40;
  for (int i = 0; i < idle_windows; ++i) {
    if (adapted.detector->Detect(
            adapted.sim->CaptureSession(25, std::nullopt, rng))) {
      ++adapted_fa;
    }
    const auto window_a = naive_a.sim->CaptureSession(25, std::nullopt, rng);
    const auto window_b = naive_b.sim->CaptureSession(25, std::nullopt, rng);
    const bool alarm_a = naive_a.detector->Detect(window_a);
    if (alarm_a) ++naive_one_fa;
    if (alarm_a || naive_b.detector->Detect(window_b)) ++bundle_fa;
  }

  const auto pct = [](int n, int d) {
    return ex::Fmt(100.0 * n / d, 1);
  };
  ex::PrintTable(
      std::cout, "room-wide coverage and idle false alarms",
      {"deployment", "grid coverage %", "idle FA %"},
      {{"1 naive baseline link", pct(naive_one_hits, grid_total),
        pct(naive_one_fa, idle_windows)},
       {"2 naive links (any-fusion)", pct(bundle_hits, grid_total),
        pct(bundle_fa, idle_windows)},
       {"1 adapted link (subcarrier+path)", pct(adapted_hits, grid_total),
        pct(adapted_fa, idle_windows)}});
  std::cout << "The paper's pitch: adaptation makes ONE link cover what "
               "naive deployments need\nseveral links for — and any-fusion "
               "of naive links sums their false alarms.\n";
  return 0;
}
