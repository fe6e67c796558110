#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "experiments/scenario.h"
#include "experiments/workload.h"
#include "nic/channel_simulator.h"

namespace perfbench {

namespace ex = mulink::experiments;

namespace {

// A pool alternates vacant and occupied episodes of 3 s (150 frames at
// 50 pkt/s, six 25-packet windows); the nine occupied episodes visit the
// nine Sec. V-A grid spots in order, as the paper's campaign does.
constexpr std::size_t kEpisodeFrames = 150;
constexpr std::size_t kEpisodes = 18;
constexpr std::size_t kPoolFrames = kEpisodes * kEpisodeFrames;
constexpr std::size_t kCalibrationFrames = 400;
constexpr std::size_t kThresholdWindows = 16;
constexpr double kPacketRateHz = 50.0;
constexpr auto kCombined = core::DetectionScheme::kSubcarrierAndPathWeighting;

// Timed-phase sizes for the closed-loop workloads, in passes (one frame to
// every link) per second of --seconds: fixed work, so decision counts and
// accuracy are a function of the seed alone. Sized so one timed phase takes
// about --seconds on a busy 4-vCPU Xeon host with 2 shard workers (about
// two thirds of it when the host is quiet).
constexpr double kHop1PassesPerSecond = 11.0;
constexpr double kAdaptivePassesPerSecond = 60.0;

// Empty calibration session, then held-out empty windows (the campaign
// runner's order), captured on `sim`.
RoomData MakeRoom(nic::ChannelSimulator& sim, std::size_t window, Rng& rng) {
  RoomData room{sim.band(), sim.array(), {}, {}};
  room.calibration = sim.CaptureSession(kCalibrationFrames, std::nullopt, rng);
  for (std::size_t i = 0; i < kThresholdWindows; ++i) {
    room.empty_windows.push_back(
        sim.CaptureSession(window, std::nullopt, rng));
  }
  return room;
}

// Alternating vacant/occupied episodes (vacant first) captured on `sim`.
Pool MakePool(const ex::LinkCase& lc, nic::ChannelSimulator& sim, Rng& rng) {
  const std::size_t episodes = kEpisodes;
  const auto grid = ex::Grid3x3(lc);
  Pool pool;
  pool.episodes = static_cast<std::uint32_t>(episodes);
  pool.span = episodes * kEpisodeFrames;
  std::uint64_t first_sequence = 0;
  for (std::size_t e = 0; e < episodes; ++e) {
    const bool occupied = e % 2 == 1;
    std::optional<propagation::HumanBody> human;
    if (occupied) {
      propagation::HumanBody body;
      body.position = grid[(e / 2) % grid.size()].position;
      human = body;
    }
    auto session = sim.CaptureSession(kEpisodeFrames, human, rng);
    if (e == 0) {  // reorder faults may swap the first two frames
      first_sequence = std::min_element(session.begin(), session.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.sequence < b.sequence;
                                        })
                           ->sequence;
    }
    for (auto& packet : session) {
      pool.rel_seq.push_back(packet.sequence - first_sequence);
      pool.occupied.push_back(occupied ? 1 : 0);
      pool.episode.push_back(static_cast<std::uint32_t>(e));
      pool.frames.push_back(std::move(packet));
    }
  }
  return pool;
}

std::uint32_t ClassOf(Workload& w, const StreamClass& key) {
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    const StreamClass& k = w.classes[c];
    if (k.profile == key.profile && k.pool == key.pool &&
        k.offset == key.offset) {
      return static_cast<std::uint32_t>(c);
    }
  }
  w.classes.push_back(key);
  return static_cast<std::uint32_t>(w.classes.size() - 1);
}

std::size_t Passes(double per_second, double seconds) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

// Three of Fig. 6's links, spanning both furnished offices.
std::vector<ex::LinkCase> PaperRooms() {
  auto cases = ex::MakePaperCases();
  return {cases[0], cases[2], cases[3]};
}

// One room's generated inputs.
struct RoomInputs {
  RoomData room;
  std::vector<Pool> pools;
};

// Generates every room on its own thread (generation precedes all timing).
// Each room draws from an RNG forked in room order before the threads
// start, so the inputs do not depend on scheduling.
template <typename Fn>
void GenerateRooms(Workload& w, const std::vector<ex::LinkCase>& rooms,
                   Rng& rng, Fn generate) {
  std::vector<Rng> rngs;
  for (std::size_t r = 0; r < rooms.size(); ++r) rngs.push_back(rng.Fork());
  std::vector<std::optional<RoomInputs>> out(rooms.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < rooms.size(); ++r) {
      threads.emplace_back(
          [&, r] { out[r].emplace(generate(rooms[r], rngs[r])); });
    }
  }
  for (auto& inputs : out) {
    w.rooms.push_back(std::move(inputs->room));
    for (auto& pool : inputs->pools) w.pools.push_back(std::move(pool));
  }
}

void MakeCadence(Workload& w, Rng& rng, double seconds, bool smoke) {
  w.open_loop = true;
  w.links = smoke ? 150 : 1024;
  w.serve.stream.guard_enabled = true;
  const std::size_t window = w.serve.stream.window_packets;
  const auto rooms = PaperRooms();
  GenerateRooms(w, rooms, rng, [&](const ex::LinkCase& lc, Rng& room_rng) {
    auto sim = ex::MakeSimulator(lc);
    RoomData room = MakeRoom(sim, window, room_rng);
    return RoomInputs{std::move(room), {MakePool(lc, sim, room_rng)}};
  });
  for (std::size_t r = 0; r < rooms.size(); ++r) {
    w.profiles.push_back(ProfileSpec{r, kCombined, false});
  }
  for (std::size_t l = 0; l < w.links; ++l) {
    const auto r = static_cast<std::uint32_t>(l % 3);
    const std::size_t offset = ((l / 3) % 4) * (kPoolFrames / 4);
    w.link_class.push_back(ClassOf(w, StreamClass{r, r, offset}));
    w.join.push_back(static_cast<std::uint32_t>(l % window));
  }
  w.warm_passes = (window - 1) + 2 * window + 1;
  w.timed_passes = Passes(1.0 / w.tick_period_s, seconds);
}

void MakeHop1(Workload& w, Rng& rng, double seconds, bool smoke) {
  w.open_loop = false;
  w.links = smoke ? 256 : 8192;
  w.serve.stream.hop_packets = 1;
  w.serve.stream.use_hmm = false;
  const std::size_t window = w.serve.stream.window_packets;
  const auto room = PaperRooms()[1];  // case 3: the strong-LOS link
  Rng room_rng = rng.Fork();
  auto sim = ex::MakeSimulator(room);
  w.rooms.push_back(MakeRoom(sim, window, room_rng));
  w.profiles.push_back(ProfileSpec{0, kCombined, false});
  w.pools.push_back(MakePool(room, sim, room_rng));
  for (std::size_t l = 0; l < w.links; ++l) {
    w.link_class.push_back(
        ClassOf(w, StreamClass{0, 0, (l % 4) * (kPoolFrames / 4)}));
    w.join.push_back(0);
  }
  w.warm_passes = window + 2;
  w.timed_passes =
      smoke ? 6 : Passes(kHop1PassesPerSecond, seconds);
}

// fig_drift's adaptive arm (window 50, its HMM, guard and ladder settings),
// at hop 10.
core::StreamingConfig AdaptiveStream() {
  core::StreamingConfig stream;
  stream.window_packets = 50;
  stream.hop_packets = 10;
  stream.use_hmm = true;
  stream.hmm.transition_prob = 0.1;
  stream.hmm.occupied_shift_sigmas = 8.0;
  stream.hmm.occupied_sigma_scale = 5.0;
  stream.decision_probability = 0.4;
  stream.guard_enabled = true;
  stream.calibration.enabled = true;
  stream.calibration.quiet_posterior_max = 0.4;
  stream.calibration.drift_score_fraction = 0.75;
  stream.calibration.drift_ewma_alpha = 0.3;
  stream.calibration.drift_confirm_windows = 2;
  stream.calibration.recalibration_quiet_windows = 6;
  return stream;
}

// fig_drift's drift process compressed into one pool cycle (gain ramp,
// furniture move at mid-cycle, scheduled AGC retrains) plus stream faults.
nic::ChannelSimConfig FaultyConfig(std::uint64_t seed, std::size_t cycle,
                                   bool dead_chain) {
  auto config = ex::DefaultSimConfig();
  auto& f = config.faults;
  f.enabled = true;
  f.seed = seed;
  f.drop_prob = 0.01;
  f.reorder_prob = 0.005;
  f.corrupt_prob = 0.01;
  f.drift_ramp_db_per_1k = 1.0;
  f.drift_ramp_max_db = 9.0;
  f.furniture_step_packets = cycle / 2;
  f.furniture_step_sigma_db = 1.0;
  f.agc_schedule_every_packets = cycle / 3;
  if (dead_chain) {
    f.dead_antenna = 2;
    f.dead_from_packet = cycle / 4;
  }
  return config;
}

void MakeAdaptive(Workload& w, Rng& rng, double seconds, bool smoke) {
  w.open_loop = false;
  w.links = smoke ? 144 : 1024;
  // About one pass of frames queued: enough to keep both shards busy (a
  // frame here costs several times a hop1-dram frame).
  w.serve.queue_capacity = 512;
  w.serve.stream = AdaptiveStream();
  // Not gated: the per-link calibration ladder allocates on the serving
  // path (LinkCalibrator::StageQuietPackets copies quiet packets;
  // ApplySwap's Detector::RefreshAngularProfile builds MUSIC spectra and
  // multipath factors in fresh vectors), about 65k times in a 20 s phase.
  // The gate line prints the count; the gate holds the shared-profile
  // workloads to zero.
  w.alloc_free = false;
  const std::size_t window = w.serve.stream.window_packets;
  const std::size_t hop = w.serve.stream.hop_packets;
  const std::size_t cycle = kPoolFrames;
  const core::DetectionScheme schemes[] = {
      core::DetectionScheme::kSubcarrierAndPathWeighting,
      core::DetectionScheme::kSubcarrierWeighting,
      core::DetectionScheme::kVarianceMobile};
  const auto rooms = PaperRooms();
  // Calibrated on a clean twin of the room, served from drifting ones
  // (fig_drift's arrangement): pools 2r and 2r+1 (dead chain) of room r.
  GenerateRooms(w, rooms, rng, [&](const ex::LinkCase& lc, Rng& room_rng) {
    auto clean = ex::MakeSimulator(lc);
    RoomInputs inputs{MakeRoom(clean, window, room_rng), {}};
    for (const bool dead : {false, true}) {
      auto sim =
          ex::MakeSimulator(lc, FaultyConfig(room_rng.NextU32(), cycle, dead));
      inputs.pools.push_back(MakePool(lc, sim, room_rng));
    }
    return inputs;
  });
  for (std::size_t r = 0; r < rooms.size(); ++r) {
    for (const auto scheme : schemes) {
      w.profiles.push_back(ProfileSpec{r, scheme, true});
    }
  }
  for (std::size_t l = 0; l < w.links; ++l) {
    const auto profile = static_cast<std::uint32_t>(l % 9);
    const std::size_t room = profile / 3;
    const bool dead = l % 8 == 0;
    const auto pool = static_cast<std::uint32_t>(2 * room + (dead ? 1 : 0));
    const std::size_t offset = ((l / 72) % 2) * (cycle / 2);
    w.link_class.push_back(ClassOf(w, StreamClass{profile, pool, offset}));
    w.join.push_back(static_cast<std::uint32_t>(l % hop));
  }
  w.warm_passes = (hop - 1) + window + 2 * hop + 1;
  w.timed_passes =
      smoke ? 3 * hop : Passes(kAdaptivePassesPerSecond, seconds);
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      double scale_seconds, bool smoke) {
  Workload w;
  w.name = name;
  w.serve.num_shards = 2;
  w.serve.policy = serve::BackPressure::kBlock;
  // Deep enough that a cadence tick's frames fit without blocking and that
  // the closed loops' generator, parked by kBlock's back-off, never lets a
  // shard run dry.
  w.serve.queue_capacity = 2048;
  Rng rng(seed, 0x70657266ULL);
  if (name == "cadence-50hz") {
    MakeCadence(w, rng, scale_seconds, smoke);
  } else if (name == "hop1-dram") {
    MakeHop1(w, rng, scale_seconds, smoke);
  } else if (name == "adaptive-faulty") {
    MakeAdaptive(w, rng, scale_seconds, smoke);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<CalibratedProfile> CalibrateProfiles(const Workload& w) {
  std::vector<CalibratedProfile> out;
  for (const ProfileSpec& spec : w.profiles) {
    const RoomData& room = w.rooms[spec.room];
    core::DetectorConfig config;
    config.scheme = spec.scheme;
    config.window_packets = w.serve.stream.window_packets;
    auto detector = core::Detector::Calibrate(room.calibration, room.band,
                                              room.array, config);
    CalibratedProfile profile;
    core::DetectorScratch scratch;
    for (const auto& window : room.empty_windows) {
      profile.empty_scores.push_back(
          detector.Score(std::span<const wifi::CsiPacket>(window), scratch));
    }
    detector.CalibrateThreshold(room.empty_windows);
    profile.detector =
        std::make_shared<const core::Detector>(std::move(detector));
    out.push_back(std::move(profile));
  }
  return out;
}

const wifi::CsiPacket& StreamFrame(Workload& w, std::uint32_t cls,
                                   std::size_t index) {
  const StreamClass& c = w.classes[cls];
  Pool& pool = w.pools[c.pool];
  const std::size_t pos = c.offset + index;
  const std::size_t j = pos % pool.frames.size();
  const std::uint64_t cycle = pos / pool.frames.size();
  wifi::CsiPacket& frame = pool.frames[j];
  frame.sequence = cycle * pool.span + pool.rel_seq[j];
  frame.timestamp_s = static_cast<double>(frame.sequence) / kPacketRateHz;
  return frame;
}

void RegisterProfiles(serve::ServeCore& core, const Workload& w,
                      const std::vector<CalibratedProfile>& profiles) {
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    core.RegisterProfile(profiles[p].detector, profiles[p].empty_scores,
                         w.profiles[p].per_link_calibration);
  }
}

std::size_t AddLinkLikeServe(core::SensingEngine& engine, const Workload& w,
                             const std::vector<CalibratedProfile>& profiles,
                             std::uint32_t profile) {
  core::StreamingConfig stream = w.serve.stream;
  const CalibratedProfile& p = profiles[profile];
  if (w.profiles[profile].per_link_calibration) {
    return engine.AddLink(core::Detector(*p.detector), p.empty_scores, stream);
  }
  stream.calibration.enabled = false;
  return engine.AddLink(p.detector, p.empty_scores, stream);
}

std::vector<ClassReference> ReplayReference(
    Workload& w, const std::vector<CalibratedProfile>& profiles,
    const std::vector<std::size_t>& frames) {
  std::vector<ClassReference> refs(w.classes.size());
  core::SensingEngine engine;
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    const auto cls = static_cast<std::uint32_t>(c);
    const std::size_t link =
        AddLinkLikeServe(engine, w, profiles, w.classes[c].profile);
    for (std::size_t i = 0; i < frames[c]; ++i) {
      const auto decision = engine.ProcessPacket(link, StreamFrame(w, cls, i));
      if (decision.has_value()) refs[c].decisions.push_back({i, *decision});
    }
  }
  return refs;
}

std::size_t CountInRange(const ClassReference& ref, std::size_t begin,
                         std::size_t end) {
  const auto by_index = [](const RefDecision& d, std::size_t i) {
    return d.index < i;
  };
  const auto lo = std::lower_bound(ref.decisions.begin(), ref.decisions.end(),
                                   begin, by_index);
  const auto hi = std::lower_bound(lo, ref.decisions.end(), end, by_index);
  return static_cast<std::size_t>(hi - lo);
}

double Accuracy::TpPct() const {
  return tp + fn == 0 ? 0.0
                      : 100.0 * static_cast<double>(tp) /
                            static_cast<double>(tp + fn);
}

double Accuracy::TnPct() const {
  return fp + tn == 0 ? 0.0
                      : 100.0 * static_cast<double>(tn) /
                            static_cast<double>(fp + tn);
}

Accuracy EvaluateAccuracy(const std::string& workload) {
  constexpr std::uint64_t kEvaluationSeed = 20150629;
  Workload w = MakeWorkload(workload, kEvaluationSeed, 1.0, /*smoke=*/true);
  const auto profiles = CalibrateProfiles(w);
  // Offsets only shift where a link enters its pool: one class per
  // (profile, pool) covers every labelled window once.
  const std::size_t begin = w.warm_passes;
  const std::size_t end = begin + kPoolFrames;
  std::vector<std::size_t> frames(w.classes.size(), 0);
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    if (w.classes[c].offset == 0) frames[c] = end;
  }
  const auto refs = ReplayReference(w, profiles, frames);
  const std::size_t reach = w.serve.stream.window_packets + 1;
  Accuracy acc;
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    const Pool& pool = w.pools[w.classes[c].pool];
    const std::size_t n = pool.frames.size();
    const auto episode_of = [&](std::size_t pos) {
      return (pos / n) * pool.episodes + pool.episode[pos % n];
    };
    for (const RefDecision& d : refs[c].decisions) {
      if (d.index < begin || d.index >= end) continue;
      // One frame of slack for frames the guard kept out of the window.
      if (episode_of(d.index - reach) != episode_of(d.index)) {
        ++acc.ambiguous;
        continue;
      }
      const bool truth = pool.occupied[d.index % n] != 0;
      if (truth) {
        ++(d.decision.occupied ? acc.tp : acc.fn);
      } else {
        ++(d.decision.occupied ? acc.fp : acc.tn);
      }
    }
  }
  return acc;
}

}  // namespace perfbench
