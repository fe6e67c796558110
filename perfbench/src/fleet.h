// Workload construction, stream replay and the reference computation.
//
// A workload is a fleet of links served by one serve::ServeCore. All CSI is
// generated before any timing starts: per paper room, an empty calibration
// session plus held-out empty windows, and a replay pool of alternating
// vacant / occupied episodes (a person at one of the room's Sec. V-A grid
// spots). Each link replays one pool from one of a few start offsets; the
// generator re-stamps sequence and timestamp per link so every link sees
// one continuous stream (sequence gaps and reorders that the fault
// injector put into a faulty pool survive the re-stamp).
//
// Links whose (profile, pool, offset) agree see identical streams, so they
// form a stream class: the reference replays one lone SensingEngine link
// per class, and every link's expected decisions follow from its class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/engine.h"
#include "serve/serve.h"
#include "wifi/array.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace perfbench {

using namespace mulink;

// Per-room calibration inputs (an empty session and held-out empty windows).
struct RoomData {
  wifi::BandPlan band;
  wifi::UniformLinearArray array;
  std::vector<wifi::CsiPacket> calibration;
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
};

// Replay pool. frames[j].sequence holds the capture-relative sequence
// number on entry; StreamFrame overwrites sequence/timestamp in place.
struct Pool {
  std::vector<wifi::CsiPacket> frames;
  std::vector<std::uint64_t> rel_seq;
  std::vector<std::uint8_t> occupied;   // truth label per frame
  std::vector<std::uint32_t> episode;   // episode index within the pool
  std::uint32_t episodes = 0;
  std::uint64_t span = 0;               // sequence numbers one cycle covers
};

struct ProfileSpec {
  std::size_t room = 0;
  core::DetectionScheme scheme =
      core::DetectionScheme::kSubcarrierAndPathWeighting;
  bool per_link_calibration = false;
};

struct CalibratedProfile {
  std::shared_ptr<const core::Detector> detector;
  std::vector<double> empty_scores;
};

struct StreamClass {
  std::uint32_t profile = 0;
  std::uint32_t pool = 0;
  std::size_t offset = 0;
};

struct Workload {
  std::string name;
  bool open_loop = false;
  std::size_t links = 0;
  serve::ServeConfig serve;  // serve.stream is the per-link StreamingConfig
  std::vector<RoomData> rooms;
  std::vector<ProfileSpec> profiles;
  std::vector<Pool> pools;
  std::vector<StreamClass> classes;
  std::vector<std::uint32_t> link_class;
  std::vector<std::uint32_t> join;  // pass (tick) of each link's first frame
  std::size_t warm_passes = 0;      // set-up: every window full, warm buffers
  std::size_t timed_passes = 0;     // one timed phase
  double tick_period_s = 0.02;      // open loop only
  // The timed phase must make no heap allocation (gated).
  bool alloc_free = true;
};

// Build a named workload ("cadence-50hz", "hop1-dram", "adaptive-faulty").
// `scale_seconds` sizes the timed phase; `smoke` shrinks the fleet.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      double scale_seconds, bool smoke);

// Detector::Calibrate + empty-window scores + CalibrateThreshold for every
// profile (the first step of set-up).
std::vector<CalibratedProfile> CalibrateProfiles(const Workload& w);

// Frame number `index` (0-based) of a class's stream, re-stamped in place.
const wifi::CsiPacket& StreamFrame(Workload& w, std::uint32_t cls,
                                   std::size_t index);

// Register `w`'s profiles on `core` (ids equal profile indices).
void RegisterProfiles(serve::ServeCore& core, const Workload& w,
                      const std::vector<CalibratedProfile>& profiles);

// Add one link to a lone engine exactly as a serving shard admits it.
std::size_t AddLinkLikeServe(core::SensingEngine& engine, const Workload& w,
                             const std::vector<CalibratedProfile>& profiles,
                             std::uint32_t profile);

// Calls fn(link, stream_index) for every link with a frame due at `pass`,
// in link order.
template <typename Fn>
void ForEachDueLink(const Workload& w, std::size_t pass, Fn&& fn) {
  for (std::size_t l = 0; l < w.links; ++l) {
    if (pass >= w.join[l]) fn(l, pass - w.join[l]);
  }
}

// One reference decision: the stream index whose frame completed it.
struct RefDecision {
  std::size_t index = 0;
  core::PresenceDecision decision;
};

struct ClassReference {
  std::vector<RefDecision> decisions;
};

// Replay `frames[c]` frames of every class through a lone SensingEngine
// (one engine link per class, own scratch, no serving tier).
std::vector<ClassReference> ReplayReference(
    Workload& w, const std::vector<CalibratedProfile>& profiles,
    const std::vector<std::size_t>& frames);

// Decisions of `ref` whose index lies in [begin, end).
std::size_t CountInRange(const ClassReference& ref, std::size_t begin,
                         std::size_t end);

// Detection accuracy of decisions whose window lies inside one episode
// (windows straddling a vacant/occupied boundary are not scored).
struct Accuracy {
  std::uint64_t tp = 0, fn = 0, fp = 0, tn = 0, ambiguous = 0;
  double TpPct() const;
  double TnPct() const;
};

// Accuracy of the workload's configuration (rooms, profiles, streaming and
// calibration settings) on a fixed labelled evaluation set: the workload's
// generator run with a constant seed, one pool cycle per (profile, pool)
// replayed through a lone SensingEngine. Independent of --seed, so any
// change in it is a behaviour change of the program.
Accuracy EvaluateAccuracy(const std::string& workload);

}  // namespace perfbench
