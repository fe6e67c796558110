// mulink serving benchmark: the benchmark process itself.
//
//   mulink_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--plant-mismatch] [--commit <id>]
//                    [--out-dir <dir>]
//
// One process: the main thread generates load, serve::ServeCore runs two
// shard workers. Every input is generated from --seed before timing starts.
// A run sets the fleet up (timed as setup_s, the median of five set-ups),
// runs one timed phase with tracing off, and then checks its outputs: the
// decision count against a lone SensingEngine reference, bit-identity of
// ServeCore's deterministic decision log for a sample of links, and (for
// cadence-50hz and hop1-dram) zero heap allocations in the timed phase.
// With --trace 1 a second, traced timed phase and the per-layer probes
// follow; the per-layer metrics are printed instead of the end-to-end ones,
// and the spans are written as Chrome trace_event JSON to --out-dir.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every check passed, 1 on a failed check, 2 on a
// usage error.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "fleet.h"
#include "kernels/kernels.h"
#include "probes.h"
#include "spans.h"

namespace pb = perfbench;
using pb::Clock;
using pb::Timing;
using namespace mulink;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool plant_mismatch = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/out";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (key == "--smoke") {
      a.smoke = true;
    } else if (key == "--plant-mismatch") {
      a.plant_mismatch = true;
    } else if (key == "--workload" || key == "--seed" || key == "--seconds" ||
               key == "--trace" || key == "--commit" || key == "--out-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      try {
        if (key == "--workload") {
          a.workload = v;
          have_workload = true;
        } else if (key == "--seed") {
          a.seed = std::stoull(v);
        } else if (key == "--seconds") {
          a.seconds = std::stod(v);
        } else if (key == "--trace") {
          a.trace = std::string(v) == "1";
          if (!a.trace && std::string(v) != "0") return false;
        } else if (key == "--commit") {
          a.commit = v;
        } else {
          a.out_dir = v;
        }
      } catch (const std::exception&) {
        return false;
      }
    } else {
      return false;
    }
  }
  return have_workload && a.seconds > 0.0;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

long MaxRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t Decisions(const std::vector<serve::ShardStats>& stats) {
  std::uint64_t n = 0;
  for (const auto& s : stats) n += s.decisions;
  return n;
}

// Per-shard stats of one phase: totals after minus totals before.
std::vector<serve::ShardStats> StatsDelta(
    const std::vector<serve::ShardStats>& before,
    const std::vector<serve::ShardStats>& after) {
  std::vector<serve::ShardStats> out = after;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].frames_routed -= before[i].frames_routed;
    out[i].frames_dropped -= before[i].frames_dropped;
    out[i].frames_rejected -= before[i].frames_rejected;
    out[i].frames_processed -= before[i].frames_processed;
    out[i].decisions -= before[i].decisions;
    for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
      out[i].depth_buckets[b] -= before[i].depth_buckets[b];
    }
    out[i].depth_samples -= before[i].depth_samples;
  }
  return out;
}

// Upper edge of the log2 depth bucket where the CDF over all shards
// crosses q.
double DepthQuantile(const std::vector<serve::ShardStats>& stats, double q) {
  std::uint64_t total = 0;
  std::uint64_t buckets[serve::ShardStats::kDepthBuckets] = {};
  for (const auto& s : stats) {
    total += s.depth_samples;
    for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
      buckets[b] += s.depth_buckets[b];
    }
  }
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
    seen += buckets[b];
    if (seen > target) {
      return b == 0 ? 1.0 : static_cast<double>((std::size_t{1} << (b + 1)) - 1);
    }
  }
  return 0.0;
}

std::vector<int> TaskIds() {
  std::vector<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// CPU time the shard workers have run, summed over workers: each worker
// thread's kernel CPU-time clock (the clock pthread_getcpuclockid gives for
// a pthread, addressed by thread id), which leaves out time the hypervisor
// stole from a vCPU and time a worker waited for a CPU. The workers are the
// threads ServeCore::Start() added. Reading does not allocate, so it may
// run inside a timed phase.
class WorkerCpu {
 public:
  // Track the threads in `after` that are not in `before`.
  void Track(const std::vector<int>& before, const std::vector<int>& after) {
    tids_.clear();
    clocks_.clear();
    for (const int tid : after) {
      if (std::binary_search(before.begin(), before.end(), tid)) continue;
      tids_.push_back(tid);
      // Linux's per-thread CPUCLOCK_SCHED clock id for `tid`.
      const auto clock = static_cast<clockid_t>((~tid << 3) | 6);
      timespec ts{};
      if (clock_gettime(clock, &ts) == 0) clocks_.push_back(clock);
    }
  }
  bool ok() const { return !clocks_.empty(); }
  std::size_t threads() const { return clocks_.size(); }
  const std::vector<int>& tids() const { return tids_; }

  // Summed CPU time in seconds.
  double Seconds() const {
    double sum = 0.0;
    for (const clockid_t clock : clocks_) {
      timespec ts{};
      if (clock_gettime(clock, &ts) == 0) {
        sum += static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
      }
    }
    return sum;
  }

 private:
  std::vector<int> tids_;
  std::vector<clockid_t> clocks_;
};

void PinThread(int tid, unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

// Start the shard workers and place the threads: worker i alone on CPU
// 1 + i and the generator (this thread) on the CPU after them, so no thread
// migrates and leaves its private L2 behind. CPU 0 takes the timer and
// device interrupts, so the generator falls back to it only when there is
// no CPU to spare. No pinning when there are fewer CPUs than threads.
void StartPinned(serve::ServeCore& core, std::size_t shards,
                 WorkerCpu& workers) {
  const std::vector<int> before = TaskIds();
  core.Start();
  workers.Track(before, TaskIds());
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < shards + 1) return;
  PinThread(0, cpus >= shards + 2 ? static_cast<unsigned>(shards + 1) : 0);
  for (std::size_t i = 0; i < workers.tids().size(); ++i) {
    PinThread(workers.tids()[i], static_cast<unsigned>(1 + i));
  }
}

// In-process reference loops, run at the start and the end of a run and
// printed in the machine record: how fast this host was for the run, apart
// from the program measured. Compute: a dependent multiply-add chain (ms
// per 2e7 steps). Memory: a random pointer chase over 32 MiB (ns per load).
// Each is the best of three.
struct Reference {
  double compute_ms = 0.0;
  double memory_ns = 0.0;
};

Reference RunReference(std::uint64_t seed) {
  Reference ref;
  volatile double sink = 0.0;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
    best = std::min(best, Ms(t0, Clock::now()));
    sink = sink + x;
  }
  ref.compute_ms = best;
  // Sattolo's shuffle: one cycle through every slot.
  std::vector<std::uint32_t> next(std::size_t{8} << 20);
  std::iota(next.begin(), next.end(), 0u);
  Rng rng(seed, 0x726566ULL);
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextU32() % i]);
  }
  constexpr int kLoads = 2'000'000;
  best = 1e300;
  std::uint32_t p = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kLoads; ++i) p = next[p];
    best = std::min(best, Ms(t0, Clock::now()) * 1e6 / kLoads);
  }
  sink = sink + p;
  ref.memory_ns = best;
  return ref;
}

// ---- timed phase -----------------------------------------------------------

struct PhaseResult {
  double wall_s = 0.0;   // first Submit to the return of the final Drain
  // Open loop: sum over ticks of start -> Drain return. Closed loop: worker
  // CPU time per shard (wall time if the workers could not be tracked).
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t refused = 0;
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  std::uint64_t misses = 0;
  // Open: due -> Drain return. Closed: pass period, in worker CPU time per
  // shard (wall time if the workers could not be tracked).
  std::vector<double> tick_ms;
  std::vector<double> late_ms;   // open: tick start - due
  std::vector<double> busy_ms;   // open: tick start -> Drain return
  std::vector<double> submit_phase_ms;
  std::vector<double> drain_wait_ms;
  std::vector<double> submit_ns;  // sampled Submit calls (traced phase)
  std::vector<serve::ShardStats> stats;  // this phase only
};

// Submit every frame due at `pass`. With a tracer, 1 in 64 Submit calls is
// recorded as a span under `parent`.
void SubmitPass(pb::Workload& w, serve::ServeCore& core, std::size_t pass,
                pb::Tracer* tracer, std::int32_t parent, PhaseResult& r) {
  pb::ForEachDueLink(w, pass, [&](std::size_t l, std::size_t i) {
    const std::uint32_t cls = w.link_class[l];
    const auto& frame = pb::StreamFrame(w, cls, i);
    const std::uint32_t profile = w.classes[cls].profile;
    bool ok;
    if (tracer != nullptr && r.frames % 64 == 0) {
      const std::int64_t t0 = tracer->NowNs();
      ok = core.Submit(l, profile, frame);
      const std::int64_t t1 = tracer->NowNs();
      tracer->Add("serve.submit", t0, t1, parent, static_cast<std::int64_t>(pass));
      r.submit_ns.push_back(static_cast<double>(t1 - t0));
    } else {
      ok = core.Submit(l, profile, frame);
    }
    ++r.frames;
    if (!ok) ++r.refused;
  });
}

PhaseResult RunPhase(pb::Workload& w, serve::ServeCore& core,
                     const WorkerCpu& workers, std::size_t first_pass,
                     pb::Tracer* tracer) {
  PhaseResult r;
  const std::size_t passes = w.timed_passes;
  r.tick_ms.reserve(passes);
  r.late_ms.reserve(passes);
  r.busy_ms.reserve(passes);
  r.submit_phase_ms.reserve(passes);
  r.drain_wait_ms.reserve(passes);
  r.submit_ns.reserve(passes * w.links / 64 + passes + 1);
  const auto stats0 = core.Stats();
  const double cpu0 = CpuSeconds();
  const std::uint64_t allocs0 = pb::AllocCount();
  Clock::time_point begin, end;

  if (w.open_loop) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(w.tick_period_s));
    begin = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t k = 0; k < passes; ++k) {
      const auto due = begin + period * static_cast<long>(k);
      // Sleep to within 2 ms of the tick, then spin until it is due: a
      // sleeping vCPU can wake milliseconds late on a shared host, and that
      // lateness would read as tier latency, while a vCPU that spins for
      // the whole period is the first the host preempts.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
      while (Clock::now() < due) std::this_thread::yield();
      const auto start = Clock::now();
      std::int32_t tick = -1, sub = -1;
      if (tracer != nullptr) {
        const std::int64_t due_ns =
            tracer->NowNs() - static_cast<std::int64_t>(Ms(due, start) * 1e6);
        tick = tracer->Add("serve.tick", due_ns, due_ns, -1,
                           static_cast<std::int64_t>(k));
        sub = tracer->Begin("serve.submit_phase", tick,
                            static_cast<std::int64_t>(k));
      }
      SubmitPass(w, core, first_pass + k, tracer, sub, r);
      const auto submitted = Clock::now();
      std::int32_t drain = -1;
      if (tracer != nullptr) {
        tracer->End(sub);
        drain = tracer->Begin("serve.drain_wait", tick,
                              static_cast<std::int64_t>(k));
      }
      core.Drain();
      end = Clock::now();
      if (tracer != nullptr) {
        tracer->End(drain);
        tracer->End(tick);
      }
      r.late_ms.push_back(Ms(due, start));
      r.tick_ms.push_back(Ms(due, end));
      r.submit_phase_ms.push_back(Ms(start, submitted));
      r.drain_wait_ms.push_back(Ms(submitted, end));
      r.busy_s += Ms(start, end) * 1e-3;
      r.busy_ms.push_back(Ms(start, end));
      if (end > due + period) ++r.misses;
    }
  } else {
    // Closed loop: submit continuously (kBlock paces the generator to the
    // workers) and drain once. The generator runs ahead of the workers by
    // at most the queued frames, so the fleet's pass period is measured
    // over segments of passes holding at least 12x the queue capacity.
    const std::size_t per_pass = w.links;
    const std::size_t queued = w.serve.num_shards * w.serve.queue_capacity;
    const std::size_t segment =
        std::clamp<std::size_t>((12 * queued + per_pass - 1) / per_pass, 1,
                                std::max<std::size_t>(1, passes / 10));
    const double shards = static_cast<double>(w.serve.num_shards);
    const auto worker_s = [&] {
      return workers.ok() ? workers.Seconds() / shards : 0.0;
    };
    const double worker0 = worker_s();
    begin = Clock::now();
    auto pass_start = begin, segment_start = begin;
    double segment_worker = worker0;
    for (std::size_t k = 0; k < passes; ++k) {
      const std::int32_t sub = tracer != nullptr
                                   ? tracer->Begin("serve.submit_phase", -1,
                                                   static_cast<std::int64_t>(k))
                                   : -1;
      SubmitPass(w, core, first_pass + k, tracer, sub, r);
      const auto now = Clock::now();
      if (tracer != nullptr) tracer->End(sub);
      r.submit_phase_ms.push_back(Ms(pass_start, now));
      pass_start = now;
      if ((k + 1) % segment == 0) {
        const double worker = worker_s();
        const double ms = workers.ok() ? (worker - segment_worker) * 1e3
                                       : Ms(segment_start, now);
        r.tick_ms.push_back(ms / static_cast<double>(segment));
        segment_start = now;
        segment_worker = worker;
      }
    }
    const std::int32_t drain =
        tracer != nullptr ? tracer->Begin("serve.drain_wait") : -1;
    core.Drain();
    end = Clock::now();
    if (tracer != nullptr) tracer->End(drain);
    r.drain_wait_ms.push_back(Ms(pass_start, end));
    r.busy_s = workers.ok() ? worker_s() - worker0 : Ms(begin, end) * 1e-3;
  }
  r.allocs = pb::AllocCount() - allocs0;
  r.cpu_s = CpuSeconds() - cpu0;
  r.wall_s = Ms(begin, end) * 1e-3;
  r.stats = StatsDelta(stats0, core.Stats());
  r.decisions = Decisions(r.stats);
  return r;
}

// The end-to-end timings of one phase, as medians and quantiles over the
// whole phase. Open loop: tick latency quantiles over every tick, and
// decisions per tick over the median tick busy time. Closed loop: quantiles
// of the pass period over the phase's segments, and the phase's decisions
// over the workers' CPU time per shard.
struct Headline {
  double decisions_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

Headline Summarize(const PhaseResult& r, std::size_t passes) {
  Headline h;
  h.p50_ms = pb::Quantile(r.tick_ms, 0.5);
  h.p90_ms = pb::Quantile(r.tick_ms, 0.9);
  const double busy_s =
      r.busy_ms.empty()
          ? r.busy_s
          : pb::Quantile(r.busy_ms, 0.5) * 1e-3 * static_cast<double>(passes);
  if (busy_s > 0.0) h.decisions_per_s = static_cast<double>(r.decisions) / busy_s;
  return h;
}

// ---- correctness gate --------------------------------------------------------

struct GateResult {
  bool ok = true;
  std::vector<std::string> failures;
  std::uint64_t sample_links = 0;
  std::uint64_t sample_decisions = 0;

  void Check(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      failures.push_back(what);
    }
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameDecision(const core::PresenceDecision& a,
                  const core::PresenceDecision& b) {
  return SameBits(a.timestamp_s, b.timestamp_s) && SameBits(a.score, b.score) &&
         SameBits(a.posterior, b.posterior) && a.occupied == b.occupied &&
         a.degraded == b.degraded;
}

GateResult RunGate(pb::Workload& w,
                   const std::vector<pb::CalibratedProfile>& profiles,
                   std::size_t phases, std::uint64_t setup_decisions,
                   std::uint64_t timed_decisions, std::uint64_t timed_allocs,
                   bool plant_mismatch, pb::Tracer& tracer) {
  GateResult g;
  const std::size_t timed_begin = w.warm_passes;
  const std::size_t total = w.warm_passes + phases * w.timed_passes;

  // Reference: one lone engine link per stream class, as many frames as
  // the longest-running link of the class received.
  std::vector<std::size_t> frames(w.classes.size(), 0);
  for (std::size_t l = 0; l < w.links; ++l) {
    auto& f = frames[w.link_class[l]];
    f = std::max(f, total - w.join[l]);
  }
  std::vector<pb::ClassReference> refs;
  {
    pb::ScopedSpan span(tracer, "core.engine.reference");
    refs = pb::ReplayReference(w, profiles, frames);
  }
  if (plant_mismatch && !refs.empty() && !refs[0].decisions.empty()) {
    auto& d = refs[0].decisions[0].decision;
    d.score = std::nextafter(d.score, 1e300);
  }

  // 1. Exact decision counts, set-up and timed phases.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> groups;
  for (std::size_t l = 0; l < w.links; ++l) {
    ++groups[{w.link_class[l], w.join[l]}];
  }
  std::uint64_t want_setup = 0, want_timed = 0;
  for (const auto& [key, count] : groups) {
    const auto& [cls, join] = key;
    want_setup += count * pb::CountInRange(refs[cls], 0, timed_begin - join);
    want_timed +=
        count * pb::CountInRange(refs[cls], timed_begin - join, total - join);
  }
  g.Check(setup_decisions == want_setup,
          "set-up decisions " + std::to_string(setup_decisions) +
              " != reference " + std::to_string(want_setup));
  g.Check(timed_decisions == want_timed,
          "timed decisions " + std::to_string(timed_decisions) +
              " != reference " + std::to_string(want_timed));
  g.Check(want_timed > 0, "timed phase made no decisions");

  // 2. Zero heap allocations in the timed phase.
  if (w.alloc_free) {
    g.Check(timed_allocs == 0, "timed phase made " +
                                   std::to_string(timed_allocs) +
                                   " heap allocations");
  }

  // 3. ServeCore in deterministic mode with the decision log, on the first
  // two links of every class: bit-identical to the lone-engine reference.
  std::vector<std::size_t> sample;
  std::vector<std::uint32_t> per_class(w.classes.size(), 0);
  for (std::size_t l = 0; l < w.links && sample.size() < 64; ++l) {
    if (per_class[w.link_class[l]]++ < 2) sample.push_back(l);
  }
  serve::ServeConfig config = w.serve;
  config.deterministic = true;
  config.collect_decision_log = true;
  config.queue_capacity = 256;
  std::vector<serve::DecisionRecord> log;
  {
    pb::ScopedSpan span(tracer, "serve.deterministic_replay");
    serve::ServeCore core(config);
    pb::RegisterProfiles(core, w, profiles);
    core.Start();
    for (std::size_t pass = 0; pass < total; ++pass) {
      for (const std::size_t l : sample) {
        if (pass < w.join[l]) continue;
        const std::uint32_t cls = w.link_class[l];
        core.Submit(l, w.classes[cls].profile,
                    pb::StreamFrame(w, cls, pass - w.join[l]));
      }
    }
    core.Drain();
    core.Stop();
    log = core.MergedDecisionLog();
  }
  std::size_t pos = 0;
  for (const std::size_t l : sample) {
    const auto& ref = refs[w.link_class[l]];
    const std::size_t n = pb::CountInRange(ref, 0, total - w.join[l]);
    std::size_t matched = 0;
    for (; matched < n && pos < log.size() && log[pos].link_id == l;
         ++matched, ++pos) {
      if (!SameDecision(log[pos].decision, ref.decisions[matched].decision)) {
        break;
      }
    }
    g.Check(matched == n && (pos >= log.size() || log[pos].link_id != l),
            "link " + std::to_string(l) + ": ServeCore decision " +
                std::to_string(matched) +
                " differs from the lone-engine reference");
    while (pos < log.size() && log[pos].link_id == l) ++pos;
    g.sample_decisions += n;
  }
  g.sample_links = sample.size();
  return g;
}

// ---- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0: a count or a derived ratio
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string MachineRecord(const Args& a, const pb::Workload& w,
                          const Reference& start, const Reference& end,
                          std::size_t worker_threads) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream o;
  o << "{\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
    << ", \"seconds\": " << Num(a.seconds) << ", \"trace\": " << a.trace
    << ", \"smoke\": " << a.smoke << ", \"nproc\": " << nproc
    << ", \"l3_bytes\": " << l3 << ", \"kernel_backend\": \""
    << kernels::ToString(kernels::ActiveBackend())
    << "\", \"simd_compiled_in\": " << kernels::SimdCompiledIn()
    << ", \"obs_compiled_in\": " << obs::kEnabled << ", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"commit\": \"" << a.commit
    << "\", \"shards\": " << w.serve.num_shards << ", \"links\": " << w.links
    << ", \"timed_passes\": " << w.timed_passes
    << ", \"oversubscribed\": " << (w.serve.num_shards + 1 > nproc)
    << ", \"worker_cpu_clock\": " << (worker_threads == w.serve.num_shards)
    << ", \"ref_compute_ms\": [" << Num(start.compute_ms) << ", "
    << Num(end.compute_ms) << "], \"ref_memory_ns\": ["
    << Num(start.memory_ns) << ", " << Num(end.memory_ns) << "]}";
  return o.str();
}

std::uint64_t CounterDelta(const obs::Registry& before,
                           const obs::Registry& after, obs::Counter c) {
  return after.Get(c) - before.Get(c);
}

// Mean ns of one stage between two registry snapshots, with its count.
Timing StageMean(const obs::Registry& before, const obs::Registry& after,
                 obs::Stage s) {
  const auto& a = after.StageLatency(s);
  const auto& b = before.StageLatency(s);
  const std::uint64_t n = a.count - b.count;
  return {n ? (a.total_ns - b.total_ns) / static_cast<double>(n) : 0.0, n};
}

double Pct(std::uint64_t num, std::uint64_t den) {
  return den ? 100.0 * static_cast<double>(num) / static_cast<double>(den)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: mulink_perfbench --workload <cadence-50hz|hop1-dram|"
                 "adaptive-faulty> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--plant-mismatch] [--commit <id>] "
                 "[--out-dir <dir>]\n";
    return 2;
  }

  pb::Tracer tracer(args.trace, std::size_t{1} << 21);
  // Wall time of each part of the run, printed as one "# phases" line.
  std::vector<std::pair<const char*, double>> phase_s;
  auto phase_mark = Clock::now();
  const auto end_phase = [&](const char* name) {
    const auto now = Clock::now();
    phase_s.emplace_back(name, Ms(phase_mark, now) * 1e-3);
    phase_mark = now;
  };
  const Reference ref_start = RunReference(args.seed);
  pb::Workload w;
  try {
    pb::ScopedSpan span(tracer, "bench.generate");
    w = pb::MakeWorkload(args.workload, args.seed, args.seconds, args.smoke);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  end_phase("generate");

  // ---- set-up (timed; the median of several) ----
  const long rss_base_kb = MaxRssKb();
  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s, calibrate_ms;
  std::vector<pb::CalibratedProfile> profiles;
  std::unique_ptr<serve::ServeCore> core;
  std::uint64_t setup_decisions = 0;
  WorkerCpu workers;
  for (int s = 0; s < setups; ++s) {
    core.reset();
    pb::ScopedSpan setup(tracer, "bench.setup");
    const auto t0 = Clock::now();
    {
      pb::ScopedSpan span(tracer, "core.detector.calibrate", setup.id());
      profiles = pb::CalibrateProfiles(w);
    }
    calibrate_ms.push_back(Ms(t0, Clock::now()) /
                           static_cast<double>(w.profiles.size()));
    {
      pb::ScopedSpan span(tracer, "serve.start", setup.id());
      core = std::make_unique<serve::ServeCore>(w.serve);
      pb::RegisterProfiles(*core, w, profiles);
      StartPinned(*core, w.serve.num_shards, workers);
    }
    {
      pb::ScopedSpan span(tracer, "serve.warmup", setup.id());
      PhaseResult scratch;
      for (std::size_t pass = 0; pass < w.warm_passes; ++pass) {
        SubmitPass(w, *core, pass, nullptr, -1, scratch);
      }
      core->Drain();
    }
    setup_s.push_back(Ms(t0, Clock::now()) * 1e-3);
  }
  setup_decisions = Decisions(core->Stats());

  // ---- timed phases ----
  end_phase("setup");
  PhaseResult plain = RunPhase(w, *core, workers, w.warm_passes, nullptr);
  PhaseResult traced;
  obs::Registry reg_before, reg_after;
  std::size_t phases = 1;
  if (args.trace) {
    reg_before = core->AggregateMetrics();
    traced = RunPhase(w, *core, workers, w.warm_passes + w.timed_passes,
                      &tracer);
    reg_after = core->AggregateMetrics();
    phases = 2;
  }
  const long peak_rss_kb = MaxRssKb();
  core.reset();
  const Reference ref_end = RunReference(args.seed);
  end_phase("timed");

  GateResult gate = RunGate(w, profiles, phases, setup_decisions,
                            plain.decisions + traced.decisions, plain.allocs,
                            args.plant_mismatch, tracer);
  end_phase("gate");

  const std::uint64_t attempted = plain.frames + traced.frames;
  std::uint64_t refused = plain.refused + traced.refused;
  for (const PhaseResult* r : {&plain, &traced}) {
    for (const auto& s : r->stats) refused += s.frames_dropped;
  }
  // Ticks that miss their deadline are reported (bench.deadline_miss_pct),
  // not failed: every frame of a late tick is still scored, and how many
  // ticks a shared host delays past 20 ms differs from run to run.
  const std::uint64_t failed = refused;

  const Headline head = Summarize(plain, w.timed_passes);
  const double dps = head.decisions_per_s;
  const double tick_p50 = head.p50_ms;
  std::vector<Metric> metrics;
  pb::Accuracy accuracy;
  if (!args.trace) {
    {
      pb::ScopedSpan span(tracer, "core.engine.accuracy");
      accuracy = pb::EvaluateAccuracy(w.name);
    }
    metrics = {
        {"setup_s", pb::Quantile(setup_s, 0.5), "s", setup_s.size()},
        {"peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MiB", 0},
        {"decisions_per_s", dps, "1/s", 0},
        {"tick_latency_p50_ms", tick_p50, "ms", plain.tick_ms.size()},
        {"tick_latency_p90_ms", head.p90_ms, "ms",
         plain.tick_ms.size()},
        {"detect_tp_pct", accuracy.TpPct(), "%", accuracy.tp + accuracy.fn},
        {"detect_tn_pct", accuracy.TnPct(), "%", accuracy.fp + accuracy.tn},
    };
  } else {
    const auto engine = pb::RunEngineProbe(
        w, profiles,
        w.open_loop ? std::min<std::size_t>(w.timed_passes, 100)
                    : std::max<std::size_t>(w.serve.stream.hop_packets,
                                            w.timed_passes / 20),
        tracer);
    const auto scores = pb::RunScoreProbe(w, tracer);
    const auto guard = pb::RunGuardProbe(w, tracer);
    const auto kern = pb::RunKernelProbe(w, tracer);

    const double shards = static_cast<double>(w.serve.num_shards);
    const double engine_ns_per_frame =
        engine.frames ? engine.total_ns / static_cast<double>(engine.frames)
                      : 0.0;
    const double engine_dps =
        engine.total_ns > 0.0
            ? static_cast<double>(engine.decisions) / (engine.total_ns * 1e-9)
            : 0.0;
    std::uint64_t max_frames = 0, sum_frames = 0;
    for (const auto& s : traced.stats) {
      max_frames = std::max(max_frames, s.frames_processed);
      sum_frames += s.frames_processed;
    }
    const double mean_frames = static_cast<double>(sum_frames) / shards;
    const auto& rb = reg_before;
    const auto& ra = reg_after;
    using C = obs::Counter;
    using S = obs::Stage;
    const std::uint64_t hits = CounterDelta(rb, ra, C::kProfileStackHits);
    const std::uint64_t rebuilds =
        CounterDelta(rb, ra, C::kProfileStackRebuilds);
    const std::uint64_t ingested = CounterDelta(rb, ra, C::kPacketsIngested);

    // Ledger: the engine's own stage histograms, per decision, against the
    // measured ns per decision of the same single-thread probe. Per-packet
    // stages are sampled 1-in-N, so their mean is scaled by packets.
    const auto& eb = engine.before;
    const auto& ea = engine.after;
    double stage_ns = 0.0;
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
      const auto stage = static_cast<S>(s);
      const Timing t = StageMean(eb, ea, stage);
      const bool per_packet =
          stage == S::kGuardClassify || stage == S::kIngestSanitize;
      stage_ns += per_packet ? t.value * static_cast<double>(CounterDelta(
                                             eb, ea, C::kPacketsIngested))
                             : t.value * static_cast<double>(t.samples);
    }
    const double engine_ns_per_decision =
        engine.decisions ? engine.total_ns / static_cast<double>(engine.decisions)
                         : 0.0;
    const double ledger_ns_per_decision =
        engine.decisions ? stage_ns / static_cast<double>(engine.decisions)
                         : 0.0;

    const Headline traced_head = Summarize(traced, w.timed_passes);
    const double overhead_pct =
        w.open_loop
            ? 100.0 * (traced_head.p50_ms - tick_p50) / tick_p50
            : 100.0 * (dps - traced_head.decisions_per_s) / dps;
    const Timing submit_phase = pb::Median(traced.submit_phase_ms);
    const Timing drain_wait = pb::Median(traced.drain_wait_ms);

    metrics = {
        {"serve.submit_ns", pb::Quantile(traced.submit_ns, 0.5), "ns",
         traced.submit_ns.size()},
        {"serve.submit_phase_ms", submit_phase.value, "ms",
         submit_phase.samples},
        {"serve.drain_wait_ms", drain_wait.value, "ms", drain_wait.samples},
        {"serve.overhead_ns_per_frame",
         shards * plain.busy_s * 1e9 / static_cast<double>(plain.frames) -
             engine_ns_per_frame,
         "ns", plain.frames},
        {"serve.scaling_efficiency",
         engine_dps > 0.0 ? dps / (shards * engine_dps) : 0.0, "ratio", 0},
        {"serve.shard_imbalance",
         mean_frames > 0.0 ? static_cast<double>(max_frames) / mean_frames
                           : 0.0,
         "ratio", 0},
        {"serve.queue_depth_p50", DepthQuantile(traced.stats, 0.5), "count", 0},
        {"serve.queue_depth_p90", DepthQuantile(traced.stats, 0.9), "count", 0},
        {"serve.cpu_util", plain.cpu_s / (plain.wall_s * (shards + 1.0)),
         "ratio", 0},
        {"serve.frames_refused", static_cast<double>(refused), "count", 0},
        {"serve.rss_kb_per_link",
         static_cast<double>(peak_rss_kb - rss_base_kb) /
             static_cast<double>(w.links),
         "KiB", 0},
        {"core.engine.ingest_ns", engine.ingest_ns.value, "ns",
         engine.ingest_ns.samples},
        {"core.engine.decide_ns", engine.decide_ns.value, "ns",
         engine.decide_ns.samples},
        {"core.engine.allocs_per_frame",
         engine.frames ? static_cast<double>(engine.allocs) /
                             static_cast<double>(engine.frames)
                       : 0.0,
         "count", 0},
        {"core.engine.degraded_decision_pct",
         Pct(CounterDelta(rb, ra, C::kDegradedDecisions),
             CounterDelta(rb, ra, C::kDecisions)),
         "%", 0},
        {"core.detector.score_ns.combined", scores[0].value, "ns",
         scores[0].samples},
        {"core.detector.score_ns.subcarrier-weighting", scores[1].value, "ns",
         scores[1].samples},
        {"core.detector.score_ns.variance-mobile", scores[2].value, "ns",
         scores[2].samples},
        {"core.detector.profile_stack_hit_pct", Pct(hits, hits + rebuilds),
         "%", 0},
        {"core.detector.windows_scored",
         static_cast<double>(CounterDelta(rb, ra, C::kWindowsScored)), "count",
         0},
        {"core.detector.calibrate_ms", pb::Quantile(calibrate_ms, 0.5), "ms",
         calibrate_ms.size()},
        {"core.calibration.ladder_transitions",
         static_cast<double>(CounterDelta(rb, ra, C::kLadderTransitions)),
         "count", 0},
        {"core.calibration.profile_swaps",
         static_cast<double>(CounterDelta(rb, ra, C::kProfileSwaps)), "count",
         0},
        {"core.calibration.quiet_windows",
         static_cast<double>(CounterDelta(rb, ra, C::kQuietWindows)), "count",
         0},
        {"core.calibration.agc_rebaselines",
         static_cast<double>(CounterDelta(rb, ra, C::kAgcRebaselines)),
         "count", 0},
        {"core.hmm.filter_ns", StageMean(rb, ra, S::kHmmFilter).value, "ns",
         StageMean(rb, ra, S::kHmmFilter).samples},
        {"nic.frame_guard.inspect_ns", guard.value, "ns", guard.samples},
        {"nic.frame_guard.quarantined_pct",
         Pct(CounterDelta(rb, ra, C::kPacketsQuarantined), ingested), "%", 0},
        {"nic.frame_guard.repaired_pct",
         Pct(CounterDelta(rb, ra, C::kPacketsRepaired), ingested), "%", 0},
        {"nic.frame_guard.ring_resyncs",
         static_cast<double>(CounterDelta(rb, ra, C::kRingResyncs)), "count",
         0},
    };
    for (std::size_t k = 0; k < pb::KernelProbe::kCount; ++k) {
      metrics.push_back({std::string("kernels.") + pb::KernelProbe::kNames[k] +
                             "_ns",
                         kern.ns[k].value, "ns", kern.ns[k].samples});
    }
    const std::pair<const char*, S> stages[] = {
        {"guard_classify", S::kGuardClassify},
        {"ingest_sanitize", S::kIngestSanitize},
        {"subcarrier_weighting", S::kSubcarrierWeighting},
        {"music_path_weighting", S::kMusicPathWeighting},
        {"score", S::kScore}};
    for (const auto& [name, stage] : stages) {
      const Timing t = StageMean(rb, ra, stage);
      metrics.push_back(
          {std::string("obs.stage_ns.") + name, t.value, "ns", t.samples});
    }
    metrics.push_back(
        {"obs.ledger_gap_pct",
         engine_ns_per_decision > 0.0
             ? 100.0 * (ledger_ns_per_decision - engine_ns_per_decision) /
                   engine_ns_per_decision
             : 0.0,
         "%", engine.decisions});
    metrics.push_back({"bench.generator_late_p90_ms",
                       pb::Quantile(plain.late_ms, 0.9), "ms",
                       plain.late_ms.size()});
    metrics.push_back({"bench.tracing_overhead_pct", overhead_pct, "%", 0});
    metrics.push_back({"bench.deadline_miss_pct",
                       Pct(plain.misses + traced.misses,
                           plain.tick_ms.size() + traced.tick_ms.size()),
                       "%", 0});

    // Per-layer table with sample counts, the span self-time table, the
    // kernel bytes, and the Chrome trace.
    std::cout << "# per-layer metrics (" << w.name << ", traced run)\n";
    for (const Metric& m : metrics) {
      std::cout << "#   " << m.name << " = " << Num(m.value) << " " << m.unit;
      if (m.samples) std::cout << "  (samples " << m.samples << ")";
      std::cout << "\n";
    }
    for (std::size_t k = 0; k < pb::KernelProbe::kCount; ++k) {
      std::cout << "#   kernels." << pb::KernelProbe::kNames[k]
                << " computed bytes/call = " << Num(kern.bytes[k]) << "\n";
    }
    std::cout << "# span self time (name, count, total ms, self ms)\n";
    for (const auto& row : tracer.SelfTimes()) {
      std::cout << "#   " << row.name << "  " << row.count << "  "
                << Num(row.total_ms) << "  " << Num(row.self_ms) << "\n";
    }
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeTrace(path)) {
      std::cout << "# chrome trace: " << path << " (" << tracer.spans().size()
                << " spans, " << tracer.dropped() << " dropped)\n";
    }
  }

  if (!args.trace) {
    std::cout << "# end-to-end (" << w.name << ")\n";
    for (const Metric& m : metrics) {
      std::cout << "#   " << m.name << " = " << Num(m.value) << " " << m.unit;
      if (m.samples) std::cout << "  (samples " << m.samples << ")";
      std::cout << "\n";
    }
  }
  end_phase(args.trace ? "probes" : "accuracy");
  std::cout << "# machine "
            << MachineRecord(args, w, ref_start, ref_end, workers.threads())
            << "\n";
  if (w.serve.num_shards + 1 > std::thread::hardware_concurrency()) {
    std::cout << "# WARNING: shards + generator exceed nproc; timings are "
                 "oversubscribed\n";
  }
  std::cout << "# phases (s):";
  for (const auto& [name, s] : phase_s) std::cout << " " << name << " " << Num(s);
  std::cout << "\n";
  std::cout << "# gate: " << (gate.ok ? "pass" : "FAIL") << " (timed decisions "
            << plain.decisions + traced.decisions << ", deterministic sample "
            << gate.sample_links << " links / " << gate.sample_decisions
            << " decisions bit-identical to the lone-engine reference, "
            << "timed-phase allocations " << plain.allocs
            << (w.alloc_free ? ", gated to zero" : ", not gated") << ")\n";
  if (!args.trace) {
    std::cout << "# accuracy on the fixed evaluation set: "
              << accuracy.tp + accuracy.fn << " occupied + "
              << accuracy.fp + accuracy.tn << " vacant windows, "
              << accuracy.ambiguous << " straddling an episode boundary\n";
  }
  for (const auto& f : gate.failures) std::cerr << "perfbench: gate: " << f << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (gate.ok ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return gate.ok ? 0 : 1;
}
