// mulink command-line tool: simulate, inspect, and analyze CSI sessions.
//
//   mulink simulate --scenario classroom --packets 500 --out empty.mlnk
//   mulink simulate --scenario classroom --human 3.0,4.5 --out person.mlnk
//   mulink info session.mlnk
//   mulink export-csv session.mlnk session.csv
//   mulink detect --calibration empty.mlnk --session person.mlnk
//                 [--scheme combined] [--window 25] [--guard]
//                 [--metrics] [--metrics-json] [--guard-json] [--adaptive]
//   mulink campaign [--threads n] [--metrics] [--trace-json trace.json]
//   mulink spectrum --calibration empty.mlnk
//   mulink breath --session sleeper.mlnk --rate 50
//   mulink serve --links 1000 --shards 4 [--deterministic]
//                [--decision-log decisions.log]
//
// Files use the binary format of nic/csi_io.h, so sessions converted from
// real Intel 5300 CSI Tool traces drop straight in.
#include "cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "core/breath.h"
#include "core/detector.h"
#include "core/engine.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "dsp/stats.h"
#include "experiments/format.h"
#include "experiments/parallel_runner.h"
#include "experiments/scenario.h"
#include "nic/csi_io.h"
#include "obs/export.h"
#include "serve/serve.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

// Per-command argument contract: which options take a value, which are bare
// flags, and the usage line echoed with every parse error. Anything outside
// the contract is a PreconditionError (exit code 2), never a silent ignore.
struct CommandSpec {
  const char* name;
  const char* usage;
  std::vector<std::string> valued;
  std::vector<std::string> flags;
  std::size_t min_positional = 0;
  std::size_t max_positional = 0;
};

const std::vector<CommandSpec>& Specs() {
  static const std::vector<CommandSpec> specs = {
      {"simulate",
       "simulate --scenario <name> --packets <n> --out <file.mlnk>\n"
       "         [--human x,y] [--breathing-bpm n] [--seed n] [--calm]\n"
       "         [--fault-drop p] [--fault-reorder p] [--fault-corrupt p]\n"
       "         [--fault-dead-antenna m] [--fault-seed n]",
       {"scenario", "packets", "out", "seed", "human", "breathing-bpm",
        "fault-drop", "fault-reorder", "fault-corrupt", "fault-dead-antenna",
        "fault-seed"},
       {"calm"}},
      {"info", "info <file.mlnk>", {}, {}, 1, 1},
      {"export-csv", "export-csv <in.mlnk> <out.csv>", {}, {}, 2, 2},
      {"detect",
       "detect --calibration <file> --session <file>\n"
       "       [--scheme baseline|subcarrier|combined|variance] [--window n]\n"
       "       [--guard] [--guard-json] [--metrics] [--metrics-json]\n"
       "       [--adaptive]  (profile-drift flagging needs --adaptive)",
       {"calibration", "session", "scheme", "window"},
       {"guard", "guard-json", "metrics", "metrics-json", "adaptive"}},
      {"campaign",
       "campaign [--threads n] [--seed n] [--window n]\n"
       "         [--packets-per-location n] [--calibration-packets n]\n"
       "         [--empty-packets n] [--metrics] [--metrics-json]\n"
       "         [--trace-json <file>]",
       {"threads", "seed", "window", "packets-per-location",
        "calibration-packets", "empty-packets", "trace-json"},
       {"metrics", "metrics-json"}},
      {"spectrum", "spectrum --calibration <file>", {"calibration"}, {}},
      {"breath", "breath --session <file> [--rate hz]", {"session", "rate"},
       {}},
      {"serve",
       "serve [--links n] [--shards n] [--packets n]\n"
       "      [--scheme baseline|subcarrier|combined|variance] [--window n]\n"
       "      [--hop n] [--queue n]\n"
       "      [--policy block|drop-oldest|reject-newest] [--max-resident n]\n"
       "      [--deterministic] [--decision-log <file>] [--seed n]\n"
       "      [--metrics-json]",
       {"links", "shards", "packets", "scheme", "window", "hop", "queue",
        "policy", "max-resident", "decision-log", "seed"},
       {"deterministic", "metrics-json"}},
  };
  return specs;
}

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

[[noreturn]] void UsageError(const CommandSpec& spec,
                             const std::string& message) {
  throw PreconditionError(message + "\nusage: mulink " + spec.usage);
}

// Strict tokenizer against the command's contract: valued options consume
// exactly the next token (which may be negative / start with '-'), flags
// never do, and anything unrecognized fails loudly.
Args Parse(const std::vector<std::string>& argv, const CommandSpec& spec) {
  Args args;
  args.command = spec.name;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (Contains(spec.flags, key)) {
        args.options[key] = "true";
      } else if (Contains(spec.valued, key)) {
        if (i + 1 >= argv.size()) {
          UsageError(spec, "option '--" + key + "' needs a value");
        }
        args.options[key] = argv[++i];
      } else {
        UsageError(spec, "unknown option '--" + key + "' for '" +
                             spec.name + "'");
      }
    } else {
      args.positional.push_back(token);
    }
  }
  if (args.positional.size() < spec.min_positional ||
      args.positional.size() > spec.max_positional) {
    UsageError(spec, std::string("'") + spec.name + "' expects " +
                         std::to_string(spec.min_positional) +
                         (spec.min_positional == spec.max_positional
                              ? ""
                              : ".." + std::to_string(spec.max_positional)) +
                         " positional argument(s)");
  }
  return args;
}

std::string Option(const Args& args, const std::string& key,
                   const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

// Strict numeric parsers: the whole token must parse, or the option is
// malformed (exit code 2). std::sto* would happily accept "25abc".
double ParseDouble(const std::string& key, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size()) {
    throw PreconditionError("option '--" + key + "' expects a number, got '" +
                            text + "'");
  }
  return value;
}

std::uint64_t ParseU64(const std::string& key, const std::string& text) {
  const double value = ParseDouble(key, text);
  if (value < 0.0 || value != static_cast<double>(
                                  static_cast<std::uint64_t>(value))) {
    throw PreconditionError("option '--" + key +
                            "' expects a non-negative integer, got '" + text +
                            "'");
  }
  return static_cast<std::uint64_t>(value);
}

int ParseInt(const std::string& key, const std::string& text) {
  const double value = ParseDouble(key, text);
  if (value != static_cast<double>(static_cast<int>(value))) {
    throw PreconditionError("option '--" + key +
                            "' expects an integer, got '" + text + "'");
  }
  return static_cast<int>(value);
}

ex::LinkCase ScenarioByName(const std::string& name) {
  if (name == "classroom") return ex::MakeClassroomLink();
  if (name == "wall") return ex::MakeShortWallLink();
  if (name == "through-wall") return ex::MakeThroughWallLink();
  const auto cases = ex::MakePaperCases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (name == "case" + std::to_string(i + 1)) return cases[i];
  }
  throw PreconditionError(
      "unknown scenario '" + name +
      "' (try: classroom, wall, through-wall, case1..case5)");
}

core::DetectionScheme SchemeByName(const std::string& name) {
  if (name == "baseline") return core::DetectionScheme::kBaseline;
  if (name == "subcarrier") return core::DetectionScheme::kSubcarrierWeighting;
  if (name == "combined") {
    return core::DetectionScheme::kSubcarrierAndPathWeighting;
  }
  if (name == "variance") return core::DetectionScheme::kVarianceMobile;
  throw PreconditionError("unknown scheme '" + name +
                          "' (baseline|subcarrier|combined|variance)");
}

geometry::Vec2 ParsePoint(const std::string& text) {
  const auto comma = text.find(',');
  if (comma == std::string::npos) {
    throw PreconditionError("expected x,y but got '" + text + "'");
  }
  return {ParseDouble("human", text.substr(0, comma)),
          ParseDouble("human", text.substr(comma + 1))};
}

int Simulate(const Args& args, std::ostream& out) {
  const auto lc = ScenarioByName(Option(args, "scenario", "classroom"));
  const auto packets =
      static_cast<std::size_t>(ParseU64("packets",
                                        Option(args, "packets", "500")));
  const auto out_path = Option(args, "out", "");
  if (out_path.empty()) {
    throw PreconditionError("--out <file.mlnk> is required");
  }
  Rng rng(ParseU64("seed", Option(args, "seed", "1")));

  auto sim_config = ex::DefaultSimConfig();
  // NIC fault processes (nic/fault_injection.h). Any --fault-* option turns
  // the injector on; it draws from its own RNG stream, so the channel
  // realization matches the clean capture packet for packet.
  auto& faults = sim_config.faults;
  if (args.options.count("fault-drop")) {
    faults.drop_prob = ParseDouble("fault-drop", args.options.at("fault-drop"));
  }
  if (args.options.count("fault-reorder")) {
    faults.reorder_prob =
        ParseDouble("fault-reorder", args.options.at("fault-reorder"));
  }
  if (args.options.count("fault-corrupt")) {
    faults.corrupt_prob =
        ParseDouble("fault-corrupt", args.options.at("fault-corrupt"));
  }
  if (args.options.count("fault-dead-antenna")) {
    faults.dead_antenna =
        ParseInt("fault-dead-antenna", args.options.at("fault-dead-antenna"));
  }
  faults.enabled = faults.drop_prob > 0.0 || faults.reorder_prob > 0.0 ||
                   faults.corrupt_prob > 0.0 || faults.dead_antenna >= 0;
  if (faults.enabled) {
    faults.seed = ParseU64("fault-seed", Option(args, "fault-seed", "1"));
  }
  if (args.options.count("calm")) {
    // Bedroom-style conditions for respiration captures: no co-channel
    // bursts, minimal drift and sway.
    sim_config.interference_entry_prob = 0.0;
    sim_config.slow_gain_drift_db = 0.05;
    sim_config.human_sway_sigma_m = 0.001;
    sim_config.background_jitter_m = 0.001;
  }
  auto sim = ex::MakeSimulator(lc, sim_config);
  std::optional<propagation::HumanBody> human;
  if (args.options.count("human")) {
    propagation::HumanBody body;
    body.position = ParsePoint(args.options.at("human"));
    if (args.options.count("breathing-bpm")) {
      body.breathing_rate_hz =
          ParseDouble("breathing-bpm", args.options.at("breathing-bpm")) /
          60.0;
      body.breathing_amplitude_m = 0.006;
    }
    human = body;
  }
  const auto session = sim.CaptureSession(packets, human, rng);
  nic::WriteCsiSession(out_path, session);
  out << "wrote " << session.size() << " packets (" << lc.name << ", "
      << (human.has_value() ? "human present" : "empty room") << ") to "
      << out_path << "\n";
  return 0;
}

int Info(const Args& args, std::ostream& out) {
  const auto session = nic::ReadCsiSession(args.positional[0]);
  const auto& first = session.front();
  out << "packets:      " << session.size() << "\n"
      << "antennas:     " << first.NumAntennas() << "\n"
      << "subcarriers:  " << first.NumSubcarriers() << "\n"
      << "duration:     "
      << ex::Fmt(session.back().timestamp_s - first.timestamp_s, 2) << " s\n";
  std::vector<double> rssi;
  for (const auto& packet : session) rssi.push_back(packet.rssi_db);
  out << "rssi (dB):    median " << ex::Fmt(dsp::Median(rssi), 1) << ", p5 "
      << ex::Fmt(dsp::Quantile(rssi, 0.05), 1) << ", p95 "
      << ex::Fmt(dsp::Quantile(rssi, 0.95), 1) << "\n";
  return 0;
}

int ExportCsv(const Args& args, std::ostream& out) {
  const auto session = nic::ReadCsiSession(args.positional[0]);
  nic::ExportCsiCsv(args.positional[1], session);
  out << "exported " << session.size() << " packets to " << args.positional[1]
      << "\n";
  return 0;
}

int Detect(const Args& args, std::ostream& out) {
  const auto calibration_path = Option(args, "calibration", "");
  const auto session_path = Option(args, "session", "");
  if (calibration_path.empty() || session_path.empty()) {
    throw PreconditionError(
        "--calibration <file> and --session <file> are required");
  }
  const bool metrics_table = args.options.count("metrics") > 0;
  const bool metrics_json = args.options.count("metrics-json") > 0;
  const bool guard_json = args.options.count("guard-json") > 0;
  // With --guard (or --guard-json, which implies it) the session is read
  // tolerantly: corrupt (non-finite) frames reach the frame guard, which
  // quarantines them with a diagnosis instead of the loader rejecting the
  // whole file. Calibration must be clean either way.
  const bool guard = args.options.count("guard") > 0 || guard_json;

  // Validate every option before touching the filesystem, so a malformed
  // invocation is always exit code 2 even when the files are bad too.
  core::DetectorConfig config;
  config.scheme = SchemeByName(Option(args, "scheme", "combined"));
  config.window_packets = static_cast<std::size_t>(
      ParseU64("window", Option(args, "window", "25")));

  const auto calibration = nic::ReadCsiSession(calibration_path);
  const auto session = nic::ReadCsiSession(
      session_path,
      guard ? nic::CsiReadMode::kTolerant : nic::CsiReadMode::kStrict);

  const auto band = wifi::BandPlan::Intel5300Channel11();
  const wifi::UniformLinearArray array(calibration.front().NumAntennas(),
                                       kWavelength / 2.0, kPi / 2.0);
  auto detector = core::Detector::Calibrate(calibration, band, array, config);

  // Threshold from the calibration session's own windows.
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
  for (std::size_t start = 0;
       start + config.window_packets <= calibration.size();
       start += config.window_packets) {
    empty_windows.emplace_back(
        calibration.begin() + static_cast<std::ptrdiff_t>(start),
        calibration.begin() +
            static_cast<std::ptrdiff_t>(start + config.window_packets));
  }
  detector.CalibrateThreshold(empty_windows);
  out << "scheme " << core::ToString(config.scheme) << ", threshold "
      << ex::Fmt(detector.threshold(), 4) << "\n";

  // Batch the whole session through the sensing engine: one decision per
  // non-overlapping window, scored on persistent per-link scratch.
  const bool adaptive = args.options.count("adaptive") > 0;
  core::StreamingConfig stream;
  stream.window_packets = config.window_packets;
  stream.hop_packets = config.window_packets;
  stream.use_hmm = false;
  stream.guard_enabled = guard;
  stream.calibration.enabled = adaptive;
  // The calibrator's quiet-score prior comes from the calibration session's
  // own window scores (the same windows the threshold was fitted on).
  std::vector<double> empty_scores;
  if (adaptive) {
    core::DetectorScratch scratch;
    for (const auto& window : empty_windows) {
      empty_scores.push_back(
          detector.Score(std::span<const wifi::CsiPacket>(window), scratch));
    }
  }
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, stream);
  const auto& batch =
      engine.ProcessBatch(std::span<const wifi::CsiPacket>(session));
  for (std::size_t i = 0; i < batch.decisions.size(); ++i) {
    const auto& decision = batch.decisions[i];
    out << "window " << i << "  t="
        << ex::Fmt(static_cast<double>(i * config.window_packets) / 50.0, 1)
        << "s  score " << ex::Fmt(decision.score, 4) << "  "
        << (decision.occupied ? "PRESENT" : "-")
        << (decision.degraded ? "  [degraded]" : "") << "\n";
  }
  if (guard && !guard_json) {
    const nic::LinkHealth health = engine.Health(0);
    out << "link health:  " << nic::ToString(nic::Status(health)) << "\n"
        << "  frames:     " << health.received << " received, "
        << health.accepted << " accepted, " << health.repaired
        << " repaired, " << health.quarantined << " quarantined, "
        << health.missing << " missing\n";
    for (std::size_t f = 0; f < nic::kNumFrameFaults; ++f) {
      const auto fault = static_cast<nic::FrameFault>(1u << f);
      if (health.fault_counts[f] > 0) {
        out << "  fault:      " << nic::ToString(fault) << " x"
            << health.fault_counts[f] << "\n";
      }
    }
    if (health.dead_antenna_mask != 0) {
      out << "  dead mask:  0x" << std::hex << health.dead_antenna_mask
          << std::dec << "\n";
    }
    if (health.degraded_decisions > 0) {
      out << "  degraded:   " << health.degraded_decisions
          << " decisions on the fallback statistic\n";
    }
    // Raised only by the calibration ladder, i.e. with --adaptive.
    if (health.profile_drift) {
      out << "  WATCHDOG:   static profile drift detected — "
             "recalibration due\n";
    }
  }
  if (adaptive) {
    const nic::LinkHealth health = engine.Health(0);
    out << "calibration:  " << nic::ToString(health.calibration_state) << ", "
        << health.quiet_windows << " quiet windows, " << health.profile_swaps
        << " swaps";
    if (health.profile_swaps > 0) {
      out << ", threshold " << ex::Fmt(health.adaptive_threshold, 4);
    }
    out << "\n";
  }
  if (guard_json) {
    obs::WriteLinkHealthJson(out, engine.Health(0));
    out << "\n";
  }
  if (metrics_table || metrics_json) {
    const obs::Registry totals = engine.AggregateMetrics();
    if (metrics_table) obs::WriteMetricsTable(out, totals);
    if (metrics_json) {
      obs::WriteMetricsJson(out, totals);
      out << "\n";
    }
  }
  return 0;
}

int Campaign(const Args& args, std::ostream& out) {
  ex::CampaignConfig config;
  config.seed = ParseU64("seed", Option(args, "seed", "7"));
  config.window_packets = static_cast<std::size_t>(
      ParseU64("window", Option(args, "window", "25")));
  config.packets_per_location = static_cast<std::size_t>(ParseU64(
      "packets-per-location", Option(args, "packets-per-location", "150")));
  config.calibration_packets = static_cast<std::size_t>(ParseU64(
      "calibration-packets", Option(args, "calibration-packets", "200")));
  config.empty_packets = static_cast<std::size_t>(
      ParseU64("empty-packets", Option(args, "empty-packets", "150")));
  const auto threads = static_cast<std::size_t>(
      ParseU64("threads", Option(args, "threads", "1")));
  const auto trace_path = Option(args, "trace-json", "");
  config.collect_trace = !trace_path.empty();

  const ex::ParallelCampaignRunner runner(threads);
  const auto result = runner.RunPaper(config);

  for (const auto& scheme : result.schemes) {
    out << core::ToString(scheme.scheme) << ": AUC "
        << ex::Fmt(scheme.Roc().Auc(), 4) << "  (" << scheme.positives.size()
        << " positive / " << scheme.negatives.size()
        << " negative windows)\n";
  }
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      throw Error("campaign: cannot write trace file '" + trace_path + "'");
    }
    obs::WriteChromeTrace(trace_out,
                          std::span<const obs::TraceEvent>(result.trace));
    out << "wrote " << result.trace.size() << " trace events to "
        << trace_path << "\n";
  }
  if (args.options.count("metrics") > 0) {
    obs::WriteMetricsTable(out, result.metrics);
  }
  if (args.options.count("metrics-json") > 0) {
    obs::WriteMetricsJson(out, result.metrics);
    out << "\n";
  }
  return 0;
}

int Spectrum(const Args& args, std::ostream& out) {
  const auto calibration_path = Option(args, "calibration", "");
  if (calibration_path.empty()) {
    throw PreconditionError("--calibration <file> is required");
  }
  const auto calibration = nic::ReadCsiSession(calibration_path);
  const auto band = wifi::BandPlan::Intel5300Channel11();
  const wifi::UniformLinearArray array(calibration.front().NumAntennas(),
                                       kWavelength / 2.0, kPi / 2.0);
  const auto clean = core::SanitizePhase(calibration, band);
  const auto spectrum = core::ComputeMusicSpectrum(clean, array, band);
  const double peak = dsp::Max(spectrum.power);
  for (std::size_t i = 0; i < spectrum.theta_deg.size(); i += 5) {
    const double db =
        10.0 * std::log10(std::max(spectrum.power[i] / peak, 1e-9));
    const int bars = std::max(0, static_cast<int>(40.0 + db));
    out << ex::Fmt(spectrum.theta_deg[i], 0) << "\t"
        << std::string(static_cast<std::size_t>(bars), '#') << "\n";
  }
  out << "peaks:";
  for (double angle : spectrum.PeakAngles(3)) {
    out << " " << ex::Fmt(angle, 1) << "deg";
  }
  out << "\n";
  return 0;
}

int Breath(const Args& args, std::ostream& out) {
  const auto session_path = Option(args, "session", "");
  if (session_path.empty()) {
    throw PreconditionError("--session <file> is required");
  }
  const auto session = nic::ReadCsiSession(session_path);
  const double rate = ParseDouble("rate", Option(args, "rate", "50"));
  const auto estimate = core::EstimateBreathing(session, rate);
  out << "respiration: " << ex::Fmt(estimate.rate_hz * 60.0, 1)
      << " breaths/min (confidence " << ex::Fmt(estimate.confidence, 1)
      << ", "
      << (estimate.confidence > 3.0 ? "tracking" : "no clear breather")
      << ")\n";
  return 0;
}

serve::BackPressure PolicyByName(const std::string& name) {
  if (name == "block") return serve::BackPressure::kBlock;
  if (name == "drop-oldest") return serve::BackPressure::kDropOldest;
  if (name == "reject-newest") return serve::BackPressure::kRejectNewest;
  throw PreconditionError("unknown policy '" + name +
                          "' (block|drop-oldest|reject-newest)");
}

int Serve(const Args& args, std::ostream& out) {
  const auto num_links = static_cast<std::size_t>(
      ParseU64("links", Option(args, "links", "32")));
  const auto num_shards = static_cast<std::size_t>(
      ParseU64("shards", Option(args, "shards", "1")));
  const auto packets_per_link = static_cast<std::size_t>(
      ParseU64("packets", Option(args, "packets", "120")));
  if (num_links == 0 || packets_per_link == 0) {
    throw PreconditionError("--links and --packets must be >= 1");
  }
  core::DetectorConfig config;
  config.scheme = SchemeByName(Option(args, "scheme", "combined"));
  config.window_packets = static_cast<std::size_t>(
      ParseU64("window", Option(args, "window", "25")));
  const auto hop = static_cast<std::size_t>(
      ParseU64("hop", Option(args, "hop", "1")));

  serve::ServeConfig scfg;
  scfg.num_shards = num_shards;
  scfg.queue_capacity = static_cast<std::size_t>(
      ParseU64("queue", Option(args, "queue", "1024")));
  scfg.policy = PolicyByName(Option(args, "policy", "drop-oldest"));
  scfg.deterministic = args.options.count("deterministic") > 0;
  scfg.max_resident_per_shard = static_cast<std::size_t>(
      ParseU64("max-resident", Option(args, "max-resident", "0")));
  const auto log_path = Option(args, "decision-log", "");
  scfg.collect_decision_log = !log_path.empty();
  scfg.stream.window_packets = config.window_packets;
  scfg.stream.hop_packets = hop;
  scfg.stream.use_hmm = false;

  // One channel-config profile calibrated from a simulated empty capture;
  // every fleet link shares its immutable detector and scores through the
  // shard's shared scratch.
  Rng rng(ParseU64("seed", Option(args, "seed", "7")));
  const auto lc = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(lc);
  const auto calibration = sim.CaptureSession(400, std::nullopt, rng);
  const auto band = wifi::BandPlan::Intel5300Channel11();
  const wifi::UniformLinearArray array(calibration.front().NumAntennas(),
                                       kWavelength / 2.0, kPi / 2.0);
  auto detector = core::Detector::Calibrate(calibration, band, array, config);
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
  for (std::size_t start = 0;
       start + config.window_packets <= calibration.size();
       start += config.window_packets) {
    empty_windows.emplace_back(
        calibration.begin() + static_cast<std::ptrdiff_t>(start),
        calibration.begin() +
            static_cast<std::ptrdiff_t>(start + config.window_packets));
  }
  detector.CalibrateThreshold(empty_windows);
  std::vector<double> empty_scores;
  {
    core::DetectorScratch scratch;
    for (const auto& window : empty_windows) {
      empty_scores.push_back(
          detector.Score(std::span<const wifi::CsiPacket>(window), scratch));
    }
  }
  const auto shared =
      std::make_shared<const core::Detector>(std::move(detector));

  serve::ServeCore core(scfg);
  const auto profile = core.RegisterProfile(shared, empty_scores);
  core.Start();

  // Per-link RNG streams forked in link order on this thread, so every
  // link's frame sequence is invariant under shard count — the determinism
  // contract's precondition.
  std::vector<Rng> link_rngs;
  link_rngs.reserve(num_links);
  for (std::size_t l = 0; l < num_links; ++l) link_rngs.push_back(rng.Fork());

  const auto start_time = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < packets_per_link; ++p) {
    for (std::size_t l = 0; l < num_links; ++l) {
      core.Submit(static_cast<std::uint64_t>(l), profile,
                  sim.CapturePacket(std::nullopt, link_rngs[l]));
    }
  }
  core.Drain();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_time)
                           .count();
  core.Stop();

  const auto stats = core.Stats();
  std::uint64_t routed = 0, dropped = 0, rejected = 0, decisions = 0;
  std::uint64_t admitted = 0, evicted = 0;
  for (const auto& s : stats) {
    routed += s.frames_routed;
    dropped += s.frames_dropped;
    rejected += s.frames_rejected;
    decisions += s.decisions;
    admitted += s.links_admitted;
    evicted += s.links_evicted;
  }
  out << "serve: " << num_links << " links over " << stats.size()
      << " shard(s), policy "
      << serve::ToString(scfg.deterministic ? serve::BackPressure::kBlock
                                            : scfg.policy)
      << (scfg.deterministic ? " (deterministic)" : "") << "\n"
      << "  frames:    " << routed << " routed, " << dropped << " dropped, "
      << rejected << " rejected\n"
      << "  links:     " << admitted << " admitted, " << evicted
      << " evicted\n"
      << "  decisions: " << decisions << " ("
      << ex::Fmt(elapsed > 0.0 ? static_cast<double>(decisions) / elapsed
                               : 0.0,
                 0)
      << " decisions/s)\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out << "  shard " << i << ":   " << stats[i].frames_processed
        << " frames, " << stats[i].decisions << " decisions, "
        << stats[i].resident_links << " resident, max queue depth "
        << stats[i].max_depth << "\n";
  }

  if (!log_path.empty()) {
    // Hexfloat serialization so bit-identity across shard counts can be
    // checked with a byte compare of the files.
    std::ofstream log(log_path);
    if (!log) {
      throw Error("cannot write decision log '" + log_path + "'");
    }
    log << std::hexfloat;
    for (const auto& record : core.MergedDecisionLog()) {
      log << record.link_id << " " << record.decision.score << " "
          << (record.decision.occupied ? 1 : 0) << " "
          << record.decision.posterior << " "
          << (record.decision.degraded ? 1 : 0) << "\n";
    }
    out << "  log:       wrote decision log to " << log_path << "\n";
  }
  if (args.options.count("metrics-json") > 0) {
    obs::WriteMetricsJson(out, core.AggregateMetrics());
    out << "\n";
  }
  return 0;
}

void Usage(std::ostream& out) {
  out << "mulink — multipath link characterization toolkit\n\ncommands:\n";
  for (const auto& spec : Specs()) {
    out << "  " << spec.usage << "\n";
  }
  out << "\n"
         "exit codes: 0 ok, 1 runtime error, 2 bad usage/input,\n"
         "            3 numerical failure, 4 internal invariant violation,\n"
         "            5 unexpected exception\n";
}

}  // namespace

namespace mulink::tools {

int RunCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err) {
  // Each tier of the mulink error hierarchy maps to its own exit code so
  // scripts can tell bad input (2) from numerical trouble (3) from library
  // bugs (4) without parsing stderr.
  try {
    const std::string command = argv.empty() ? "" : argv[0];
    if (command.empty()) {
      Usage(out);
      return 0;
    }
    for (const auto& spec : Specs()) {
      if (command != spec.name) continue;
      const Args args = Parse(argv, spec);
      if (command == "simulate") return Simulate(args, out);
      if (command == "info") return Info(args, out);
      if (command == "export-csv") return ExportCsv(args, out);
      if (command == "detect") return Detect(args, out);
      if (command == "campaign") return Campaign(args, out);
      if (command == "spectrum") return Spectrum(args, out);
      if (command == "breath") return Breath(args, out);
      if (command == "serve") return Serve(args, out);
    }
    throw PreconditionError("unknown command '" + command +
                            "' (run 'mulink' for usage)");
  } catch (const PreconditionError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const NumericalError& e) {
    err << "error: " << e.what() << "\n";
    return 3;
  } catch (const InvariantError& e) {
    err << "internal error: " << e.what() << "\n";
    return 4;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "unexpected error: " << e.what() << "\n";
    return 5;
  }
}

}  // namespace mulink::tools
