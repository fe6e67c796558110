#!/usr/bin/env python3
"""Unit tests for mulink-analyze, run under ctest (MulinkAnalyze.UnitTests).

Everything runs in-process through mulink_analyze.run() — the same entry
the CLI uses — so the exit-code contract (0 clean / 1 findings / 2 usage
error, the table mulink-lint and tools/cli.h also follow) is pinned where
it is implemented.

Each rule class carries planted-defect tests (the acceptance demo): a
helper allocation reached transitively from a MULINK_HOT root, an fma in
library code, an order-less atomic access, a direct obs Registry call —
every one must exit non-zero. The negative space is tested just as hard:
constructors, annotated sites, cold TUs, the rng home, shadowing locals
(the spsc_ring.h `const std::size_t seq = ...` pattern), and allocation
tokens buried in comments / strings / multi-line raw strings must all stay
clean. These run on the always-available micro backend; the cindex backend
soft-skip contract is tested in both directions.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import mulink_analyze  # noqa: E402


def make_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


class AnalyzeHarness(unittest.TestCase):
    def run_analyze(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = mulink_analyze.run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def analyze_tree(self, files: dict[str, str], extra_argv=()):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), files)
            return self.run_analyze(
                ["--root", tmp, "--backend", "micro", *extra_argv])


class ExitCodeContract(AnalyzeHarness):
    """Exit codes 0/1/2, same table as mulink-lint and tools/cli.h."""

    def test_clean_tree_exits_0(self):
        code, out, _ = self.analyze_tree({
            "src/core/thing.cpp":
            "namespace mulink {\n"
            "double Sum(const double* x, int n) {\n"
            "  double s = 0.0;\n"
            "  for (int i = 0; i < n; ++i) s += x[i];\n"
            "  return s;\n"
            "}\n"
            "}  // namespace mulink\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
        self.assertIn("0 finding(s)", out)

    def test_findings_exit_1(self):
        code, _, _ = self.analyze_tree({
            "src/core/thing.cpp":
            "MULINK_HOT void Hot(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)

    def test_unknown_flag_exits_2(self):
        code, _, _ = self.run_analyze(["--no-such-flag"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)

    def test_unknown_rule_exits_2(self):
        code, _, _ = self.run_analyze(["--rule", "no-such-rule"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)

    def test_missing_root_exits_2(self):
        code, _, err = self.run_analyze(["--root", "/no/such/dir/anywhere"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("no such directory", err)

    def test_missing_file_argument_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = self.run_analyze(
                ["--root", tmp, "src/nope.cpp"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("no such file", err)

    def test_list_rules_exits_0(self):
        code, out, _ = self.run_analyze(["--list-rules"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
        for rule in mulink_analyze.RULES:
            self.assertIn(rule, out)


class HotPathAllocRule(AnalyzeHarness):
    """Allocation reachability from MULINK_HOT roots — the semantic upgrade
    over the lint's per-TU token rule."""

    def test_direct_allocation_in_hot_function_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(int n) {\n"
            "  double* p = new double[8];\n"
            "  return p[0] * n;\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("hot-path-alloc", out)
        self.assertIn("`new`", out)

    def test_transitive_allocation_through_helper_fails(self):
        # The lint cannot see this: the helper carries no MULINK_HOT marker
        # and lives in a different TU. Reachability through the call graph
        # is the whole point of the analyzer.
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(std::vector<double>& v) {\n"
            "  return Helper(v);\n"
            "}\n",
            "src/core/helper.cpp":
            "double Helper(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "  return v.back();\n"
            "}\n",
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("helper.cpp", out)
        self.assertIn("push_back", out)

    def test_hot_marker_on_header_declaration_roots_the_definition(self):
        code, out, _ = self.analyze_tree({
            "src/core/api.h":
            "#pragma once\n"
            "MULINK_HOT double Score(int n);\n",
            "src/core/api.cpp":
            "#include \"core/api.h\"\n"
            "double Score(int n) {\n"
            "  std::vector<double> tmp;\n"
            "  tmp.reserve(static_cast<std::size_t>(n));\n"
            "  return 0.0;\n"
            "}\n",
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("reserve", out)

    def test_templated_make_unique_and_make_shared_fail(self):
        # The template argument list sits between the name and the call's
        # `(` — nested (`>>`) and qualified arguments included.
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "MULINK_HOT double Push(double x) {\n"
            "  auto one = std::make_unique<double>(1.0);\n"
            "  auto many = std::make_shared<std::vector<int>>(4);\n"
            "  return *one + x + static_cast<double>(many->size());\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("engine.cpp:2", out)
        self.assertIn("`make_unique`", out)
        self.assertIn("engine.cpp:3", out)
        self.assertIn("`make_shared`", out)

    def test_unreachable_allocation_is_clean(self):
        # Same allocation, no path from any hot root: setup code is allowed
        # to allocate. This is the false-positive class the token rule
        # could only handle with blanket cold-tu annotations.
        code, _, _ = self.analyze_tree({
            "src/core/setup.cpp":
            "void BuildTables(std::vector<double>& v) {\n"
            "  v.resize(1024);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_constructors_are_exempt(self):
        # Hot objects allocate in their constructors (slab reservation is
        # the repo-wide idiom); reachability must not walk into ctors.
        code, _, _ = self.analyze_tree({
            "src/serve/slab.h":
            "class Slab {\n"
            " public:\n"
            "  Slab() { storage_.resize(4096); }\n"
            "  MULINK_HOT double* Get() { return storage_.data(); }\n"
            " private:\n"
            "  std::vector<double> storage_;\n"
            "};\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(std::vector<double>& v) {\n"
            "  // mulink-lint: allow(alloc): amortized growth, measured\n"
            "  v.push_back(1.0);\n"
            "  return v.back();\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_cold_tu_marker_opts_out(self):
        code, _, _ = self.analyze_tree({
            "src/core/report.cpp":
            "// mulink-lint: cold-tu(report generation, not on any hot path)\n"
            "MULINK_HOT void Oddball(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_alloc_outside_hot_dirs_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/experiments/campaign.cpp":
            "MULINK_HOT void Run(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n"
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class LexerFidelity(AnalyzeHarness):
    """Rule tokens inside comments and literals never produce findings —
    the analyzer lexes for real instead of regex-stripping."""

    def test_tokens_in_comments_and_strings_ignored(self):
        code, _, _ = self.analyze_tree({
            "src/core/doc.cpp":
            "MULINK_HOT double Score(int n) {\n"
            "  // a cold caller may push_back( into the staging vector\n"
            "  /* new int[4] would be wrong here */\n"
            "  const char* msg = \"calls malloc( under the hood\";\n"
            "  (void)msg;\n"
            "  return 1.0 * n;\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_multiline_raw_string_is_opaque(self):
        # The regression class the token linter historically leaked on:
        # a raw string spanning lines whose body mentions allocation and
        # atomic tokens.
        code, _, _ = self.analyze_tree({
            "src/core/doc.cpp":
            "MULINK_HOT const char* Usage() {\n"
            "  return R\"(usage:\n"
            "    push_back( onto the queue; allocates via new int[4]\n"
            "    counter.fetch_add(1) bumps the total\n"
            "  )\";\n"
            "}\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_preprocessor_lines_are_opaque(self):
        code, _, _ = self.analyze_tree({
            "src/core/config.cpp":
            "#define SCRATCH_HINT push_back\n"
            "MULINK_HOT double Score(int n) { return 1.0 * n; }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class DeterminismRule(AnalyzeHarness):
    def test_fma_outside_kernels_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "double Blend(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("fma", out)

    def test_fma_inside_kernels_is_the_owners_call(self):
        code, _, _ = self.analyze_tree({
            "src/kernels/poly.cpp":
            "double Horner(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_unordered_iteration_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/dump.cpp":
            "std::unordered_map<int, int> table;\n"
            "int Serialize() {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : table) s += kv.second;\n"
            "  return s;\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("unordered", out)

    def test_ordered_iteration_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/serve/dump.cpp":
            "std::map<int, int> table;\n"
            "int Serialize() {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : table) s += kv.second;\n"
            "  return s;\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_wall_clock_fails_steady_clock_clean(self):
        code, out, _ = self.analyze_tree({
            "src/obs/clock.cpp":
            "long Wall() {\n"
            "  return std::chrono::system_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
            "long Mono() {\n"
            "  return std::chrono::steady_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("system_clock", out)
        self.assertNotIn("steady_clock`", out)

    def test_ambient_rng_outside_home_fails(self):
        code, out, _ = self.analyze_tree({
            "src/dsp/jitter.cpp":
            "double Jitter() {\n"
            "  static std::mt19937 gen(std::random_device{}());\n"
            "  return static_cast<double>(gen());\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("mt19937", out)

    def test_rng_home_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/common/rng.cpp":
            "unsigned Draw() {\n"
            "  static std::mt19937_64 gen(0xBEEF);\n"
            "  return static_cast<unsigned>(gen());\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_time_null_seed_fails(self):
        code, _, _ = self.analyze_tree({
            "src/experiments/seed.cpp":
            "long Seed() { return time(nullptr); }\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/obs/clock.cpp":
            "long Wall() {\n"
            "  // mulink-analyze: allow(determinism): artifact timestamps\n"
            "  return std::chrono::system_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


ATOMIC_DECL = "std::atomic<std::size_t> head_{0};\n"


class AtomicsRule(AnalyzeHarness):
    def test_orderless_member_call_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() { head_.fetch_add(1); }\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("explicit memory_order", out)

    def test_operator_form_access_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() { ++head_; }\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("seq_cst by definition", out)

    def test_explicit_orders_are_clean(self):
        code, _, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Publish(std::size_t v) {\n"
            "  head_.store(v, std::memory_order_release);\n"
            "}\n"
            "std::size_t Read() {\n"
            "  return head_.load(std::memory_order_acquire);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_relaxed_store_against_acquire_load_fails(self):
        code, out, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Publish(std::size_t v) {\n"
            "  head_.store(v, std::memory_order_relaxed);\n"
            "}\n"
            "std::size_t Read() {\n"
            "  return head_.load(std::memory_order_acquire);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("no release edge", out)

    def test_constructor_relaxed_seeding_is_exempt(self):
        # spsc_ring.h's cell-sequence seeding: relaxed stores before the
        # object is published are the idiom, not a missing release edge.
        code, _, _ = self.analyze_tree({
            "src/serve/ring.h":
            "class Ring {\n"
            " public:\n"
            "  Ring() { seq_.store(0, std::memory_order_relaxed); }\n"
            "  std::size_t Read() const {\n"
            "    return seq_.load(std::memory_order_acquire);\n"
            "  }\n"
            " private:\n"
            "  std::atomic<std::size_t> seq_{0};\n"
            "};\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_shadowing_local_is_not_an_atomic_access(self):
        # Regression pin for the spsc_ring.h pattern: a local `const
        # std::size_t seq = cell.seq.load(...)` shadows the atomic member
        # name; its initialization is not an operator-form atomic store.
        code, _, _ = self.analyze_tree({
            "src/serve/ring.h":
            "class Ring {\n"
            " public:\n"
            "  bool TryPop() {\n"
            "    const std::size_t seq = seq_.load(std::memory_order_acquire);\n"
            "    return seq != 0;\n"
            "  }\n"
            " private:\n"
            "  std::atomic<std::size_t> seq_{0};\n"
            "};\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/serve/ring.cpp":
            ATOMIC_DECL +
            "void Bump() {\n"
            "  // mulink-analyze: allow(atomics): sc fence intended here\n"
            "  head_.fetch_add(1);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class ObsDisciplineRule(AnalyzeHarness):
    def test_direct_registry_call_fails(self):
        code, out, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  metrics.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("MULINK_OBS_", out)

    def test_direct_timer_construction_fails(self):
        code, _, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  obs::ScopedStageTimer timer(metrics, obs::Stage::kScore);\n"
            "  (void)timer;\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)

    def test_macro_call_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/core/engine.cpp":
            "void Tick(obs::Registry& metrics) {\n"
            "  MULINK_OBS_COUNT(metrics, kFramesIngested, 1);\n"
            "  MULINK_OBS_STAGE_TIMER(metrics, kScore);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_obs_subsystem_itself_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/obs/registry.cpp":
            "void Registry::Add(obs::Counter c, std::uint64_t d) {\n"
            "  counters_[static_cast<std::size_t>(c)]"
            ".fetch_add(d, std::memory_order_relaxed);\n"
            "}\n"
            "void Forward(Registry& r) {\n"
            "  r.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n"
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class BaselineMechanism(AnalyzeHarness):
    DEFECT = {
        "src/core/score.cpp":
        "MULINK_HOT double Score(std::vector<double>& v) {\n"
        "  v.push_back(1.0);\n"
        "  return v.back();\n"
        "}\n"
    }

    def test_write_then_filter_round_trips(self):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), self.DEFECT)
            base = Path(tmp) / "baseline.json"
            code, _, _ = self.run_analyze(
                ["--root", tmp, "--backend", "micro",
                 "--write-baseline", str(base)])
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
            payload = json.loads(base.read_text())
            self.assertEqual(len(payload["findings"]), 1)
            # With the baseline applied, the accepted finding is filtered
            # and the run is clean.
            code, out, _ = self.run_analyze(
                ["--root", tmp, "--backend", "micro",
                 "--baseline", str(base)])
            self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
            self.assertIn("0 finding(s)", out)

    def test_new_defect_pierces_old_baseline(self):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), self.DEFECT)
            base = Path(tmp) / "baseline.json"
            self.run_analyze(["--root", tmp, "--backend", "micro",
                              "--write-baseline", str(base)])
            make_tree(Path(tmp), {
                "src/core/fresh.cpp":
                "MULINK_HOT void Fresh() { int* p = new int[4]; (void)p; }\n"
            })
            code, out, _ = self.run_analyze(
                ["--root", tmp, "--backend", "micro",
                 "--baseline", str(base)])
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
            self.assertIn("fresh.cpp", out)
            self.assertNotIn("score.cpp", out)

    def test_missing_baseline_exits_2(self):
        code, _, err = self.analyze_tree(
            self.DEFECT, ["--baseline", "nope.json"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("no such baseline", err)

    def test_malformed_baseline_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), self.DEFECT)
            bad = Path(tmp) / "bad.json"
            bad.write_text("{not json", encoding="utf-8")
            code, _, err = self.run_analyze(
                ["--root", tmp, "--backend", "micro",
                 "--baseline", str(bad)])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("malformed baseline", err)

    def test_shipped_baseline_is_empty(self):
        # The checked-in baseline carries zero accepted findings — CI's
        # empty-baseline gate in .github/workflows/ci.yml asserts the same.
        shipped = Path(__file__).resolve().parent / "baseline.json"
        payload = json.loads(shipped.read_text())
        self.assertEqual(payload["findings"], [])


class BackendContract(AnalyzeHarness):
    """cindex soft-skips to micro like clang-tidy; demanding it when it is
    absent is a usage error (exit 2), never a silent pass."""

    def cindex_available(self):
        return mulink_analyze.load_cindex() is not None

    def test_micro_backend_always_runs(self):
        code, out, _ = self.analyze_tree(
            {"src/core/empty.cpp": "void Nothing() {}\n"})
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
        self.assertIn("[micro]", out)

    def test_demanded_cindex_without_libclang_exits_2(self):
        if self.cindex_available():
            self.skipTest("clang.cindex is available here")
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), {"src/core/empty.cpp": "void N() {}\n"})
            code, _, err = self.run_analyze(
                ["--root", tmp, "--backend", "cindex"])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("unavailable", err)

    def test_require_env_without_libclang_exits_2(self):
        if self.cindex_available():
            self.skipTest("clang.cindex is available here")
        old = os.environ.get("MULINK_REQUIRE_CINDEX")
        os.environ["MULINK_REQUIRE_CINDEX"] = "1"
        try:
            with tempfile.TemporaryDirectory() as tmp:
                make_tree(Path(tmp), {"src/core/empty.cpp": "void N() {}\n"})
                code, _, _ = self.run_analyze(["--root", tmp])
        finally:
            if old is None:
                os.environ.pop("MULINK_REQUIRE_CINDEX", None)
            else:
                os.environ["MULINK_REQUIRE_CINDEX"] = old
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)

    def test_cindex_backend_matches_micro_on_planted_defect(self):
        if not self.cindex_available():
            self.skipTest("clang.cindex unavailable (soft-skip, like "
                          "clang-tidy)")
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT double Score(int n) {\n"
            "  double* p = new double[8];\n"
            "  return p[0] * n;\n"
            "}\n"
        }, ["--backend", "cindex", "--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("hot-path-alloc", out)


class CliSurface(AnalyzeHarness):
    def test_rule_filter_runs_only_that_rule(self):
        files = {
            "src/core/both.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n"
            "double Blend(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
        }
        code, out, _ = self.analyze_tree(files, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("fma", out)
        self.assertNotIn("hot-path-alloc", out)

    def test_json_output_is_machine_readable(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n"
        }, ["--json"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        payload = json.loads(out)
        self.assertEqual(payload["backend"], "micro")
        self.assertEqual(len(payload["findings"]), 1)
        finding = payload["findings"][0]
        self.assertEqual(finding["rule"], "hot-path-alloc")
        self.assertEqual(finding["file"], "src/core/score.cpp")

    def test_explicit_file_list_restricts_scan(self):
        files = {
            "src/core/bad.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n",
            "src/core/good.cpp": "void Fine() {}\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), files)
            code, _, _ = self.run_analyze(
                ["--root", tmp, "--backend", "micro", "src/core/good.cpp"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class RealTree(unittest.TestCase):
    """The gate the TreeIsClean ctest and CI `analyze` job rely on."""

    def test_repository_is_clean(self):
        repo = Path(__file__).resolve().parent.parent.parent
        out, err = io.StringIO(), io.StringIO()
        code = mulink_analyze.run(
            ["--root", str(repo)], stdout=out, stderr=err)
        self.assertEqual(
            code, mulink_analyze.EXIT_CLEAN,
            f"mulink-analyze found defects in the real tree:\n"
            f"{out.getvalue()}{err.getvalue()}")


if __name__ == "__main__":
    unittest.main()
