#!/usr/bin/env python3
"""Unit tests for mulink-analyze, run under ctest (MulinkAnalyze.UnitTests).

Everything runs in-process through mulink_analyze.run() — the same entry
the CLI uses — so the exit-code contract (0 clean / 1 findings / 2 usage
error, the table tools/cli.h also follows) is pinned where it is
implemented.

Each rule class carries planted-defect tests (the acceptance demo): an
allocation anywhere in a hot-path TU (constructors and namespace scope
included), an fma in library code, an ambient RNG in any scanned
directory, an order-less atomic access, a direct obs Registry call, a
printf in library code, an intrinsic outside src/kernels — every one must
exit non-zero. The negative space is tested just as hard: annotated sites,
cold TUs, the rng home, presentation code that may print, shadowing locals
(the spsc_ring.h `const std::size_t seq = ...` pattern), and rule tokens
buried in comments / strings / multi-line raw strings must all stay clean.
"""

import io
import json
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
            return self.run_analyze(["--root", tmp, *extra_argv])

    def assert_each_fails(self, cases, rule, argv=()):
        """Each (file, content, expected location) tree on its own must
        yield a `rule` finding at that location."""
        for rel, content, where in cases:
            with self.subTest(rel=rel, where=where):
                code, out, _ = self.analyze_tree({rel: content}, argv)
                self.assertEqual(code, mulink_analyze.EXIT_FINDINGS, out)
                self.assertIn(f"{where}: [{rule}]", out)


class ExitCodeContract(AnalyzeHarness):
    """Exit codes 0/1/2, same table as tools/cli.h."""

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
    """Every allocation token in a non-cold hot-path TU needs a reviewed
    allow(alloc) annotation — whether or not a MULINK_HOT function calls
    it, and wherever it sits in the file."""

    def test_direct_allocation_in_hot_function_fails(self):
        self.assert_each_fails([
            ("src/core/score.cpp",
             "MULINK_HOT double Score(int n) {\n"
             "  double* p = new double[8];\n"
             "  return p[0] * n;\n"
             "}\n", "src/core/score.cpp:2"),
            ("src/core/detector.cpp",
             "void Score() {\n"
             "  double* tmp = new double[64];\n"
             "  delete[] tmp;\n"
             "}\n", "src/core/detector.cpp:2"),
            ("src/linalg/solve.cpp",
             "void F(V& v) { v.push_back(1.0); }\n",
             "src/linalg/solve.cpp:1"),
            # The kernel layer is a hot-path directory too.
            ("src/kernels/scratch.cpp",
             "void F(V& v) { v.resize(8); }\n",
             "src/kernels/scratch.cpp:1"),
            ("src/core/table.cpp",
             "int* kTable = new int[4];\n", "src/core/table.cpp:1"),
        ], "hot-path-alloc", ["--rule", "hot-path-alloc"])

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

    def test_every_allocation_token_fails(self):
        self.assert_each_fails([
            ("src/serve/a.cpp", "void F(D& d) { d.push_front(1); }\n",
             "src/serve/a.cpp:1"),
            ("src/serve/b.cpp", "void F(D& d) { d->emplace_front(1); }\n",
             "src/serve/b.cpp:1"),
            ("src/serve/c.cpp", "void* F() { return malloc(64); }\n",
             "src/serve/c.cpp:1"),
            ("src/serve/d.h", "struct S {\n  std::function<void()> cb;\n};\n",
             "src/serve/d.h:2"),
            ("src/serve/e.cpp",
             "auto F(int x) { return std::to_string(x); }\n",
             "src/serve/e.cpp:1"),
        ], "hot-path-alloc", ["--rule", "hot-path-alloc"])

    def test_setup_allocation_in_hot_tu_fails(self):
        # No MULINK_HOT function reaches it, but the TU sits under a hot
        # directory: setup allocations there carry an allow(alloc) claim.
        self.assert_each_fails([
            ("src/core/setup.cpp",
             "void BuildTables(std::vector<double>& v) {\n"
             "  v.resize(1024);\n"
             "}\n", "src/core/setup.cpp:2"),
        ], "hot-path-alloc", ["--rule", "hot-path-alloc"])

    def test_constructor_allocation_fails(self):
        self.assert_each_fails([
            ("src/serve/slab.h",
             "class Slab {\n"
             " public:\n"
             "  Slab() { storage_.resize(4096); }\n"
             "  MULINK_HOT double* Get() { return storage_.data(); }\n"
             " private:\n"
             "  std::vector<double> storage_;\n"
             "};\n", "src/serve/slab.h:3"),
            ("src/core/ring.cpp",
             "Ring::Ring(int n) : cells_(n) {\n"
             "  cells_.push_back(0);\n"
             "}\n", "src/core/ring.cpp:2"),
        ], "hot-path-alloc", ["--rule", "hot-path-alloc"])

    def test_allow_annotation_suppresses(self):
        for files in (
            {"src/core/score.cpp":
             "MULINK_HOT double Score(std::vector<double>& v) {\n"
             "  // mulink-lint: allow(alloc): amortized growth, measured\n"
             "  v.push_back(1.0);\n"
             "  return v.back();\n"
             "}\n"},
            {"src/dsp/fft.cpp":
             "void Setup(V& v, int n) {\n"
             "  // mulink-lint: allow(alloc): ctor, setup path\n"
             "  v.reserve(n);\n"
             "  v.resize(n);  // mulink-lint: allow(alloc): warm\n"
             "}\n"},
        ):
            with self.subTest(files=list(files)):
                code, out, _ = self.analyze_tree(
                    files, ["--rule", "hot-path-alloc"])
                self.assertEqual(code, mulink_analyze.EXIT_CLEAN, out)

    def test_cold_tu_marker_opts_out(self):
        code, _, _ = self.analyze_tree({
            "src/core/report.cpp":
            "// mulink-lint: cold-tu(report generation, not on any hot path)\n"
            "MULINK_HOT void Oddball(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n",
            "src/core/roc.cpp":
            "// mulink-lint: cold-tu(offline analysis)\n"
            "void Build(V& v) { v.push_back(1); }\n",
        }, ["--rule", "hot-path-alloc"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_alloc_outside_hot_dirs_is_clean(self):
        code, _, _ = self.analyze_tree({
            "src/experiments/campaign.cpp":
            "MULINK_HOT void Run(std::vector<double>& v) {\n"
            "  v.push_back(1.0);\n"
            "}\n",
            "src/wifi/csi.cpp": "void F(V& v) { v.push_back(1); }\n",
            "tools/cli.cpp": "int* p = new int[4];\n",
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
            "}\n",
            "src/core/detector.cpp":
            "// the newest window wins; we never resize( here\n"
            "/* malloc( would be bad */\n"
            "const char* kDoc = \"call v.push_back(x) upstream\";\n",
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_multiline_raw_string_is_opaque(self):
        # A raw string spanning lines whose body mentions allocation,
        # atomic and intrinsic tokens — plain or with a delimiter.
        code, _, _ = self.analyze_tree({
            "src/core/doc.cpp":
            "MULINK_HOT const char* Usage() {\n"
            "  return R\"(usage:\n"
            "    push_back( onto the queue; allocates via new int[4]\n"
            "    counter.fetch_add(1) bumps the total\n"
            "  )\";\n"
            "}\n",
            "src/core/usage.cpp":
            "const char* kUsage = R\"(usage:\n"
            "  push_back( frames onto the ring; new int[4] per slab\n"
            "  _mm256_add_pd( is kernel-layer only\n"
            ")\";\n"
            "void After(V& v) { (void)v; }\n",
            "src/core/json.cpp":
            "const char* kJson = R\"json({\n"
            "  \"hint\": \"resize( the pool)\"\n"
            "})json\";\n",
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_code_after_raw_string_close_is_scanned(self):
        # Lexing resumes right after `)"`: a real allocation on the same
        # line as the close is still caught.
        self.assert_each_fails([
            ("src/core/usage.cpp",
             "const char* kDoc = R\"(doc\n"
             "text)\"; int* p = new int[4];\n", "src/core/usage.cpp:2"),
        ], "hot-path-alloc")

    def test_macro_bodies_are_scanned(self):
        # A #define body is code at every expansion site, continuation
        # lines included; a bare name in it is not a call.
        self.assert_each_fails([
            ("src/core/config.h",
             "#define GROW(v) \\\n"
             "  (v).push_back(0)\n", "src/core/config.h:2"),
        ], "hot-path-alloc")
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
            "}\n",
            "src/core/clock.h":
            "struct Clock {\n  double time() const;\n};\n",
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        self.assertIn("system_clock", out)
        self.assertNotIn("steady_clock`", out)
        self.assertNotIn("clock.h", out)

    def test_ambient_rng_outside_home_fails(self):
        rng_tu = "#include <random>\nstd::mt19937 gen(std::rand());\n"
        self.assert_each_fails([
            ("src/dsp/jitter.cpp",
             "double Jitter() {\n"
             "  static std::mt19937 gen(std::random_device{}());\n"
             "  return static_cast<double>(gen());\n"
             "}\n", "src/dsp/jitter.cpp:2"),
            ("src/nic/sim.cpp", rng_tu, "src/nic/sim.cpp:2"),
            ("tools/x.cpp", rng_tu, "tools/x.cpp:2"),
            ("bench/micro.cpp", rng_tu, "bench/micro.cpp:2"),
        ], "determinism", ["--rule", "determinism"])

    def test_namespace_scope_rng_fails(self):
        self.assert_each_fails([
            ("src/core/seed.cpp",
             "namespace mulink {\n"
             "static std::mt19937 g;\n"
             "}  // namespace mulink\n", "src/core/seed.cpp:2"),
        ], "determinism", ["--rule", "determinism"])

    def test_rng_home_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/common/rng.cpp":
            "// PCG32, no std::mt19937 needed\n"
            "std::uint32_t x = std::random_device{}();\n"
            "unsigned Draw() {\n"
            "  static std::mt19937_64 gen(0xBEEF);\n"
            "  return static_cast<unsigned>(gen());\n"
            "}\n"
        }, ["--rule", "determinism"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_time_null_seed_fails(self):
        self.assert_each_fails([
            ("src/experiments/seed.cpp",
             "long Seed() { return time(nullptr); }\n",
             "src/experiments/seed.cpp:1"),
            ("src/nic/sim.cpp", "auto seed = time(nullptr);\n",
             "src/nic/sim.cpp:1"),
            ("tools/seed.cpp", "auto seed = time(NULL);\n",
             "tools/seed.cpp:1"),
            ("bench/seed.cpp", "auto seed = std::time(NULL);\n",
             "bench/seed.cpp:1"),
        ], "determinism", ["--rule", "determinism"])

    def test_allow_annotation_suppresses(self):
        code, _, _ = self.analyze_tree({
            "src/obs/clock.cpp":
            "long Wall() {\n"
            "  // mulink-lint: allow(determinism): artifact timestamps\n"
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
            "  // mulink-lint: allow(atomics): sc fence intended here\n"
            "  head_.fetch_add(1);\n"
            "}\n"
        }, ["--rule", "atomics"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class ObsDisciplineRule(AnalyzeHarness):
    def test_direct_registry_call_fails(self):
        self.assert_each_fails([
            ("src/core/engine.cpp",
             "void Tick(obs::Registry& metrics) {\n"
             "  metrics.Add(obs::Counter::kFramesIngested, 1);\n"
             "}\n", "src/core/engine.cpp:2"),
            ("src/core/engine.cpp",
             "void F(R* m) { m->Add(obs::Counter::kDecisions); }\n",
             "src/core/engine.cpp:1"),
        ], "obs-discipline", ["--rule", "obs-discipline"])

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

    def test_obs_subsystem_and_presentation_code_are_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/obs/registry.cpp":
            "void Registry::Add(obs::Counter c, std::uint64_t d) {\n"
            "  counters_[static_cast<std::size_t>(c)]"
            ".fetch_add(d, std::memory_order_relaxed);\n"
            "}\n"
            "void Forward(Registry& r) {\n"
            "  r.Add(obs::Counter::kFramesIngested, 1);\n"
            "}\n",
            "bench/micro.cpp":
            "void Probe(obs::Registry& r) {\n"
            "  r.RecordStageNs(obs::Stage::kScore, 10);\n"
            "}\n",
        }, ["--rule", "obs-discipline"])
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class StdoutRule(AnalyzeHarness):
    def test_printing_in_library_fails(self):
        self.assert_each_fails([
            ("src/obs/export.cpp", 'void P() { std::cout << "hi"; }\n',
             "src/obs/export.cpp:1"),
            ("src/core/engine.cpp", 'void P() { printf("x"); }\n',
             "src/core/engine.cpp:1"),
            ("src/nic/dump.cpp", 'void P() { std::fputs("x", stdout); }\n',
             "src/nic/dump.cpp:1"),
        ], "stdout")

    def test_tools_examples_bench_may_print(self):
        code, _, _ = self.analyze_tree({
            "tools/cli.cpp": 'void P() { std::cout << "ok"; }\n',
            "examples/quickstart.cpp": 'void Q() { printf("ok"); }\n',
            "bench/micro.cpp": 'void R() { puts("ok"); }\n',
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)


class IntrinsicsRule(AnalyzeHarness):
    """Vector code lives only in src/kernels, behind the dispatch layer."""

    VECTOR_FN = ("void F(double* p) {\n"
                 "  __m256d v = _mm256_loadu_pd(p);\n"
                 "  _mm256_storeu_pd(p, v);\n"
                 "}\n")

    def test_intrinsics_outside_kernels_fail(self):
        self.assert_each_fails([
            ("src/core/detector.cpp", "#include <immintrin.h>\n",
             "src/core/detector.cpp:1"),
            ("src/dsp/filter.cpp", self.VECTOR_FN, "src/dsp/filter.cpp:2"),
            ("src/dsp/filter.cpp", self.VECTOR_FN, "src/dsp/filter.cpp:3"),
            ("bench/micro.cpp", self.VECTOR_FN, "bench/micro.cpp:2"),
            ("tools/x.cpp", self.VECTOR_FN, "tools/x.cpp:3"),
        ], "intrinsics")

    PREFETCH_FN = ("void F(const Frame* f) {\n"
                   "  __builtin_prefetch(f->csi, 0, 3);\n"
                   "  _mm_prefetch(f->meta, _MM_HINT_T0);\n"
                   "  asm volatile(\"prefetchw %0\" : : \"m\"(*f->slot));\n"
                   "}\n")

    def test_prefetch_and_asm_outside_kernels_fail(self):
        self.assert_each_fails([
            ("src/serve/serve.cpp", self.PREFETCH_FN, "src/serve/serve.cpp:2"),
            ("src/serve/serve.cpp", self.PREFETCH_FN, "src/serve/serve.cpp:3"),
            ("src/serve/serve.cpp", self.PREFETCH_FN, "src/serve/serve.cpp:4"),
            ("bench/micro.cpp", self.PREFETCH_FN, "bench/micro.cpp:2"),
        ], "intrinsics")

    def test_prefetch_in_kernels_dir_is_exempt(self):
        code, _, _ = self.analyze_tree({"src/kernels/kernels.h": self.PREFETCH_FN})
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_kernels_dir_is_exempt(self):
        code, _, _ = self.analyze_tree({
            "src/kernels/kernels_avx2.cpp":
            "#include <immintrin.h>\n"
            "void F(double* p) { _mm256_storeu_pd(p, _mm256_setzero_pd()); }\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_annotated_intrinsic_is_allowed(self):
        code, _, _ = self.analyze_tree({
            "src/dsp/fft.cpp":
            "// mulink-lint: allow(intrinsics): prefetch hint only\n"
            "void F(const double* p) { _mm_prefetch(p, 1); }\n"
            "#include <x86intrin.h>  // mulink-lint: allow(intrinsics): rdtsc\n"
        })
        self.assertEqual(code, mulink_analyze.EXIT_CLEAN)

    def test_intrinsic_tokens_in_comments_ignored(self):
        code, _, _ = self.analyze_tree({
            "src/core/detector.cpp":
            "// the kernels layer uses _mm256_fmadd_pd( internally\n"
            "const char* kDoc = \"__m256d lanes\";\n"
        })
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
                ["--root", tmp, "--write-baseline", str(base)])
            self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
            payload = json.loads(base.read_text())
            self.assertEqual(len(payload["findings"]), 1)
            # With the baseline applied, the accepted finding is filtered
            # and the run is clean.
            code, out, _ = self.run_analyze(
                ["--root", tmp, "--baseline", str(base)])
            self.assertEqual(code, mulink_analyze.EXIT_CLEAN)
            self.assertIn("0 finding(s)", out)

    def test_new_defect_pierces_old_baseline(self):
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), self.DEFECT)
            base = Path(tmp) / "baseline.json"
            self.run_analyze(["--root", tmp, "--write-baseline", str(base)])
            make_tree(Path(tmp), {
                "src/core/fresh.cpp":
                "MULINK_HOT void Fresh() { int* p = new int[4]; (void)p; }\n"
            })
            code, out, _ = self.run_analyze(
                ["--root", tmp, "--baseline", str(base)])
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
                ["--root", tmp, "--baseline", str(bad)])
        self.assertEqual(code, mulink_analyze.EXIT_USAGE)
        self.assertIn("malformed baseline", err)

    def test_shipped_baseline_is_empty(self):
        # The checked-in baseline carries zero accepted findings — CI's
        # empty-baseline gate in .github/workflows/ci.yml asserts the same.
        shipped = Path(__file__).resolve().parent / "baseline.json"
        payload = json.loads(shipped.read_text())
        self.assertEqual(payload["findings"], [])


class CliSurface(AnalyzeHarness):
    def test_rule_filter_runs_only_that_rule(self):
        files = {
            "src/core/both.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n"
            "double Blend(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
            "void Say() { printf(\"x\"); }\n"
            "#include <immintrin.h>\n"
        }
        for rule, token in (("determinism", "fma"), ("stdout", "printf"),
                            ("intrinsics", "immintrin")):
            with self.subTest(rule=rule):
                code, out, _ = self.analyze_tree(files, ["--rule", rule])
                self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
                self.assertIn(token, out)
                for other in mulink_analyze.RULES:
                    if other != rule:
                        self.assertNotIn(f"[{other}]", out)

    def test_json_output_is_machine_readable(self):
        code, out, _ = self.analyze_tree({
            "src/core/score.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n"
        }, ["--json"])
        self.assertEqual(code, mulink_analyze.EXIT_FINDINGS)
        payload = json.loads(out)
        self.assertEqual(payload["files_scanned"], 1)
        self.assertEqual(len(payload["findings"]), 1)
        finding = payload["findings"][0]
        self.assertEqual(finding["rule"], "hot-path-alloc")
        self.assertEqual(finding["file"], "src/core/score.cpp")
        self.assertEqual(finding["function"], "Hot")

    def test_explicit_file_list_restricts_scan(self):
        files = {
            "src/core/bad.cpp":
            "MULINK_HOT void Hot() { int* p = new int[4]; (void)p; }\n",
            "src/core/good.cpp": "void Fine() {}\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            make_tree(Path(tmp), files)
            code, _, _ = self.run_analyze(
                ["--root", tmp, "src/core/good.cpp"])
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
