#!/usr/bin/env python3
"""mulink-analyze — static enforcement of mulink's source contracts.

The engine's headline guarantees are behavioural: an allocation-free
per-decision hot path, bit-identical scores across backends, threads and
shards (DESIGN.md §14–15), silent library code, observability recording
that compiles out with the MULINK_OBS kill switch, and vector code confined
to the kernel layer. Runtime tests exercise those properties on the inputs
they happen to run; this tool makes the source form of each contract a CI
failure, so a careless edit cannot silently reintroduce a heap allocation
or an ambient RNG that the tests never see.

Engine
------
A full C++ lexer (comments, strings, raw strings, char literals, digit
separators, preprocessor lines) feeds one scan over each file's whole token
stream — namespace scope, class bodies, constructors and function bodies
alike — so a comment or string can never trip a rule and nothing outside a
function body escapes one. A light structural pass recovers the enclosing
function of each finding for the report.

Files scanned: src, tools, examples and bench (default), or the files named
on the command line.

Rules
-----
hot-path-alloc   Every non-cold TU under the hot-path directories (src/core,
                 src/kernels, src/dsp, src/linalg, src/serve) is a
                 no-allocation zone, constructors included: operator new,
                 malloc-family calls, growth calls on std containers/strings
                 (push_back, push_front, resize, reserve, insert, emplace,
                 append, assign, ...), make_unique/make_shared, std::function
                 and std::to_string are findings unless they carry the
                 reviewed `// mulink-lint: allow(alloc): <why>` annotation —
                 a claim that the allocation is setup-path or
                 capacity-reserved, not a per-decision cost.

determinism      No std::fma calls outside src/kernels (the kernel layer owns
                 the FP contraction policy; -ffp-contract=off everywhere
                 else), no range-for iteration over unordered containers
                 (iteration order is unspecified and must never feed
                 serialized output — sort first, like
                 ServeCore::MergedDecisionLog), and no wall-clock or ambient
                 randomness (std::time, time(NULL), system_clock, std::rand,
                 random_device, mt19937, ...) outside src/common/rng — every
                 stochastic draw flows through the seeded, forkable
                 mulink::Rng. Monotonic clocks (steady_clock) are fine: they
                 time stages, they never feed scores.

atomics          Every std::atomic access must say its memory_order out
                 loud: .load()/.store()/exchange/fetch_* without an
                 explicit order, and operator-form accesses (++x, x = v,
                 x += v) — which are seq_cst by definition — are findings.
                 Additionally, a relaxed store to a member that is
                 acquire/seq_cst-loaded elsewhere in the same file is
                 reported (the release edge the load pairs with is
                 missing), except inside constructors, where
                 pre-publication relaxed stores are the idiom
                 (spsc_ring.h's cell seeding).

obs-discipline   Library code (src/** minus src/obs) records metrics and
                 traces only through the MULINK_OBS_* macros: direct
                 Registry::Add/Set/RecordStageNs/SampleIngestTick calls and
                 direct obs::ScopedStageTimer / obs::TraceSpan construction
                 are findings.

stdout           Library code (src/**) may not write to stdout (std::cout,
                 printf, puts, anything naming `stdout`); presentation
                 belongs to tools/, examples/ and bench/. Serializers that
                 take an std::ostream& are fine — the caller picks the sink.

intrinsics       SIMD intrinsics (<immintrin.h>/<x86intrin.h> includes,
                 _mm*_* calls — _mm_prefetch included — __m128/__m256/__m512
                 types), __builtin_prefetch and inline asm appear only in
                 src/kernels, behind runtime dispatch with a scalar twin (or,
                 for cache hints, kernels::Prefetch), so the scalar/AVX2
                 parity tests cover every vectorized path.

Annotations (inside comments, so the compiler never sees them):
  // mulink-lint: allow(<tag>): reason     same or preceding line
  // mulink-lint: cold-tu(reason)          first 30 lines of a TU; opts it
                                           out of hot-path-alloc

Tags: alloc, determinism, atomics, obs, stdout, intrinsics.

Baseline
--------
--baseline FILE filters findings against a checked-in baseline
(tools/mulink-analyze/baseline.json ships EMPTY — the tree owes zero
findings; the file exists so a future emergency has a mechanism, and CI
fails if anyone quietly grows it). --write-baseline FILE records the
current findings.

Exit codes (same table as the mulink CLI):
  0  clean
  1  findings
  2  usage error (unknown flag/rule, unreadable path)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}
SOURCE_DIRS = ("src", "tools", "examples", "bench")

HOT_PATH_DIRS = ("src/core", "src/linalg", "src/dsp", "src/kernels",
                 "src/serve")
KERNEL_DIR = "src/kernels"
LIBRARY_DIR = "src"
OBS_DIR = "src/obs"
RNG_HOME = re.compile(r"^src/common/rng\.(h|cpp)$")

RULES = ("hot-path-alloc", "determinism", "atomics", "obs-discipline",
         "stdout", "intrinsics")

# Annotation tag each rule honours.
RULE_TAG = {
    "hot-path-alloc": "alloc",
    "determinism": "determinism",
    "atomics": "atomics",
    "obs-discipline": "obs",
    "stdout": "stdout",
    "intrinsics": "intrinsics",
}

ANNOTATION_RE = re.compile(r"//\s*mulink-lint:\s*(allow|cold-tu)\(([^)]*)\)")

CPP_KEYWORDS = frozenset("""
alignas alignof and and_eq asm auto bitand bitor bool break case catch char
char8_t char16_t char32_t class co_await co_return co_yield compl concept
const consteval constexpr constinit const_cast continue decltype default
delete do double dynamic_cast else enum explicit export extern false float
for friend goto if inline int long mutable namespace new noexcept not
not_eq nullptr operator or or_eq private protected public register
reinterpret_cast requires return short signed sizeof static static_assert
static_cast struct switch template this thread_local throw true try typedef
typeid typename union unsigned using virtual void volatile wchar_t while
xor xor_eq final override
""".split())

ALLOC_MEMBER_CALLS = frozenset(
    ("resize", "push_back", "emplace_back", "reserve", "insert", "emplace",
     "emplace_front", "push_front", "shrink_to_fit", "assign", "append"))
ALLOC_FREE_CALLS = frozenset(
    ("malloc", "calloc", "realloc", "aligned_alloc", "strdup", "to_string"))

AMBIENT_RNG_NAMES = frozenset(
    ("rand", "srand", "random_device", "mt19937", "mt19937_64",
     "default_random_engine", "minstd_rand", "minstd_rand0", "ranlux24",
     "ranlux48", "knuth_b"))

ATOMIC_MEMBER_CALLS = frozenset(
    ("load", "store", "exchange", "compare_exchange_weak",
     "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
     "fetch_or", "fetch_xor"))

MEMORY_ORDERS = frozenset(
    ("memory_order_relaxed", "memory_order_consume", "memory_order_acquire",
     "memory_order_release", "memory_order_acq_rel", "memory_order_seq_cst",
     "relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst"))

UNORDERED_TYPES = frozenset(
    ("unordered_map", "unordered_set", "unordered_multimap",
     "unordered_multiset"))

DEFINE_RE = re.compile(r"#\s*define\b")
INTRINSICS_INCLUDE_RE = re.compile(
    r"#\s*include\s*<((?:immintrin|x86intrin)\.h)>")
INTRINSICS_CALL_RE = re.compile(r"_mm\d*_\w+")
# Machine-level escapes that belong behind the kernel layer too: prefetch
# builtins (kernels::Prefetch) and inline assembly.
INTRINSICS_BUILTINS = frozenset(("__builtin_prefetch", "asm", "__asm",
                                 "__asm__"))
INTRINSICS_TYPE_RE = re.compile(r"__m(?:128|256|512)[di]?")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # id | num | str | chr | punct | pp
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tok({self.kind},{self.text!r},{self.line})"


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?\d(?:[\w.']|[eEpP][+-])*")
_RAW_RE = re.compile(r'(?:u8|u|U|L)?R"([^()\\ \t\n]{0,16})\(')
_PUNCTS = ("->*", "<<=", ">>=", "...", "::", "->", "++", "--", "<<", ">>",
           "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
           "&=", "|=", "^=")


def lex(text: str, line: int = 1):
    """Tokenize C++ source starting at `line`. Returns (tokens, comments)
    where comments is a list of (line, text) — the annotation scanner's
    input. Comments and string/char literals (including raw strings
    spanning lines) can therefore never produce rule tokens; preprocessor
    directives become single opaque tokens."""
    tokens: list[Tok] = []
    comments: list[tuple[int, str]] = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, text[i:j]))
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            end = n if j < 0 else j + 2
            seg = text[i:end]
            for k, part in enumerate(seg.split("\n")):
                comments.append((line + k, part))
            line += seg.count("\n")
            i = end
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: consume to end of line, honouring
            # backslash continuations. Kept as one opaque token; a trailing
            # `//` comment still reaches the annotation scanner.
            j = i
            first_line = line
            while j < n:
                k = text.find("\n", j)
                k = n if k < 0 else k
                if text[k - 1:k] == "\\" or text[max(0, k - 2):k] == "\\\r":
                    j = k + 1
                    line += 1
                    continue
                j = k
                break
            seg = text[i:j]
            tokens.append(Tok("pp", seg, first_line))
            if "//" in seg:
                comments.append((line, seg[seg.rfind("//"):]))
            i = j
            continue
        at_line_start = False
        m = _RAW_RE.match(text, i)
        if m:
            close = ")" + m.group(1) + '"'
            j = text.find(close, m.end())
            end = n if j < 0 else j + len(close)
            seg = text[i:end]
            tokens.append(Tok("str", '""', line))
            line += seg.count("\n")
            i = end
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("str", '""', line))
            i = min(j + 1, n)
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("chr", "''", line))
            i = min(j + 1, n)
            continue
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            tokens.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Tok("punct", c, line))
            i += 1
    return tokens, comments


def collect_annotations(comments):
    """line -> set of tags: 'allow:<tag>' / 'cold-tu'."""
    notes: dict[int, set[str]] = {}
    for line, text in comments:
        for match in ANNOTATION_RE.finditer(text):
            kind, arg = match.group(1), match.group(2)
            if kind == "allow":
                tag = arg.split(":")[0].split(",")[0].strip()
                notes.setdefault(line, set()).add(f"allow:{tag}")
            else:
                notes.setdefault(line, set()).add("cold-tu")
    return notes


def allowed(notes, line: int, tag: str) -> bool:
    want = f"allow:{tag}"
    return want in notes.get(line, set()) or want in notes.get(line - 1, set())


# ---------------------------------------------------------------------------
# Scanner: rule facts over the whole token stream, plus function context
# ---------------------------------------------------------------------------

class Fact:
    __slots__ = ("kind", "line", "detail", "func", "in_ctor")

    def __init__(self, kind, line, detail):
        # alloc / fma / unordered-iter / ambient-time / ambient-rng /
        # atomic-noorder / atomic-op / atomic-load / atomic-store /
        # obs-direct / stdout / intrinsics
        self.kind = kind
        self.line = line
        self.detail = detail
        self.func = ""  # enclosing function; "" at namespace/class scope
        self.in_ctor = False


class FileFacts:
    def __init__(self, rel: str):
        self.rel = rel
        self.facts: list[Fact] = []
        self.notes: dict[int, set[str]] = {}
        self.cold_tu = False


def _match_forward(tokens, start, open_p, close_p):
    """Index of the token closing tokens[start] (which must be open_p)."""
    depth = 0
    i = start
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_p:
                depth += 1
            elif t.text == close_p:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def _collect_decl_types(tokens, names: frozenset) -> set[str]:
    """Variable names declared with a template type whose name is in
    `names` (e.g. atomic, unordered_map): pattern `name< ... > var`."""
    found: set[str] = set()
    i, n = 0, len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in names and i + 1 < n \
                and tokens[i + 1].text == "<":
            close = _match_angle(tokens, i + 1)
            j = close + 1
            if j < n and tokens[j].kind == "id" \
                    and tokens[j].text not in CPP_KEYWORDS:
                found.add(tokens[j].text)
            i = close + 1
            continue
        i += 1
    return found


def _match_angle(tokens, start):
    """Close a template argument list opened at tokens[start] == '<'.
    Tracks nesting of <> and () and gives up at `;` or `{` (not a template
    after all)."""
    depth = 0
    i, n = start, len(tokens)
    while i < n:
        text = tokens[i].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return i
        elif text == ">>":
            depth -= 2
            if depth <= 0:
                return i
        elif text in (";", "{"):
            return i
        i += 1
    return n - 1


def parse_file(rel: str, text: str) -> FileFacts:
    tokens, comments = lex(text)
    facts = FileFacts(rel)
    facts.notes = collect_annotations(comments)
    facts.cold_tu = any(
        "cold-tu" in facts.notes.get(line, set()) for line in range(1, 31))
    atomic_vars = _collect_decl_types(tokens, frozenset(("atomic",)))
    unordered_vars = _collect_decl_types(tokens, UNORDERED_TYPES)
    scanned = _scan(tokens, atomic_vars, unordered_vars)
    spans = _function_spans(tokens)
    span = 0
    for index, fact in scanned:
        while span < len(spans) and spans[span][1] < index:
            span += 1
        if span < len(spans) and spans[span][0] <= index:
            _, _, fact.func, fact.in_ctor = spans[span]
        facts.facts.append(fact)
    return facts


def _function_spans(tokens):
    """(first, last, qname, is_ctor) token spans of every function
    definition at namespace or class scope — name through closing `}`, so
    a constructor's initializer list belongs to it — in token order."""
    spans = []
    n = len(tokens)
    scope: list[tuple[str, str]] = []  # (kind: ns|class|block, name)
    stmt_start = 0  # token index where the current statement began
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "pp":
            i += 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text in (";", "}"):
            if t.text == "}" and scope:
                scope.pop()
            i += 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text == "{":
            scope.append(_classify_brace(tokens[stmt_start:i]))
            i += 1
            stmt_start = i
            continue
        if t.kind == "id" and t.text not in CPP_KEYWORDS and i + 1 < n \
                and tokens[i + 1].text == "(" \
                and not any(kind == "block" for kind, _ in scope):
            res = _try_function(tokens, i, stmt_start, scope)
            if res is not None:
                i, span = res
                stmt_start = i
                if span is not None:
                    spans.append(span)
                continue
        i += 1
    return spans


def _classify_brace(head):
    """Classify the construct a `{` opens, from its heading tokens."""
    ids = [t.text for t in head if t.kind == "id"]
    if "namespace" in ids:
        # `namespace a::b {` / anonymous
        names = [t for t in ids if t not in CPP_KEYWORDS]
        return ("ns", names[-1] if names else "<anon>")
    if any(k in ids for k in ("class", "struct", "union", "enum")):
        has_paren = any(t.text == "(" for t in head)
        if not has_paren:
            # `struct X : Base {` — name is the id after the keyword
            for idx, t in enumerate(head):
                if t.kind == "id" and t.text in ("class", "struct", "union",
                                                 "enum"):
                    for u in head[idx + 1:]:
                        if u.kind == "id" and u.text not in CPP_KEYWORDS:
                            return ("class", u.text)
                    break
            return ("class", "<anon>")
    return ("block", "")


def _try_function(tokens, name_idx, stmt_start, scope):
    """tokens[name_idx] is an identifier followed by `(` at namespace/class
    scope. Returns (resume index, span) for a definition — span as in
    _function_spans, resume after the closing `}` — or (index after `;`,
    None) for a declaration; None when it is neither."""
    n = len(tokens)
    close_paren = _match_forward(tokens, name_idx + 1, "(", ")")
    if close_paren >= n - 1:
        return None

    # Qualified name: walk back over `id ::` pairs.
    qparts = [tokens[name_idx].text]
    j = name_idx - 1
    while j - 1 >= stmt_start and tokens[j].text == "::" \
            and tokens[j - 1].kind == "id":
        qparts.insert(0, tokens[j - 1].text)
        j -= 2

    # Scan past trailing qualifiers / attribute macros / ctor initializers.
    i = close_paren + 1
    depth = 0
    colon_state = False
    while i < n:
        text = tokens[i].text
        if depth == 0 and text == ";":
            return i + 1, None
        if depth == 0 and text == "{":
            if colon_state and tokens[i - 1].kind == "id":
                # Braced member initializer `a_{...}` — skip it.
                i = _match_forward(tokens, i, "{", "}") + 1
                continue
            break
        if depth == 0 and text == "}":
            return None
        if depth == 0 and text == ":":
            colon_state = True
        elif text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        i += 1
    else:
        return None

    body_close = _match_forward(tokens, i, "{", "}")
    class_names = [name for kind, name in scope if kind == "class"]
    qname = "::".join([name for _, name in scope if name] + qparts)
    is_ctor = (len(qparts) >= 2 and qparts[-1] == qparts[-2]) or (
        bool(class_names) and qparts[-1] == class_names[-1])
    return body_close + 1, (name_idx, body_close, qname, is_ctor)


def _scan(tokens, atomic_vars, unordered_vars):
    """Rule facts over the whole token stream, as (token index, Fact)."""
    out: list[tuple[int, Fact]] = []
    n = len(tokens)

    def fact(kind, detail):
        out.append((i, Fact(kind, t.line, detail)))

    for i, t in enumerate(tokens):
        if t.kind == "pp":
            m = INTRINSICS_INCLUDE_RE.match(t.text)
            if m:
                fact("intrinsics", f"<{m.group(1)}>")
            elif DEFINE_RE.match(t.text):
                # A macro body is code at every expansion site: scan it too.
                body, _ = lex(t.text[1:], t.line)
                out.extend((i, f) for _, f in
                           _scan(body, atomic_vars, unordered_vars))
            continue
        if t.kind != "id":
            continue
        text = t.text
        nxt = tokens[i + 1].text if i + 1 < n else ""
        prev = tokens[i - 1] if i > 0 else None
        prev_text = prev.text if prev is not None else ""
        call = nxt == "("

        # Allocation tokens: `new T`, `new (place) T`, make_unique/shared
        # wherever named, malloc-family / to_string calls, std::function.
        if text in ("new", "make_unique", "make_shared") \
                or (text in ALLOC_FREE_CALLS and call):
            fact("alloc", text)
        elif text == "function" and prev_text == "::" and nxt == "<":
            fact("alloc", "std::function")

        if text == "fma" and call:
            fact("fma", "fma")
        elif text == "system_clock":
            fact("ambient-time", "system_clock")
        elif text == "time" and call:
            close = _match_forward(tokens, i + 1, "(", ")")
            args = [u.text for u in tokens[i + 2:close]]
            # std::time takes exactly one argument: `time()` is some
            # other function (a declaration, an accessor), not the clock.
            if args in (["NULL"], ["nullptr"], ["0"]):
                fact("ambient-time", "time()")
        elif text in AMBIENT_RNG_NAMES:
            fact("ambient-rng", text)
        elif text in ("ScopedStageTimer", "TraceSpan") and prev_text == "::":
            fact("obs-direct", f"obs::{text}")
        elif text in ("cout", "stdout") \
                or (text in ("printf", "puts") and call):
            fact("stdout", text)
        elif (INTRINSICS_CALL_RE.fullmatch(text) and call) \
                or INTRINSICS_TYPE_RE.fullmatch(text) \
                or text in INTRINSICS_BUILTINS:
            fact("intrinsics", text)

        # Member calls: `.name(` / `->name(`.
        if prev_text in (".", "->") and call:
            recv_name = tokens[i - 2].text if i >= 2 \
                and tokens[i - 2].kind == "id" else ""
            close = _match_forward(tokens, i + 1, "(", ")")
            arg_ids = [u.text for u in tokens[i + 2:close] if u.kind == "id"]
            if text in ALLOC_MEMBER_CALLS:
                fact("alloc", text)
            if text in ATOMIC_MEMBER_CALLS and recv_name in atomic_vars:
                order = next((a for a in arg_ids if a in MEMORY_ORDERS), "")
                if not order:
                    fact("atomic-noorder", f"{recv_name}.{text}")
                if text in ("load", "store"):
                    fact(f"atomic-{text}", f"{recv_name}|{order}")
            if (text == "Add" and _is_obs_enum(arg_ids, "Counter")) or \
                    (text == "Set" and _is_obs_enum(arg_ids, "Gauge")) or \
                    text in ("RecordStageNs", "SampleIngestTick"):
                fact("obs-direct", f"Registry::{text}")

        # Atomic operator-form access: ++x / x++ / x op= / x = v.
        if text in atomic_vars:
            if prev_text in ("++", "--") or nxt in ("++", "--"):
                fact("atomic-op", f"{text}++")
            elif nxt in ("=", "+=", "-=", "&=", "|=", "^="):
                # Only statement-position assignments: `x = v;` after
                # `;`/`{`/`(`/`,`. A preceding identifier means `x` is
                # being *declared* (`std::size_t seq = ...` shadowing an
                # atomic member, as in spsc_ring.h) — not an atomic op.
                if prev is None or (prev.kind == "punct" and prev_text in (
                        ";", "{", "}", "(", ",", ":")):
                    fact("atomic-op", f"{text} {nxt}")

        # Range-for over an unordered container.
        if text == "for" and call:
            close = _match_forward(tokens, i + 1, "(", ")")
            inner = tokens[i + 2:close]
            colon = next((k for k, u in enumerate(inner) if u.text == ":"),
                         None)
            if colon is not None:
                range_ids = {u.text for u in inner[colon + 1:]
                             if u.kind == "id"}
                if range_ids & unordered_vars:
                    fact("unordered-iter",
                         sorted(range_ids & unordered_vars)[0])
    return out


def _is_obs_enum(arg_ids, enum_name) -> bool:
    ids = arg_ids[:8]
    return "obs" in ids and enum_name in ids


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, path, line, func, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.func = func
        self.text = text

    def __str__(self):
        where = f" (in {self.func})" if self.func else ""
        return f"{self.path}:{self.line}: [{self.rule}]{where} {self.text}"

    def as_dict(self):
        return {"rule": self.rule, "file": self.path, "line": self.line,
                "function": self.func, "text": self.text}

    def fingerprint(self):
        # Line-free so baseline entries survive unrelated edits.
        key = f"{self.rule}|{self.path}|{self.func}|{self.text}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def in_dirs(rel: str, dirs) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


def _lexical(all_facts, rule, in_scope, messages) -> list[Finding]:
    """Every fact whose kind has a message becomes a finding, unless its
    file is out of the rule's scope or its line carries allow(<tag>)."""
    tag = RULE_TAG[rule]
    out = []
    for facts in all_facts.values():
        for f in facts.facts:
            message = messages.get(f.kind)
            if message is None or not in_scope(facts, f.kind) \
                    or allowed(facts.notes, f.line, tag):
                continue
            out.append(Finding(rule, facts.rel, f.line, f.func,
                               message.format(f.detail)))
    return out


def rule_hot_path_alloc(all_facts):
    return _lexical(
        all_facts, "hot-path-alloc",
        lambda facts, _: in_dirs(facts.rel, HOT_PATH_DIRS)
        and not facts.cold_tu,
        {"alloc": "`{}` allocates in a hot-path TU — hoist to setup or "
                  "annotate `// mulink-lint: allow(alloc): <why>`"})


def _determinism_scope(facts, kind):
    if kind == "fma":
        return not facts.rel.startswith(KERNEL_DIR + "/")
    if kind.startswith("ambient-"):
        return not RNG_HOME.match(facts.rel)
    return True


def rule_determinism(all_facts):
    return _lexical(all_facts, "determinism", _determinism_scope, {
        "fma": "std::fma outside src/kernels — the kernel layer owns the "
               "FP-contraction policy (DESIGN.md §14); contracted rounding "
               "breaks cross-backend bit-equality",
        "unordered-iter": "range-for over unordered container `{}` — "
                          "iteration order is unspecified; sort or use an "
                          "ordered mirror before anything serialized",
        "ambient-time": "wall-clock source `{}` — scores and artifacts must "
                        "derive only from inputs and seeds (steady_clock "
                        "timing is fine)",
        "ambient-rng": "ambient RNG `{}` outside src/common/rng — draw "
                       "through the forkable mulink::Rng",
    })


def rule_atomics(all_facts):
    out = _lexical(all_facts, "atomics", lambda facts, _: True, {
        "atomic-noorder": "`{}` without an explicit memory_order — "
                          "seq_cst-by-default hides the intended ordering; "
                          "say it out loud",
        "atomic-op": "operator-form atomic access `{}` is seq_cst by "
                     "definition — use fetch_add/store/load with an "
                     "explicit order",
    })
    # Mixed-order analysis: relaxed store outside a ctor to a member that
    # has acquire/seq_cst loads in the same file — the release edge is
    # missing.
    for facts in all_facts.values():
        acquire_loaded = {
            f.detail.partition("|")[0] for f in facts.facts
            if f.kind == "atomic-load" and f.detail.partition("|")[2] in (
                "memory_order_acquire", "acquire", "memory_order_seq_cst",
                "seq_cst")}
        for f in facts.facts:
            name, _, order = f.detail.partition("|")
            if f.kind != "atomic-store" or f.in_ctor \
                    or name not in acquire_loaded \
                    or order not in ("memory_order_relaxed", "relaxed") \
                    or allowed(facts.notes, f.line, "atomics"):
                continue
            out.append(Finding(
                "atomics", facts.rel, f.line, "",
                f"relaxed store to `{name}`, which is acquire-loaded "
                "elsewhere in this file — the acquire has no release "
                "edge to pair with (constructor seeding is exempt)"))
    return out


def rule_obs_discipline(all_facts):
    return _lexical(
        all_facts, "obs-discipline",
        lambda facts, _: in_dirs(facts.rel, (LIBRARY_DIR,))
        and not in_dirs(facts.rel, (OBS_DIR,)),
        {"obs-direct": "direct obs recording `{}` — route through the "
                       "MULINK_OBS_* macros so the null-sink check and the "
                       "MULINK_OBS kill switch stay total"})


def rule_stdout(all_facts):
    return _lexical(
        all_facts, "stdout",
        lambda facts, _: in_dirs(facts.rel, (LIBRARY_DIR,)),
        {"stdout": "stdout write `{}` in library code — return data or take "
                   "an std::ostream&; printing belongs to "
                   "tools/examples/bench"})


def rule_intrinsics(all_facts):
    return _lexical(
        all_facts, "intrinsics",
        lambda facts, _: not in_dirs(facts.rel, (KERNEL_DIR,)),
        {"intrinsics": "SIMD intrinsic `{}` outside src/kernels — the "
                       "kernel layer owns vector code so scalar/AVX2 parity "
                       "stays testable"})


RULE_FNS = {
    "hot-path-alloc": rule_hot_path_alloc,
    "determinism": rule_determinism,
    "atomics": rule_atomics,
    "obs-discipline": rule_obs_discipline,
    "stdout": rule_stdout,
    "intrinsics": rule_intrinsics,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def rel_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(root: Path, args_files: list[str]) -> list[Path]:
    if args_files:
        files = []
        for name in args_files:
            p = Path(name)
            if not p.is_absolute():
                p = root / p
            if not p.exists():
                raise UsageError(f"no such file: {name}")
            files.append(p)
        return files
    files = []
    for top in SOURCE_DIRS:
        base = root / top
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    return files


def run(argv, stdout=sys.stdout, stderr=sys.stderr) -> int:
    parser = argparse.ArgumentParser(
        prog="mulink-analyze", add_help=True,
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument("--baseline", help="filter findings against this "
                        "baseline JSON (accepted debt; ships empty)")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings as the new baseline")
    parser.add_argument("files", nargs="*",
                        help="files to analyze (default: "
                        + ", ".join(SOURCE_DIRS) + ")")
    try:
        opts = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_CLEAN

    if opts.list_rules:
        for rule in RULES:
            print(rule, file=stdout)
        return EXIT_CLEAN

    root = Path(opts.root)
    if not root.is_dir():
        print(f"mulink-analyze: no such directory: {opts.root}", file=stderr)
        return EXIT_USAGE
    active = tuple(opts.rule) if opts.rule else RULES

    try:
        files = collect_files(root, opts.files)
    except UsageError as err:
        print(f"mulink-analyze: {err}", file=stderr)
        return EXIT_USAGE

    all_facts: dict[str, FileFacts] = {}
    for path in files:
        rel = rel_posix(path, root)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"mulink-analyze: cannot read {path}: {err}", file=stderr)
            return EXIT_USAGE
        all_facts[rel] = parse_file(rel, text)

    findings: list[Finding] = []
    for rule in active:
        findings.extend(RULE_FNS[rule](all_facts))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if opts.write_baseline:
        payload = {"findings": [
            {"fingerprint": f.fingerprint(), **f.as_dict()}
            for f in findings]}
        Path(opts.write_baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if opts.baseline:
        base_path = Path(opts.baseline)
        if not base_path.is_absolute():
            base_path = root / base_path
        if not base_path.is_file():
            print(f"mulink-analyze: no such baseline: {opts.baseline}",
                  file=stderr)
            return EXIT_USAGE
        try:
            accepted = {entry["fingerprint"] for entry in
                        json.loads(base_path.read_text())["findings"]}
        except (KeyError, TypeError, json.JSONDecodeError) as err:
            print(f"mulink-analyze: malformed baseline {opts.baseline}: "
                  f"{err}", file=stderr)
            return EXIT_USAGE
        findings = [f for f in findings if f.fingerprint() not in accepted]

    if opts.json:
        json.dump({
            "files_scanned": len(files),
            "findings": [f.as_dict() for f in findings],
        }, stdout, indent=2)
        print(file=stdout)
    else:
        for f in findings:
            print(str(f), file=stdout)
        print(f"mulink-analyze: {len(files)} files, "
              f"{len(findings)} finding(s)", file=stdout)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
