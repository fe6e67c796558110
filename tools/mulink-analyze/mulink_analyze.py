#!/usr/bin/env python3
"""mulink-analyze — AST-grade enforcement of mulink's semantic contracts.

tools/mulink-lint pins the *textual* form of the repo's invariants: token
regexes over stripped source. That catches careless edits but misses whole
defect classes — an allocation reached through a helper the hot function
calls, a seq_cst atomic hiding behind operator syntax, an unordered-map
iteration whose order leaks into a serialized artifact. This tool closes
that gap with semantic rules over a real token stream and a recovered
function/call-graph structure, optionally sharpened by libclang.

Engines
-------
micro    Always available (stdlib only). A full C++ lexer (comments,
         strings, raw strings, char literals, digit separators,
         preprocessor lines) feeding a single-pass structural parser that
         recovers namespaces, classes, function definitions (including
         out-of-line `T C::f(...) const { ... }` and constructors with
         initializer lists), per-function call sites, and per-function
         rule facts. Rules run over that structure — so a comment or
         string can never trip a rule, and findings carry the enclosing
         function.

cindex   libclang via Python `clang.cindex`, when importable AND a
         libclang shared object loads. Sharpens hot-path-alloc (call graph
         by cursor reference rather than name match) and atomics (member
         calls typed against std::atomic). Soft-skips to `micro` when
         unavailable — exactly like clang-tidy's soft-skip — unless
         MULINK_REQUIRE_CINDEX=1 (CI) or --backend cindex demands it.

Rules
-----
hot-path-alloc   Functions marked MULINK_HOT (src/common/annotations.h) —
                 and every function they transitively reach inside the
                 hot-path directories (src/core, src/kernels, src/dsp,
                 src/linalg, src/serve) — form a no-allocation zone:
                 operator new, malloc-family calls, growth calls on std
                 containers/strings (push_back, resize, reserve, insert,
                 emplace, append, assign, ...), make_unique/make_shared,
                 std::function construction and std::to_string are
                 findings unless carrying the reviewed
                 `// mulink-lint: allow(alloc): <why>` annotation (the
                 same annotation currency the lint already uses).

determinism      Bit-identical scores across backends/threads/shards
                 (DESIGN.md §14–15) leave no room for: std::fma calls
                 outside src/kernels (the kernel layer owns the FP
                 contraction policy; -ffp-contract=off everywhere else),
                 range-for iteration over unordered containers (iteration
                 order is unspecified and must never feed serialized
                 output — sort first, like ServeCore::MergedDecisionLog),
                 or wall-clock/ambient randomness (std::time, time(...),
                 system_clock, std::rand, random_device, mt19937, ...)
                 outside src/common/rng. Monotonic clocks (steady_clock)
                 are fine: they time stages, they never feed scores.

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
                 traces only through the MULINK_OBS_* macros. The lint's
                 token rule survives here in lexer-accurate form: direct
                 Registry::Add/Set/RecordStageNs/SampleIngestTick calls
                 and direct obs::ScopedStageTimer / obs::TraceSpan
                 construction are findings.

Annotations (inside comments; `mulink-analyze:` and `mulink-lint:`
prefixes are interchangeable so existing annotations keep working):
  // mulink-lint: allow(<tag>): reason     same or preceding line
  // mulink-lint: cold-tu(reason)          first 30 lines of a TU

Tags: alloc, determinism, atomics, obs (matching the lint where rules
overlap).

Baseline
--------
--baseline FILE filters findings against a checked-in baseline
(tools/mulink-analyze/baseline.json ships EMPTY — the tree owes zero
findings; the file exists so a future emergency has a mechanism, and CI
fails if anyone quietly grows it). --write-baseline FILE records the
current findings.

Exit codes (same table as mulink-lint and the mulink CLI):
  0  clean
  1  findings
  2  usage error (unknown flag/rule, unreadable path, backend demanded
     but unavailable)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from pathlib import Path

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

HOT_PATH_DIRS = ("src/core", "src/linalg", "src/dsp", "src/kernels",
                 "src/serve")
KERNEL_DIR = "src/kernels"
RNG_HOME = re.compile(r"^src/common/rng\.(h|cpp)$")
OBS_DIR = "src/obs"

RULES = ("hot-path-alloc", "determinism", "atomics", "obs-discipline")

# Annotation tag each rule honours (shared currency with mulink-lint).
RULE_TAG = {
    "hot-path-alloc": "alloc",
    "determinism": "determinism",
    "atomics": "atomics",
    "obs-discipline": "obs",
}

ANNOTATION_RE = re.compile(
    r"//\s*mulink-(?:lint|analyze):\s*(allow|cold-tu)\(([^)]*)\)")

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

# Tokens that may sit between a function's `)` and its `{` body.
FUNC_QUALIFIERS = frozenset(
    ("const", "noexcept", "override", "final", "mutable", "volatile", "&",
     "&&", "throw", "try"))

ALLOC_MEMBER_CALLS = frozenset(
    ("resize", "push_back", "emplace_back", "reserve", "insert", "emplace",
     "emplace_front", "push_front", "shrink_to_fit", "assign", "append",
     "clear_and_shrink"))
ALLOC_FREE_CALLS = frozenset(
    ("malloc", "calloc", "realloc", "aligned_alloc", "strdup", "make_unique",
     "make_shared", "to_string"))

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


def lex(text: str):
    """Tokenize C++ source. Returns (tokens, comments) where comments is a
    list of (line, text) — the annotation scanner's input. Comments,
    string/char literals (including raw strings spanning lines) and
    preprocessor directives can therefore never produce rule tokens."""
    tokens: list[Tok] = []
    comments: list[tuple[int, str]] = []
    i, line, n = 0, 1, len(text)
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
            # backslash continuations. Kept as one opaque token.
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k < 0 else k
                if text[k - 1:k] == "\\" or text[max(0, k - 2):k] == "\\\r":
                    j = k + 1
                    line += 1
                    continue
                j = k
                break
            tokens.append(Tok("pp", text[i:j], line))
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
# Micro parser: functions, calls, per-function rule facts
# ---------------------------------------------------------------------------

class FuncInfo:
    __slots__ = ("name", "qname", "file", "line", "hot", "is_ctor", "calls",
                 "facts")

    def __init__(self, name, qname, file, line, hot, is_ctor):
        self.name = name
        self.qname = qname
        self.file = file
        self.line = line
        self.hot = hot
        self.is_ctor = is_ctor
        self.calls: set[str] = set()
        # (kind, line, detail) raw facts for the rules:
        #   alloc-new / alloc-call / alloc-member / alloc-function /
        #   fma / unordered-iter / ambient-time / ambient-rng /
        #   atomic-noorder / atomic-op / atomic-load / atomic-store /
        #   obs-direct
        self.facts: list[tuple[str, int, str]] = []


class FileFacts:
    def __init__(self, rel: str):
        self.rel = rel
        self.functions: list[FuncInfo] = []
        self.hot_decls: set[str] = set()  # MULINK_HOT on declarations
        self.notes: dict[int, set[str]] = {}
        self.cold_tu = False
        # name -> set of orders seen, from atomics fact pass
        self.atomic_loads: dict[str, list[tuple[str, int, bool]]] = {}
        self.atomic_stores: dict[str, list[tuple[str, int, bool]]] = {}


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
            # skip alignas/attribute-ish ids? accept `> var` and `> var{...}`
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
            # What does this brace open? Look at the statement tokens.
            head = tokens[stmt_start:i]
            kind, name = _classify_brace(head)
            scope.append((kind, name))
            i += 1
            stmt_start = i
            continue
        if t.kind == "id" and t.text not in CPP_KEYWORDS and i + 1 < n \
                and tokens[i + 1].text == "(":
            res = _try_function(tokens, i, stmt_start, scope, rel, facts,
                                atomic_vars, unordered_vars)
            if res is not None:
                i, stmt_start = res, res
                continue
        i += 1
    _index_atomic_orders(facts)
    return facts


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


def _try_function(tokens, name_idx, stmt_start, scope, rel, facts,
                  atomic_vars, unordered_vars):
    """tokens[name_idx] is an identifier followed by `(`. If this is a
    function DEFINITION, consume through its body (extracting facts) and
    return the index after the closing `}`. If it is a declaration, consume
    through `;` (recording MULINK_HOT names). Otherwise return None."""
    # Functions only appear at namespace/class scope — a call inside a
    # function body is handled by the body walker, and _try_function is only
    # invoked from the top-level cursor, which skips whole bodies.
    if any(kind == "block" for kind, _ in scope):
        return None
    n = len(tokens)
    open_paren = name_idx + 1
    close_paren = _match_forward(tokens, open_paren, "(", ")")
    if close_paren >= n - 1:
        return None

    # Qualified name: walk back over `id ::` pairs.
    qparts = [tokens[name_idx].text]
    j = name_idx - 1
    while j - 1 >= stmt_start and tokens[j].text == "::" \
            and tokens[j - 1].kind == "id":
        qparts.insert(0, tokens[j - 1].text)
        j -= 2

    head = tokens[stmt_start:name_idx]
    head_ids = [t.text for t in head if t.kind == "id"]
    hot = "MULINK_HOT" in head_ids

    # Scan past trailing qualifiers / attribute macros / ctor initializers.
    i = close_paren + 1
    depth = 0
    colon_state = False
    while i < n:
        t = tokens[i]
        text = t.text
        if depth == 0 and text == ";":
            # Declaration. Remember hot names so headers can mark hot roots.
            if hot:
                facts.hot_decls.add(qparts[-1])
            return i + 1
        if depth == 0 and text == "{":
            if colon_state and tokens[i - 1].kind == "id":
                # Braced member initializer `a_{...}` — skip it.
                i = _match_forward(tokens, i, "{", "}") + 1
                continue
            body_open = i
            break
        if depth == 0 and text == ":":
            colon_state = True
        elif text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        elif depth == 0 and text == "=":
            # `= default` / `= delete` / `= 0` — declaration-like.
            pass
        elif depth == 0 and text in ("}",):
            return None
        elif depth == 0 and not colon_state and t.kind == "id" \
                and text not in FUNC_QUALIFIERS and not text.isupper() \
                and not text.startswith("MULINK_") and text not in ("->",):
            # Trailing return types / unexpected ids: tolerate, keep going.
            pass
        i += 1
    else:
        return None

    body_close = _match_forward(tokens, body_open, "{", "}")
    class_names = [name for kind, name in scope if kind == "class"]
    qname = "::".join([name for _, name in scope if name] + qparts)
    is_ctor = (len(qparts) >= 2 and qparts[-1] == qparts[-2]) or (
        bool(class_names) and qparts[-1] == class_names[-1])
    fn = FuncInfo(qparts[-1], qname, rel, tokens[name_idx].line, hot, is_ctor)
    _walk_body(tokens, body_open + 1, body_close, fn, atomic_vars,
               unordered_vars)
    facts.functions.append(fn)
    return body_close + 1


def _walk_body(tokens, start, end, fn: FuncInfo, atomic_vars,
               unordered_vars):
    """Extract call sites and rule facts from a function body."""
    i = start
    while i < end:
        t = tokens[i]
        nxt = tokens[i + 1] if i + 1 < end else None
        prev = tokens[i - 1] if i > start else None

        if t.kind == "id":
            # new-expression (operator new) — `new T`, `new (place) T`.
            if t.text == "new":
                fn.facts.append(("alloc-new", t.line, "new"))
                i += 1
                continue
            if t.text == "fma" and nxt is not None and nxt.text == "(":
                fn.facts.append(("fma", t.line, "fma"))
            if t.text == "system_clock":
                fn.facts.append(("ambient-time", t.line, "system_clock"))
            if t.text == "time" and nxt is not None and nxt.text == "(":
                close = _match_forward(tokens, i + 1, "(", ")")
                args = [u.text for u in tokens[i + 2:close]]
                if args in (["NULL"], ["nullptr"], ["0"], []):
                    fn.facts.append(("ambient-time", t.line, "time()"))
            if t.text in AMBIENT_RNG_NAMES:
                fn.facts.append(("ambient-rng", t.line, t.text))
            if t.text in ("ScopedStageTimer", "TraceSpan") \
                    and prev is not None and prev.text == "::":
                fn.facts.append(("obs-direct", t.line, f"obs::{t.text}"))

            # Member access chains: `.name(` / `->name(`.
            if prev is not None and prev.text in (".", "->") \
                    and nxt is not None and nxt.text == "(":
                recv = tokens[i - 2] if i - 2 >= start else None
                recv_name = recv.text if recv is not None \
                    and recv.kind == "id" else ""
                close = _match_forward(tokens, i + 1, "(", ")")
                arg_ids = [u.text for u in tokens[i + 2:close]
                           if u.kind == "id"]
                if t.text in ALLOC_MEMBER_CALLS and t.text != "clear_and_shrink":
                    fn.facts.append(("alloc-member", t.line, t.text))
                if t.text in ATOMIC_MEMBER_CALLS:
                    is_atomic = recv_name in atomic_vars
                    has_order = any(a in MEMORY_ORDERS for a in arg_ids)
                    if is_atomic:
                        kind = ("atomic-load" if t.text == "load" else
                                "atomic-store" if t.text == "store" else
                                "atomic-rmw")
                        order = next((a for a in arg_ids
                                      if a in MEMORY_ORDERS), "")
                        if not has_order:
                            fn.facts.append(
                                ("atomic-noorder", t.line,
                                 f"{recv_name}.{t.text}"))
                        fn.facts.append(
                            (kind, t.line, f"{recv_name}|{order}"))
                if t.text == "Add" and tokens[i + 2:i + 5] and _is_obs_enum(
                        tokens, i + 2, close, "Counter"):
                    fn.facts.append(("obs-direct", t.line, "Registry::Add"))
                if t.text == "Set" and _is_obs_enum(tokens, i + 2, close,
                                                    "Gauge"):
                    fn.facts.append(("obs-direct", t.line, "Registry::Set"))
                if t.text in ("RecordStageNs", "SampleIngestTick"):
                    fn.facts.append(
                        ("obs-direct", t.line, f"Registry::{t.text}"))

            # Call sites for the call graph: `name(` not preceded by
            # `.`/`->` (member calls can't be hot-root helpers) and not a
            # keyword/cast.
            if nxt is not None and nxt.text == "(" \
                    and t.text not in CPP_KEYWORDS:
                fn.calls.add(t.text)

            # std::function construction: `function<...> name` (declaring a
            # type-erased callable allocates for captures).
            if t.text == "function" and prev is not None \
                    and prev.text == "::" and nxt is not None \
                    and nxt.text == "<":
                fn.facts.append(("alloc-function", t.line, "std::function"))
            if t.text in ALLOC_FREE_CALLS and nxt is not None:
                # `make_unique<T>(...)`: step over the template argument
                # list before looking for the call's `(`.
                call = i + 1
                if nxt.text == "<":
                    call = _match_angle(tokens, i + 1) + 1
                if call < end and tokens[call].text == "(":
                    fn.facts.append(("alloc-call", t.line, t.text))

            # Atomic operator-form access: ++x / x++ / x op= / x = v.
            if t.text in atomic_vars:
                if (prev is not None and prev.text in ("++", "--")) or \
                        (nxt is not None and nxt.text in ("++", "--")):
                    fn.facts.append(("atomic-op", t.line, f"{t.text}++"))
                elif nxt is not None and nxt.text in (
                        "=", "+=", "-=", "&=", "|=", "^="):
                    # Only statement-position assignments: `x = v;` after
                    # `;`/`{`/`(`/`,`. A preceding identifier means `x` is
                    # being *declared* (`std::size_t seq = ...` shadowing an
                    # atomic member, as in spsc_ring.h) — not an atomic op.
                    if prev is None or (prev.kind == "punct"
                                        and prev.text in (";", "{", "}", "(",
                                                          ",", ":")):
                        fn.facts.append(
                            ("atomic-op", t.line, f"{t.text} {nxt.text}"))

        if t.kind == "id" and t.text == "for":
            # Range-for over an unordered container?
            if nxt is not None and nxt.text == "(":
                close = _match_forward(tokens, i + 1, "(", ")")
                inner = tokens[i + 2:close]
                colon = next((k for k, u in enumerate(inner)
                              if u.text == ":" ), None)
                if colon is not None:
                    range_ids = {u.text for u in inner[colon + 1:]
                                 if u.kind == "id"}
                    if range_ids & unordered_vars:
                        var = sorted(range_ids & unordered_vars)[0]
                        fn.facts.append(("unordered-iter", t.line, var))
        i += 1


def _is_obs_enum(tokens, start, end, enum_name) -> bool:
    ids = [t.text for t in tokens[start:min(end, start + 8)]]
    return "obs" in ids and enum_name in ids


def _index_atomic_orders(facts: FileFacts):
    for fn in facts.functions:
        for kind, line, detail in fn.facts:
            if kind in ("atomic-load", "atomic-store"):
                name, _, order = detail.partition("|")
                target = (facts.atomic_loads if kind == "atomic-load"
                          else facts.atomic_stores)
                target.setdefault(name, []).append((order, line, fn.is_ctor))


# ---------------------------------------------------------------------------
# cindex backend (optional refinement; soft-skips when unavailable)
# ---------------------------------------------------------------------------

def load_cindex():
    """Return the clang.cindex module with a working libclang, or None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        # Module present but no loadable libclang — try well-known names.
        for name in ("libclang.so", "libclang-14.so", "libclang.so.1",
                     "libclang-15.so", "libclang-16.so"):
            try:
                cindex.Config.set_library_file(name)
                cindex.Index.create()
                return cindex
            except Exception:
                cindex.Config.loaded = False
        return None


def cindex_refine(cindex, root: Path, rel: str, micro: FileFacts):
    """Re-derive the hot-path-alloc and atomics facts for one file with a
    real AST, keeping the micro facts when parsing fails. The lexical rules
    (determinism, obs-discipline) stay on the micro engine by design: they
    are name-based and the lexer is already exact for them."""
    try:
        index = cindex.Index.create()
        args = ["-x", "c++", "-std=c++20", f"-I{root / 'src'}",
                "-I" + str(root / "tools")]
        tu = index.parse(str(root / rel), args=args)
    except Exception:
        return micro

    CursorKind = cindex.CursorKind
    by_line = {fn.line: fn for fn in micro.functions}

    def enclosing(fn_cursor):
        return by_line.get(fn_cursor.location.line)

    try:
        for cursor in tu.cursor.walk_preorder():
            loc = cursor.location
            if loc.file is None or Path(loc.file.name) != root / rel:
                continue
            if cursor.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                               CursorKind.CONSTRUCTOR):
                fn = by_line.get(loc.line)
                if fn is not None and cursor.is_definition():
                    # USR-precise call edges sharpen the name-matched graph.
                    for child in cursor.walk_preorder():
                        if child.kind == CursorKind.CALL_EXPR \
                                and child.referenced is not None:
                            fn.calls.add(child.referenced.spelling)
    except Exception:
        pass
    return micro


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


def rule_hot_path_alloc(all_facts: dict[str, FileFacts]) -> list[Finding]:
    """Allocations reachable from MULINK_HOT functions. Reachability is the
    fixpoint of name-matched (cindex: reference-matched) call edges,
    restricted to functions defined in the hot-path directories."""
    hot_names: set[str] = set()
    for facts in all_facts.values():
        hot_names |= facts.hot_decls
        for fn in facts.functions:
            if fn.hot:
                hot_names.add(fn.name)

    # name -> defs in hot dirs
    defs: dict[str, list[tuple[FileFacts, FuncInfo]]] = {}
    for facts in all_facts.values():
        if not in_dirs(facts.rel, HOT_PATH_DIRS) or facts.cold_tu:
            continue
        for fn in facts.functions:
            defs.setdefault(fn.name, []).append((facts, fn))

    reachable: set[int] = set()
    frontier = [fn for name in hot_names for _, fn in defs.get(name, ())]
    while frontier:
        fn = frontier.pop()
        if id(fn) in reachable:
            continue
        reachable.add(id(fn))
        for callee in fn.calls:
            for _, target in defs.get(callee, ()):
                if id(target) not in reachable:
                    frontier.append(target)

    out = []
    for facts in all_facts.values():
        if not in_dirs(facts.rel, HOT_PATH_DIRS) or facts.cold_tu:
            continue
        for fn in facts.functions:
            if id(fn) not in reachable or fn.is_ctor:
                continue
            for kind, line, detail in fn.facts:
                if not kind.startswith("alloc-"):
                    continue
                if allowed(facts.notes, line, "alloc"):
                    continue
                out.append(Finding(
                    "hot-path-alloc", facts.rel, line, fn.qname,
                    f"`{detail}` allocates on a MULINK_HOT-reachable path — "
                    "hoist to setup or annotate "
                    "`// mulink-lint: allow(alloc): <why>`"))
    return out


def rule_determinism(all_facts: dict[str, FileFacts]) -> list[Finding]:
    out = []
    for facts in all_facts.values():
        in_kernels = facts.rel.startswith(KERNEL_DIR + "/")
        is_rng_home = bool(RNG_HOME.match(facts.rel))
        for fn in facts.functions:
            for kind, line, detail in fn.facts:
                if allowed(facts.notes, line, "determinism"):
                    continue
                if kind == "fma" and not in_kernels:
                    out.append(Finding(
                        "determinism", facts.rel, line, fn.qname,
                        "std::fma outside src/kernels — the kernel layer "
                        "owns the FP-contraction policy (DESIGN.md §14); "
                        "contracted rounding breaks cross-backend "
                        "bit-equality"))
                elif kind == "unordered-iter":
                    out.append(Finding(
                        "determinism", facts.rel, line, fn.qname,
                        f"range-for over unordered container `{detail}` — "
                        "iteration order is unspecified; sort or use an "
                        "ordered mirror before anything serialized"))
                elif kind == "ambient-time" and not is_rng_home:
                    out.append(Finding(
                        "determinism", facts.rel, line, fn.qname,
                        f"wall-clock source `{detail}` in library code — "
                        "scores and artifacts must derive only from inputs "
                        "and seeds (steady_clock timing is fine)"))
                elif kind == "ambient-rng" and not is_rng_home:
                    out.append(Finding(
                        "determinism", facts.rel, line, fn.qname,
                        f"ambient RNG `{detail}` outside src/common/rng — "
                        "draw through the forkable mulink::Rng"))
    return out


def rule_atomics(all_facts: dict[str, FileFacts]) -> list[Finding]:
    out = []
    for facts in all_facts.values():
        for fn in facts.functions:
            for kind, line, detail in fn.facts:
                if allowed(facts.notes, line, "atomics"):
                    continue
                if kind == "atomic-noorder":
                    out.append(Finding(
                        "atomics", facts.rel, line, fn.qname,
                        f"`{detail}` without an explicit memory_order — "
                        "seq_cst-by-default hides the intended ordering; "
                        "say it out loud"))
                elif kind == "atomic-op":
                    out.append(Finding(
                        "atomics", facts.rel, line, fn.qname,
                        f"operator-form atomic access `{detail}` is "
                        "seq_cst by definition — use "
                        "fetch_add/store/load with an explicit order"))
        # Mixed-order analysis: relaxed store outside a ctor to a member
        # that has acquire/seq_cst loads — the release edge is missing.
        for name, stores in facts.atomic_stores.items():
            loads = facts.atomic_loads.get(name, [])
            acquire_loaded = any(
                order in ("memory_order_acquire", "acquire",
                          "memory_order_seq_cst", "seq_cst")
                for order, _, _ in loads)
            if not acquire_loaded:
                continue
            for order, line, in_ctor in stores:
                if in_ctor or order not in ("memory_order_relaxed",
                                            "relaxed"):
                    continue
                if allowed(facts.notes, line, "atomics"):
                    continue
                out.append(Finding(
                    "atomics", facts.rel, line, "",
                    f"relaxed store to `{name}`, which is acquire-loaded "
                    "elsewhere in this file — the acquire has no release "
                    "edge to pair with (constructor seeding is exempt)"))
    return out


def rule_obs_discipline(all_facts: dict[str, FileFacts]) -> list[Finding]:
    out = []
    for facts in all_facts.values():
        if facts.rel.startswith(OBS_DIR + "/"):
            continue
        for fn in facts.functions:
            for kind, line, detail in fn.facts:
                if kind != "obs-direct":
                    continue
                if allowed(facts.notes, line, "obs"):
                    continue
                out.append(Finding(
                    "obs-discipline", facts.rel, line, fn.qname,
                    f"direct obs recording `{detail}` — route through the "
                    "MULINK_OBS_* macros so the null-sink check and the "
                    "MULINK_OBS kill switch stay total"))
    return out


RULE_FNS = {
    "hot-path-alloc": rule_hot_path_alloc,
    "determinism": rule_determinism,
    "atomics": rule_atomics,
    "obs-discipline": rule_obs_discipline,
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
    base = root / "src"
    if base.is_dir():
        for p in sorted(base.rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                files.append(p)
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
    parser.add_argument("--backend", choices=("auto", "micro", "cindex"),
                        default="auto",
                        help="auto = cindex when importable, else micro")
    parser.add_argument("--baseline", help="filter findings against this "
                        "baseline JSON (accepted debt; ships empty)")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings as the new baseline")
    parser.add_argument("files", nargs="*",
                        help="files to analyze (default: src tree)")
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

    cindex = None
    if opts.backend in ("auto", "cindex"):
        cindex = load_cindex()
    require = os.environ.get("MULINK_REQUIRE_CINDEX") == "1"
    if cindex is None and (opts.backend == "cindex" or require):
        print("mulink-analyze: clang.cindex/libclang unavailable but "
              "demanded (--backend cindex or MULINK_REQUIRE_CINDEX=1)",
              file=stderr)
        return EXIT_USAGE
    backend = "cindex" if cindex is not None else "micro"

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
        facts = parse_file(rel, text)
        if cindex is not None:
            facts = cindex_refine(cindex, root, rel, facts)
        all_facts[rel] = facts

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
            "backend": backend,
            "files_scanned": len(files),
            "findings": [f.as_dict() for f in findings],
        }, stdout, indent=2)
        print(file=stdout)
    else:
        for f in findings:
            print(str(f), file=stdout)
        print(f"mulink-analyze[{backend}]: {len(files)} files, "
              f"{len(findings)} finding(s)", file=stdout)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
