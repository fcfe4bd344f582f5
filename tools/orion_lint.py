#!/usr/bin/env python3
"""Project-specific static checks for the Orion simulator sources.

Orion's reproduction claims rest on bit-identical determinism, on
library code that keeps the simulator's ownership and reporting
conventions, and on sweep workers that share nothing they should not.
Generic linters know none of these rules; this tool does. It is
dependency-free text analysis over comment- and string-stripped
source, so it runs everywhere the repo builds.

Line rules (scan src/, tools/, bench/ and tests/):

  nondeterminism      rand()/srand()/time()/std::random_device and
                      wall-clock std::chrono clocks are forbidden in
                      src/ outside sim/rng.* (benchmarks may read the
                      wall clock to *measure*, never to *seed*).
  naked-new           no naked new/delete in src/ — ownership goes
                      through std::unique_ptr/std::vector.
  file-scope-state    no mutable file-scope state in sim/router/power/
                      net sources: modules must be re-entrant so
                      parallel sweep workers can run independent
                      simulations concurrently.
  include-guard       headers use #ifndef ORION_<PATH>_HH guards that
                      match their path; #pragma once is forbidden
                      (one consistent style, greppable).
  stdout-in-library   src/ never writes to stdout/stderr directly;
                      reporting code takes an std::ostream&. (CLI
                      entry points live in tools/, which may print.)
  naked-stderr        diagnostics in src/ and tools/ must flow through
                      core/log (log::diag/log::event) so a configured
                      --log-out sink mirrors every stderr message;
                      fprintf(stderr, ...)/std::cerr bypass it. The
                      logger backend itself (src/core/log.cc) is
                      exempt. bench/ harnesses are out of scope.
  stat-printing       src/net and src/router must not print statistics
                      at all: counters belong in telemetry::
                      MetricsRegistry (sampled by net::WindowedSampler)
                      or the end-of-run Report, so every statistic is
                      machine-readable and deterministic.
  layering            a src/<layer>/ file includes only headers of its
                      own layer and of the layers before it in
                      docs/ARCHITECTURE.md's map: base, tech, power,
                      sim, router, net, core. (So a router sees faults
                      only through router/fault_hooks.hh, never
                      net/fault.hh.) tools/, tests/, bench/ and the
                      other entry points may include any layer.

Structural rules (scan src/):

  unordered-iteration iterating a std::unordered_* container (declared
                      in the file, in its same-stem header, or through
                      a `using` alias) is forbidden: iteration order is
                      implementation-defined, and every consumer of a
                      walk (Report, CSV exports, forensics bundles)
                      must be bit-identical across runs and hosts.
                      Keyed lookup (find/end, count, at) is fine;
                      range-for and begin() walks need an ordered
                      container or a sorted key snapshot.
  rng-sharing         inside a core::parallelFor worker lambda, a
                      sim::Rng must be (a) constructed in the lambda
                      body and (b) seeded through sim::deriveSeed, so
                      every sweep point owns an independent stream.
  raw-subscribe       EventBus::subscribeRaw may only take a
                      captureless lambda or a file-static /
                      anonymous-namespace trampoline: hot-path
                      dispatch stays an indirect call with a void*
                      context, never a capturing closure.
  unguarded           a class holding a core::Mutex must annotate
                      every mutable data member with ORION_GUARDED_BY
                      (or carry a justified suppression), so removing
                      one annotation fails even on GCC-only hosts
                      where the attributes are no-ops.
  signal-safety       functions reachable from an installed signal
                      handler may only write volatile std::sig_atomic_t
                      variables, call lock-free atomic operations, or
                      call the small POSIX async-signal-safe set.

  unused-suppression  a suppression that no longer suppresses anything,
                      names an unknown rule, gives no reason, or is not
                      spelled lint-allow is itself a finding, so
                      suppressions cannot outlive the code they excused.

A finding is suppressed by "// lint-allow: <rule> -- <why>" on any
line of the offending statement; the reason is mandatory.
unused-suppression and [encoding] (a file that is not valid UTF-8)
findings cannot be suppressed. Exit status: 0 clean, 1 findings, 2
usage error.

Usage: orion_lint.py [--root DIR] [--rules LIST] [--list-rules]
"""

import argparse
import bisect
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cc", ".hh"}
SCAN_DIRS = ("src", "tools", "bench", "tests")

# The fixture mini-roots violate rules on purpose.
SKIP_PREFIXES = ("tests/analysis/fixtures/",)

RULES = (
    "nondeterminism", "naked-new", "file-scope-state", "include-guard",
    "stdout-in-library", "naked-stderr", "stat-printing", "layering",
    "unordered-iteration", "rng-sharing", "raw-subscribe", "unguarded",
    "signal-safety", "unused-suppression",
)

# Any "// <word>-allow:" comment is a suppression attempt; only the
# "lint" spelling suppresses, so a retired or mistyped spelling is
# reported instead of silently excusing nothing.
SUPPRESS_RE = re.compile(
    r"//\s*(\w+)-allow:\s*([\w-]*)(?:\s*--\s*(\S.*))?")

# ---------------------------------------------------------------- line rules

# Directories whose modules must be re-entrant (parallel sweeps run
# one Simulation per worker thread). src/base is left out on purpose:
# the check level and the interrupt token are process-wide by design.
REENTRANT_DIRS = ("src/sim", "src/router", "src/power", "src/net")

# Directories where any direct printing is treated as stat-printing:
# these modules own the counters, and stats must flow through the
# MetricsRegistry or the Report, never ad-hoc prints.
STAT_DIRS = ("src/net/", "src/router/")

NONDET_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (
        re.compile(
            r"chrono::(system_clock|steady_clock|high_resolution_clock)"
        ),
        "wall-clock std::chrono",
    ),
]

# Stderr-targeted writes that bypass core/log (the structured sink
# can't mirror them). std::cerr is always stderr; fprintf/fputs only
# when the stream argument is literally stderr.
STDERR_RE = re.compile(
    r"std::cerr|\bfprintf\s*\(\s*stderr\b|\bfputs\s*\([^;]*,\s*stderr\s*\)"
)
# The logger backend owns the real stderr writes.
STDERR_EXEMPT = ("src/core/log.cc",)

NEW_RE = re.compile(r"\bnew\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?\s+[A-Za-z_*(]")
# printf, bare or std::-qualified, but not snprintf or another
# namespace's printf.
STDOUT_RE = re.compile(
    r"std::cout|std::cerr|\bfprintf\s*\(|(?:\bstd::|(?<![\w:]))printf\s*\(")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)\s*$")

# File-scope mutable state: a column-0 "static"/"thread_local"
# declaration that is not const/constexpr and is a variable, not a
# function.
FILE_SCOPE_RE = re.compile(r"^(static|thread_local)\b")
FILE_SCOPE_OK_RE = re.compile(
    r"^(static|thread_local)\s+(thread_local\s+)?(const\b|constexpr\b)"
)

# The layer map of docs/ARCHITECTURE.md, top layer first. A src/
# file may include its own layer and the layers before it.
LAYERS = ("base", "tech", "power", "sim", "router", "net", "core")
LAYER_RANK = {name: rank for rank, name in enumerate(LAYERS)}
SRC_LAYER_RE = re.compile(r"src/(\w+)/")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(\w+)/')

# ---------------------------------------------------------- structural rules

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*(?:std\s*::\s*)?"
    r"unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^();]*:\s*([A-Za-z_]\w*)\s*\)")
# end() alone is a keyed lookup's sentinel (it != m.end()); only a
# begin() starts a walk.
BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")
PARFOR_RE = re.compile(r"\bparallelFor\s*\(")
RNG_DECL_RE = re.compile(r"\b(?:sim\s*::\s*)?Rng\s+([A-Za-z_]\w*)\s*[;({=]")
SUBSCRIBE_RE = re.compile(r"\bsubscribeRaw\s*\(")
HANDLER_ASSIGN_RE = re.compile(
    r"\bsa_handler\s*=\s*&?\s*([A-Za-z_]\w*)")
HANDLER_SIGNAL_RE = re.compile(
    r"\bsignal\s*\(\s*SIG\w+\s*,\s*&?\s*([A-Za-z_]\w*)\s*\)")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
WRITE_RE = re.compile(
    r"(?:(?:\+\+|--)\s*([A-Za-z_]\w*)"
    r"|([A-Za-z_]\w*)\s*(?:\+\+|--|(?:<<|>>|[+\-*/%&|^])?=(?!=)))")
SIGATOMIC_DECL_RE = re.compile(
    r"\bvolatile\s+(?:std\s*::\s*)?sig_atomic_t\s+([A-Za-z_]\w*)")
ATOMIC_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic\s*<[^;>]*>\s+([A-Za-z_]\w*)")
CLASS_RE = re.compile(r"\b(class|struct)\b")
ACCESS_RE = re.compile(r"\b(?:public|protected|private)\s*:(?!:)")
ANNOTATION_RE = re.compile(r"\bORION_[A-Z_]+\b")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Capability members must spell the qualified type, so an unrelated
# class named Mutex elsewhere is not mistaken for one.
CAPABILITY_RE = re.compile(r"\bcore\s*::\s*Mutex\s")
SYNC_TYPES = {"Mutex", "CondVar", "LockGuard"}
SKIP_LEAD = {"friend", "using", "typedef", "enum", "static",
             "template", "class", "struct", "union", "operator"}

# Callees a signal handler may always reach: lock-free atomic member
# operations plus the POSIX async-signal-safe calls the codebase has
# a use for. Everything else must either be defined in the scanned
# tree (and is then checked recursively) or is a finding.
SAFE_CALLS = {
    "store", "load", "exchange", "compare_exchange_strong",
    "compare_exchange_weak", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "test_and_set", "clear",
    "_exit", "_Exit", "abort", "raise", "kill", "write",
}
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "assert", "static_assert", "decltype", "defined",
}

OPEN_TO_CLOSE = {"(": ")", "[": "]", "{": "}", "<": ">"}


def strip_comments_and_strings(line, in_block_comment):
    """Blank out string/char literals and comments, preserving length.

    Returns (cleaned_line, in_block_comment_after)."""
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break  # rest of line is a comment
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "squote"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        else:  # inside a literal
            if c == "\\":
                i += 2
                continue
            if (state == "dquote" and c == '"') or (
                state == "squote" and c == "'"
            ):
                state = "code"
            i += 1
    return "".join(out), state == "block"


def match_delim(text, open_pos):
    """Index of the delimiter matching text[open_pos], or -1."""
    opener = text[open_pos]
    closer = OPEN_TO_CLOSE[opener]
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_commas(text):
    """Split on commas at depth 0 of (), [] and {} nesting."""
    parts = []
    depth = 0
    last = 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[last:i])
            last = i + 1
    parts.append(text[last:])
    return parts


def strip_annotations(text):
    """Remove ORION_*(...) attribute macros (and bare ORION_* words)."""
    out = text
    while True:
        m = ANNOTATION_RE.search(out)
        if m is None:
            return out
        end = m.end()
        rest = out[end:]
        stripped = rest.lstrip()
        if stripped.startswith("("):
            p = end + (len(rest) - len(stripped))
            close = match_delim(out, p)
            end = close + 1 if close != -1 else len(out)
        out = out[: m.start()] + " " + out[end:]


def declares_function(decl):
    """True when the declaration has a parameter list: a '(' before any
    '=' or ';', outside template arguments (so a member of type
    std::function<void()> is data, not a function)."""
    if re.search(r"\boperator\b", decl):
        return True
    depth = 0
    for c in decl:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(depth - 1, 0)
        elif depth == 0 and c in "=;":
            return False
        elif depth == 0 and c == "(":
            return True
    return False


class SourceFile:
    """One scanned file: its raw lines, the same lines with comments and
    literals blanked, and that stripped text joined for the rules that
    span lines."""

    def __init__(self, rel, raw):
        self.rel = rel
        self.raw_lines = raw.splitlines()
        self.code_lines = []
        in_block = False
        for line in self.raw_lines:
            code, in_block = strip_comments_and_strings(line, in_block)
            self.code_lines.append(code)
        self.text = "\n".join(self.code_lines)
        self.line_starts = [0]
        for code in self.code_lines[:-1]:
            self.line_starts.append(self.line_starts[-1] + len(code) + 1)

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)


class Checker:
    def __init__(self, root, rules):
        self.root = root
        self.rules = set(rules)
        self.scanned = 0  # files read, including undecodable ones
        self.files = []
        self.findings = []  # (rel, line, rule, message)
        # (rel, lineno) of suppressions that hid a finding.
        self.used_suppressions = set()

    # -- infrastructure ------------------------------------------------

    def load(self):
        for d in SCAN_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                rel = path.relative_to(self.root).as_posix()
                if path.suffix not in CXX_SUFFIXES or \
                        rel.startswith(SKIP_PREFIXES):
                    continue
                self.scanned += 1
                try:
                    raw = path.read_bytes().decode("utf-8")
                except UnicodeDecodeError:
                    self.findings.append(
                        (rel, 1, "encoding", "not valid UTF-8"))
                    continue
                self.files.append(SourceFile(rel, raw))
        self.by_rel = {f.rel: f for f in self.files}
        self.src_files = [f for f in self.files if f.rel.startswith("src/")]

    def report(self, f, line, rule, message, span=None):
        """Record a finding unless a lint-allow for the rule sits on a
        line of span (default: the finding's line)."""
        if rule not in self.rules:
            return
        for lineno in span if span else [line]:
            if lineno > len(f.raw_lines):
                continue  # an empty header's missing guard
            m = SUPPRESS_RE.search(f.raw_lines[lineno - 1])
            if m and m.group(1) == "lint" and m.group(2) == rule:
                self.used_suppressions.add((f.rel, lineno))
                return
        self.findings.append((f.rel, line, rule, message))

    def run(self):
        self.load()
        for f in self.files:
            self.check_lines(f)
            if f.rel.endswith(".hh"):
                self.check_guard(f)
        for f in self.src_files:
            self.check_unordered(f)
            self.check_rng(f)
            self.check_raw_subscribe(f)
            self.check_unguarded(f)
        self.check_signal_safety()
        if "unused-suppression" in self.rules:
            self.check_suppressions()
        self.findings.sort()

    # -- line rules ----------------------------------------------------

    def check_lines(self, f):
        rel = f.rel
        in_src = rel.startswith("src/")
        is_rng = rel.startswith("src/sim/rng")
        reentrant = rel.startswith(REENTRANT_DIRS)
        m = SRC_LAYER_RE.match(rel)
        layer = m.group(1) if m and m.group(1) in LAYER_RANK else None
        for idx, (line, code) in enumerate(
                zip(f.raw_lines, f.code_lines), 1):
            if in_src and not is_rng:
                for pat, what in NONDET_PATTERNS:
                    if pat.search(code):
                        self.report(
                            f, idx, "nondeterminism",
                            f"{what} breaks run determinism; draw from "
                            "sim::Rng (seeded) instead")
            elif not in_src:
                # Outside src/ wall-clock timing is legitimate, but
                # non-seeded randomness still poisons reproducibility.
                for pat, what in NONDET_PATTERNS[:4]:
                    if pat.search(code):
                        self.report(
                            f, idx, "nondeterminism",
                            f"{what} is not seedable; use sim::Rng with "
                            "an explicit seed")

            if in_src:
                if NEW_RE.search(code):
                    self.report(
                        f, idx, "naked-new",
                        "naked new; use std::make_unique/containers")
                if DELETE_RE.search(code):
                    self.report(
                        f, idx, "naked-new",
                        "naked delete; owning pointers must be smart")
                if STDOUT_RE.search(code):
                    if rel.startswith(STAT_DIRS):
                        self.report(
                            f, idx, "stat-printing",
                            "network/router code must not print stats; "
                            "register them with telemetry::"
                            "MetricsRegistry or report them via Report")
                    elif (STDERR_RE.search(code)
                          and rel not in STDERR_EXEMPT):
                        # Stderr-specific guidance beats the generic
                        # rule (and never double-reports one line).
                        self.report(
                            f, idx, "naked-stderr",
                            "diagnostics must go through core/log "
                            "(log::diag mirrors stderr to the "
                            "structured sink)")
                    else:
                        self.report(
                            f, idx, "stdout-in-library",
                            "library code must not write to stdout/"
                            "stderr; take an std::ostream&")
            elif rel.startswith("tools/"):
                if STDERR_RE.search(code):
                    self.report(
                        f, idx, "naked-stderr",
                        "tool diagnostics must go through core/log "
                        "(log::diag mirrors stderr to the structured "
                        "sink)")

            # The include path is a string literal, so it is blanked
            # in the cleaned line; read it from the raw one.
            m = INCLUDE_RE.match(line) if layer else None
            if m and LAYER_RANK.get(m.group(1), -1) > LAYER_RANK[layer]:
                self.report(
                    f, idx, "layering",
                    f"src/{layer} must not include {m.group(1)}/: a "
                    "layer includes only itself and the layers before "
                    "it (" + " -> ".join(LAYERS) + ")")

            if reentrant and FILE_SCOPE_RE.match(code):
                if (not FILE_SCOPE_OK_RE.match(code)
                        and not declares_function(code)):
                    self.report(
                        f, idx, "file-scope-state",
                        "mutable file-scope state breaks re-entrancy "
                        "(parallel sweep workers share this)")

    def check_guard(self, f):
        for idx, code in enumerate(f.code_lines, 1):
            if PRAGMA_ONCE_RE.match(code):
                self.report(
                    f, idx, "include-guard",
                    "#pragma once is forbidden; use an "
                    "ORION_..._HH guard")

        parts = Path(f.rel).with_suffix("").parts
        if parts[0] == "src":
            parts = parts[1:]
        expected = "ORION_" + "_".join(
            re.sub(r"\W", "_", p).upper() for p in parts) + "_HH"

        ifndef = None
        ifndef_line = 0
        for idx, code in enumerate(f.code_lines, 1):
            m = IFNDEF_RE.match(code)
            if m:
                ifndef, ifndef_line = m.group(1), idx
                break
        if ifndef is None:
            self.report(f, 1, "include-guard",
                        f"missing include guard {expected}")
            return
        if ifndef != expected:
            self.report(
                f, ifndef_line, "include-guard",
                f"guard {ifndef} does not match path (expected "
                f"{expected})")
            return
        define_ok = any(
            DEFINE_RE.match(l) and DEFINE_RE.match(l).group(1) == expected
            for l in f.code_lines[ifndef_line - 1:ifndef_line + 2])
        if not define_ok:
            self.report(
                f, ifndef_line, "include-guard",
                f"#ifndef {expected} has no matching #define")

    # -- unordered-iteration -------------------------------------------

    def unordered_names(self, f):
        """Names declared with an unordered container type in f or in
        its same-stem header, directly or through a `using` alias."""
        texts = [f.text]
        if f.rel.endswith(".cc"):
            header = self.by_rel.get(f.rel[:-3] + ".hh")
            if header is not None:
                texts.append(header.text)
        aliases = {a for t in texts for a in UNORDERED_ALIAS_RE.findall(t)}
        names = set()
        for text in texts:
            type_ends = []
            for m in UNORDERED_RE.finditer(text):
                gt = match_delim(text, m.end() - 1)
                if gt != -1:
                    type_ends.append(gt + 1)
            for alias in aliases:
                type_ends.extend(
                    m.end() for m in re.finditer(rf"\b{alias}\b", text))
            for end in type_ends:
                rest = text[end:]
                if rest.lstrip().startswith("::"):
                    continue  # nested type like ::iterator, not a variable
                nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", rest)
                if nm:
                    names.add(nm.group(1))
        return names

    def check_unordered(self, f):
        names = self.unordered_names(f)
        if not names:
            return
        for pat, what in ((RANGE_FOR_RE, "range-for over"),
                          (BEGIN_RE, "iterator walk of")):
            for m in pat.finditer(f.text):
                if m.group(1) not in names:
                    continue
                self.report(
                    f, f.line_of(m.start()), "unordered-iteration",
                    f"{what} unordered container '{m.group(1)}': "
                    "iteration order is implementation-defined and "
                    "leaks into reports; use an ordered container or "
                    "sort a key snapshot first")

    # -- rng-sharing ---------------------------------------------------

    def check_rng(self, f):
        bodies = []
        for m in PARFOR_RE.finditer(f.text):
            open_p = f.text.index("(", m.start())
            close_p = match_delim(f.text, open_p)
            if close_p == -1:
                continue
            lam = f.text.find("[", open_p, close_p)
            if lam == -1:
                continue
            cap_close = match_delim(f.text, lam)
            if cap_close == -1:
                continue
            body_open = f.text.find("{", cap_close, close_p)
            if body_open == -1:
                continue
            body_close = match_delim(f.text, body_open)
            if body_close == -1:
                continue
            bodies.append((body_open, body_close))

            body = f.text[body_open:body_close]
            for d in RNG_DECL_RE.finditer(body):
                stmt_end = body.find(";", d.end() - 1)
                stmt = body[d.start():stmt_end if stmt_end != -1 else None]
                if "deriveSeed" not in stmt:
                    self.report(
                        f, f.line_of(body_open + d.start()), "rng-sharing",
                        f"Rng '{d.group(1)}' seeded inside a "
                        "parallelFor worker without sim::deriveSeed; "
                        "per-point streams must derive from the base "
                        "seed and the point indices")

        if not bodies:
            return
        for d in RNG_DECL_RE.finditer(f.text):
            if any(b <= d.start() < e for b, e in bodies):
                continue
            name = d.group(1)
            use_re = re.compile(rf"\b{re.escape(name)}\b")
            for b, e in bodies:
                u = use_re.search(f.text, b, e)
                if u:
                    self.report(
                        f, f.line_of(u.start()), "rng-sharing",
                        f"sim::Rng '{name}' declared outside the "
                        "parallelFor worker lambda is referenced "
                        "inside it; sweep workers must not share an "
                        "RNG stream (derive one per point with "
                        "sim::deriveSeed)")
                    break

    # -- raw-subscribe -------------------------------------------------

    @staticmethod
    def resolves_to_static(f, name):
        esc = re.escape(name)
        if re.search(rf"\bstatic\b[^;{{}}()]*\b{esc}\s*\(", f.text):
            return True
        for m in re.finditer(r"namespace\s*\{", f.text):
            open_b = f.text.index("{", m.start())
            close_b = match_delim(f.text, open_b)
            if close_b == -1:
                close_b = len(f.text)
            span = f.text[open_b:close_b]
            if (re.search(rf"(?m)^{esc}\s*\(", span)
                    or re.search(rf"\b{esc}\s*\(\s*void\s*\*", span)):
                return True
        return False

    def check_raw_subscribe(self, f):
        for m in SUBSCRIBE_RE.finditer(f.text):
            before = f.text[: m.start()].rstrip()
            if before.endswith("::"):
                continue  # qualified definition
            prev = re.search(r"([A-Za-z_]\w*)\s*$", before)
            if prev and prev.group(1) == "void":
                continue  # declaration
            open_p = f.text.index("(", m.start())
            close_p = match_delim(f.text, open_p)
            if close_p == -1:
                continue
            args = split_top_commas(f.text[open_p + 1: close_p])
            if len(args) < 3:
                continue
            fn = args[1].strip()
            line = f.line_of(m.start())
            if fn.startswith("[]"):
                continue
            if fn.startswith("["):
                self.report(
                    f, line, "raw-subscribe",
                    "capturing lambda passed to subscribeRaw; "
                    "hot-path dispatch takes a captureless lambda or "
                    "a static trampoline, with state through the "
                    "void* context argument")
                continue
            nm = re.fullmatch(r"&?\s*([A-Za-z_]\w*)", fn)
            if nm and self.resolves_to_static(f, nm.group(1)):
                continue
            self.report(
                f, line, "raw-subscribe",
                f"subscribeRaw handler '{fn}' does not resolve to a "
                "captureless lambda or a file-static / "
                "anonymous-namespace trampoline in this translation "
                "unit")

    # -- unguarded -----------------------------------------------------

    @staticmethod
    def parse_classes(f):
        """Yield (name, body_open, body_close) for class definitions."""
        for m in CLASS_RE.finditer(f.text):
            before = f.text[: m.start()].rstrip()
            if before.endswith(("<", ",")):
                continue  # template parameter, not a definition
            prev = re.search(r"([A-Za-z_]\w*)\s*$", before)
            if prev and prev.group(1) == "enum":
                continue
            brace = f.text.find("{", m.end())
            semi = f.text.find(";", m.end())
            if brace == -1 or (semi != -1 and semi < brace):
                continue  # forward declaration
            header = f.text[m.end(): brace]
            header = re.split(r"(?<!:):(?!:)", header)[0]
            header = strip_annotations(header)
            header = re.sub(r"\bfinal\b", " ", header)
            idents = IDENT_RE.findall(header)
            name = idents[-1] if idents else "<anonymous>"
            close = match_delim(f.text, brace)
            if close == -1:
                close = len(f.text)
            yield name, brace + 1, close

    @staticmethod
    def class_members(f, body_open, body_close):
        """Yield (stmt_text, start_off, end_off) for data-member
        candidates at the class body's top level."""
        i = body_open
        buf_start = None
        buf = []
        while i < body_close:
            c = f.text[i]
            if c == "{":
                close = match_delim(f.text, i)
                if close == -1 or close > body_close:
                    return
                j = close + 1
                while j < body_close and f.text[j] in " \t\n":
                    j += 1
                if j < body_close and f.text[j] == ";":
                    # brace-or-equal initializer: member continues
                    i = close + 1
                    continue
                # function body or nested type: not a data member
                buf = []
                buf_start = None
                i = close + 1
                continue
            if c == ";":
                stmt = "".join(buf).strip()
                if stmt and buf_start is not None:
                    yield stmt, buf_start, i
                buf = []
                buf_start = None
                i += 1
                continue
            if not c.isspace() and buf_start is None:
                buf_start = i
            buf.append(c)
            i += 1

    def check_unguarded(self, f):
        for cls, body_open, body_close in self.parse_classes(f):
            members = []  # (name, tokens, has_guard, start, end, stmt)
            for stmt, start, end in self.class_members(
                    f, body_open, body_close):
                stmt = ACCESS_RE.sub(" ", stmt).strip()
                if not stmt:
                    continue
                has_guard = "ORION_GUARDED_BY" in stmt
                bare = strip_annotations(stmt)
                bare = re.split(r"=", bare)[0].strip()
                tokens = IDENT_RE.findall(bare)
                if not tokens or tokens[0] in SKIP_LEAD:
                    continue
                if declares_function(bare):
                    continue
                members.append(
                    (tokens[-1], tokens, has_guard, start, end, stmt))

            if not any(CAPABILITY_RE.search(t[5]) for t in members):
                continue
            for name, tokens, has_guard, start, end, stmt in members:
                if set(tokens[:-1]) & SYNC_TYPES:
                    continue  # the capability / sync plumbing itself
                if tokens[0] == "const":
                    continue  # immutable after construction
                if has_guard:
                    continue
                span = list(range(f.line_of(start), f.line_of(end) + 1))
                self.report(
                    f, f.line_of(start), "unguarded",
                    f"mutable member '{name}' of capability-holding "
                    f"class '{cls}' lacks ORION_GUARDED_BY; annotate "
                    "it or add '// lint-allow: unguarded -- "
                    "<reason>'", span=span)

    # -- signal-safety -------------------------------------------------

    @staticmethod
    def function_defs(f):
        """Yield (name, body_open, body_close) for every function-like
        definition in f (free functions, methods, extern "C")."""
        for m in CALL_RE.finditer(f.text):
            name = m.group(1)
            if name in CONTROL_KEYWORDS:
                continue
            open_p = f.text.index("(", m.start())
            close_p = match_delim(f.text, open_p)
            if close_p == -1:
                continue
            j = close_p + 1
            while j < len(f.text):
                rest = f.text[j:]
                stripped = rest.lstrip()
                off = j + (len(rest) - len(stripped))
                spec = re.match(r"(?:const|noexcept|override|final)\b",
                                stripped)
                if spec:
                    j = off + spec.end()
                    continue
                if stripped.startswith("("):  # noexcept(...) operand
                    close2 = match_delim(f.text, off)
                    if close2 == -1:
                        break
                    j = close2 + 1
                    continue
                break
            rest = f.text[j:].lstrip()
            if not rest.startswith("{"):
                continue
            body_open = j + (len(f.text[j:]) - len(rest))
            body_close = match_delim(f.text, body_open)
            if body_close == -1:
                continue
            yield name, body_open, body_close

    def scan_handler_body(self, f, body_open, body_close, atomics, defs,
                          queue):
        body = f.text[body_open:body_close]

        for m in WRITE_RE.finditer(body):
            name = m.group(1) or m.group(2)
            start = m.start(1) if m.group(1) else m.start(2)
            lead_start = max(body.rfind(";", 0, start),
                             body.rfind("{", 0, start),
                             body.rfind("}", 0, start)) + 1
            lead = body[lead_start:start].strip()
            member_write = lead.endswith((".", "->"))
            if not member_write and IDENT_RE.findall(lead):
                continue  # declaration with initializer: a local
            if name in atomics:
                continue
            # A reassigned local declared earlier in this body is
            # private to the handler's frame and always safe.
            if re.search(rf"\b[A-Za-z_]\w*[\s*&]+{re.escape(name)}"
                         rf"\s*[;=({{\[]", body[:start]):
                continue
            self.report(
                f, f.line_of(body_open + start), "signal-safety",
                f"write to '{name}' on a signal-handler path; handlers "
                "may only store to volatile std::sig_atomic_t "
                "variables or lock-free std::atomic objects")

        for m in CALL_RE.finditer(body):
            name = m.group(1)
            if name in CONTROL_KEYWORDS or name in SAFE_CALLS:
                continue
            if name in defs:
                queue.append(name)
                continue
            self.report(
                f, f.line_of(body_open + m.start()), "signal-safety",
                f"call to '{name}' on a signal-handler path; it is "
                "neither defined in this tree (so it cannot be "
                "verified) nor a known async-signal-safe operation")

    def check_signal_safety(self):
        defs = {}
        handlers = []
        for f in self.src_files:
            for name, b, e in self.function_defs(f):
                defs.setdefault(name, []).append((f, b, e))
            for pat in (HANDLER_ASSIGN_RE, HANDLER_SIGNAL_RE):
                for m in pat.finditer(f.text):
                    name = m.group(1)
                    if not name.startswith("SIG"):
                        handlers.append(name)
        if not handlers:
            return
        # Stores to these are safe: volatile sig_atomic_t and lock-free
        # atomics.
        atomics = set()
        for f in self.src_files:
            atomics.update(SIGATOMIC_DECL_RE.findall(f.text))
            atomics.update(ATOMIC_DECL_RE.findall(f.text))
        queue = handlers
        seen = set()
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            for f, b, e in defs.get(name, []):
                self.scan_handler_body(f, b, e, atomics, defs, queue)

    # -- unused-suppression --------------------------------------------

    def check_suppressions(self):
        """Flag suppressions that do not earn their keep.

        Emitted directly (never themselves suppressible): a stale
        suppression silently re-arms the rule it once excused, so it
        must be deleted, not excused again.
        """
        for f in self.files:
            for lineno, raw in enumerate(f.raw_lines, 1):
                m = SUPPRESS_RE.search(raw)
                if m is None:
                    continue
                spelling, rule, why = m.groups()
                if spelling != "lint":
                    message = (f"'{spelling}-allow' does not suppress "
                               f"anything; write '// lint-allow: {rule} "
                               "-- <reason>'")
                elif rule not in RULES:
                    message = f"lint-allow names unknown rule '{rule}'"
                elif not why:
                    message = (f"lint-allow for '{rule}' has no reason; "
                               f"write '// lint-allow: {rule} -- "
                               "<reason>'")
                elif (rule in self.rules
                      and (f.rel, lineno) not in self.used_suppressions):
                    message = (f"stale suppression: no '{rule}' finding "
                               "is triggered here anymore; delete the "
                               "lint-allow comment")
                else:
                    continue
                self.findings.append(
                    (f.rel, lineno, "unused-suppression", message))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this "
                         "script's directory)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule names and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"orion_lint: no src/ under {root}", file=sys.stderr)
        return 2

    rules = RULES
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"orion_lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    checker = Checker(root, rules)
    checker.run()
    for rel, line, rule, message in checker.findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    print(f"orion_lint: {checker.scanned} files scanned, "
          f"{len(checker.findings)} finding(s)")
    return 1 if checker.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
