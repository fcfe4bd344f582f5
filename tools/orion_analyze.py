#!/usr/bin/env python3
"""Project-aware static analysis for Orion's determinism and
concurrency contracts.

orion_lint.py catches line-local style violations; this tool checks
*structural* properties that gate the road to intra-simulation
parallelism (ROADMAP item 1b). The reference engine is a dependency-
free tokenizer over the source tree, so the rules run everywhere the
repo builds; when libclang python bindings are installed
(``--engine libclang``, used by CI's analysis job) the `unguarded`
rule is re-derived from the real AST and cross-checked.

Rules:

  unordered-iteration  iterating a std::unordered_* container is
                       forbidden in src/: iteration order is
                       implementation-defined, and every consumer of a
                       walk (Report, CSV exports, forensics bundles)
                       must be bit-identical across runs and hosts.
                       Keyed lookup is fine; walks need an ordered
                       container or a sorted key snapshot.
  rng-sharing          inside a core::parallelFor worker lambda, a
                       sim::Rng must be (a) constructed in the lambda
                       body and (b) seeded through sim::deriveSeed, so
                       every sweep point owns an independent stream.
                       Referencing an Rng declared outside the lambda
                       shares one stream across workers and makes
                       results depend on --jobs.
  fp-accum-drift       the ordered list of `+=` accumulation
                       statements in each src/power file is
                       fingerprinted in tools/analyze_baseline.json.
                       Reordering floating-point accumulation changes
                       the bits of every energy figure; a changed
                       fingerprint means golden reports must be
                       re-verified before --update-baselines.
  raw-subscribe        EventBus::subscribeRaw may only take a
                       captureless lambda or a file-static /
                       anonymous-namespace trampoline: hot-path
                       dispatch must stay an indirect call with a
                       void* context, never a capturing closure.
  unguarded            a class holding a core::Mutex or core::Role
                       capability must annotate every mutable data
                       member with ORION_GUARDED_BY (or carry an
                       explicit, justified suppression). This is what
                       makes "remove one annotation" a CI failure even
                       on GCC-only hosts where the attributes are
                       no-ops.
  signal-safety        functions reachable from an installed signal
                       handler (sa_handler assignments and
                       std::signal registrations) may only write
                       `volatile std::sig_atomic_t` variables, call
                       lock-free atomic operations, or call the small
                       POSIX async-signal-safe set. Anything else —
                       plain global writes, printf, allocation,
                       locks — is a finding: a handler interrupting
                       the simulation mid-cycle must not corrupt
                       state it shares with it.
  unused-suppression   an `// analyze-allow:` comment that no longer
                       suppresses anything, names an unknown rule, or
                       lacks a `-- justification` is itself a finding,
                       so suppressions cannot rot.

A finding is suppressed by `// analyze-allow: <rule> -- <why>` on any
line of the offending statement. Exit status: 0 clean, 1 findings,
2 usage error.

Usage: orion_analyze.py --root DIR [--json FILE] [--rules LIST]
                        [--engine auto|text|libclang]
                        [--list-rules] [--update-baselines]
"""

import argparse
import bisect
import hashlib
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from orion_lint import strip_comments_and_strings  # noqa: E402

RULES = (
    "unordered-iteration",
    "rng-sharing",
    "fp-accum-drift",
    "raw-subscribe",
    "unguarded",
    "signal-safety",
    "unused-suppression",
)

BASELINE_REL = "tools/analyze_baseline.json"

ALLOW_RE = re.compile(r"//\s*analyze-allow:\s*([\w-]+)(?:\s*--\s*(\S.*))?")

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^();]*:\s*([A-Za-z_]\w*)\s*\)")
ITERATOR_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*c?r?(?:begin|end)\s*\(")
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

OPEN_TO_CLOSE = {"(": ")", "[": "]", "{": "}", "<": ">"}


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
    """Split on commas at depth 0 of (), [], {} and <> nesting."""
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


class SourceFile:
    def __init__(self, path, root):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8")
        self.raw_lines = raw.splitlines()
        cleaned = []
        in_block = False
        for line in self.raw_lines:
            c, in_block = strip_comments_and_strings(line, in_block)
            cleaned.append(c)
        self.text = "\n".join(cleaned)
        self.line_starts = [0]
        for line in cleaned[:-1]:
            self.line_starts.append(self.line_starts[-1] + len(line) + 1)

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)


class Analyzer:
    def __init__(self, root, rules):
        self.root = root
        self.rules = rules
        self.findings = []
        self.files = []
        # (rel, lineno) of analyze-allow comments that suppressed a
        # finding; compared against all sites for unused-suppression.
        self.used_suppressions = set()
        self.suppression_sites = []  # (rel, lineno, rule, why)

    # -- infrastructure ------------------------------------------------

    def load(self):
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.suffix in (".cc", ".hh"):
                self.files.append(SourceFile(path, self.root))
        for f in self.files:
            for lineno, raw in enumerate(f.raw_lines, 1):
                m = ALLOW_RE.search(raw)
                if m:
                    self.suppression_sites.append(
                        (f.rel, lineno, m.group(1), m.group(2)))

    def report(self, f, line, rule, message, span=None):
        """Record a finding unless a suppression covers its span."""
        for lineno in span if span else [line]:
            if lineno < 1 or lineno > len(f.raw_lines):
                continue
            m = ALLOW_RE.search(f.raw_lines[lineno - 1])
            if m and m.group(1) == rule:
                self.used_suppressions.add((f.rel, lineno))
                return
        self.findings.append(
            {"file": f.rel, "line": line, "rule": rule,
             "message": message})

    def run(self):
        self.load()
        dispatch = {
            "unordered-iteration": self.check_unordered,
            "rng-sharing": self.check_rng,
            "fp-accum-drift": self.check_fp_accum,
            "raw-subscribe": self.check_raw_subscribe,
            "unguarded": self.check_unguarded,
        }
        for rule in self.rules:
            if rule in dispatch:
                for f in self.files:
                    dispatch[rule](f)
        if "signal-safety" in self.rules:
            self.check_signal_safety()
        if "unused-suppression" in self.rules:
            self.check_suppressions()
        self.findings.sort(
            key=lambda x: (x["file"], x["line"], x["rule"]))

    # -- unordered-iteration -------------------------------------------

    @staticmethod
    def unordered_names(f):
        names = set()
        for m in UNORDERED_RE.finditer(f.text):
            lt = f.text.index("<", m.start())
            gt = match_delim(f.text, lt)
            if gt == -1:
                continue
            rest = f.text[gt + 1:]
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
                          (ITERATOR_RE, "iterator walk of")):
            for m in pat.finditer(f.text):
                if m.group(1) not in names:
                    continue
                line = f.line_of(m.start())
                self.report(
                    f, line, "unordered-iteration",
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
                    line = f.line_of(body_open + d.start())
                    self.report(
                        f, line, "rng-sharing",
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

    # -- fp-accum-drift ------------------------------------------------

    @staticmethod
    def accum_signature(f):
        """Ordered, whitespace-normalized `+=` statements in f."""
        stmts = []
        for m in re.finditer(r"\+=", f.text):
            start = max(f.text.rfind(";", 0, m.start()),
                        f.text.rfind("{", 0, m.start()),
                        f.text.rfind("}", 0, m.start())) + 1
            end = f.text.find(";", m.end())
            if end == -1:
                end = len(f.text)
            stmt = " ".join(f.text[start:end].split())
            stmts.append((stmt, f.line_of(m.start())))
        return stmts

    @staticmethod
    def digest(stmts):
        joined = "\n".join(s for s, _ in stmts)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def load_baseline(self):
        path = self.root / BASELINE_REL
        if not path.is_file():
            return {}
        try:
            return json.loads(path.read_text()).get("fp-accum", {})
        except (json.JSONDecodeError, OSError):
            return None

    def check_fp_accum(self, f):
        if not f.rel.startswith("src/power/"):
            return
        baseline = self.load_baseline()
        if baseline is None:
            self.findings.append(
                {"file": BASELINE_REL, "line": 1,
                 "rule": "fp-accum-drift",
                 "message": "baseline file is unreadable; regenerate "
                            "with --update-baselines"})
            return
        stmts = self.accum_signature(f)
        if not stmts:
            return
        line = stmts[0][1]
        entry = baseline.get(f.rel)
        if entry is None:
            self.report(
                f, line, "fp-accum-drift",
                "floating-point accumulation chain has no registered "
                "fingerprint; verify golden reports, then run "
                "--update-baselines")
        elif (entry.get("count") != len(stmts)
              or entry.get("sha256") != self.digest(stmts)):
            self.report(
                f, line, "fp-accum-drift",
                f"accumulation chain changed (baseline "
                f"{entry.get('count')} statement(s), now {len(stmts)}): "
                "reordering FP accumulation changes energy bits; "
                "re-verify golden reports, then --update-baselines")

    def stale_baseline_entries(self):
        """fp-accum baseline entries whose file lost its accumulations."""
        baseline = self.load_baseline()
        if not baseline:
            return
        current = {f.rel for f in self.files
                   if f.rel.startswith("src/power/")
                   and self.accum_signature(f)}
        for rel in sorted(set(baseline) - current):
            self.findings.append(
                {"file": BASELINE_REL, "line": 1,
                 "rule": "fp-accum-drift",
                 "message": f"stale baseline entry for '{rel}' (file "
                            "gone or no accumulations left); run "
                            "--update-baselines"})

    def update_baselines(self):
        self.load()
        table = {}
        for f in self.files:
            if not f.rel.startswith("src/power/"):
                continue
            stmts = self.accum_signature(f)
            if stmts:
                table[f.rel] = {"count": len(stmts),
                                "sha256": self.digest(stmts)}
        path = self.root / BASELINE_REL
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"fp-accum": table}, indent=2, sort_keys=True)
            + "\n")
        return len(table)

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

    # Capability members must spell the qualified type: the tech layer
    # has an unrelated `Role` enum, so bare names are not trusted.
    CAPABILITY_RE = re.compile(r"\bcore\s*::\s*(?:Mutex|Role)\s")
    SYNC_TYPES = {"Mutex", "Role", "CondVar", "LockGuard", "RoleGuard"}
    SKIP_LEAD = {"friend", "using", "typedef", "enum", "static",
                 "template", "class", "struct", "union", "operator"}

    def parse_classes(self, f):
        """Yield (name, body_open, body_close) for class definitions."""
        for m in CLASS_RE.finditer(f.text):
            before = f.text[: m.start()].rstrip()
            if before.endswith(("<", ",")):
                continue  # template parameter, not a definition
            prev = re.search(r"([A-Za-z_]\w*)\s*$", before)
            if prev and prev.group(1) == "enum":
                continue
            stop = len(f.text)
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
                close = stop
            yield name, brace + 1, close

    def class_members(self, f, body_open, body_close):
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
                has_guard = ("ORION_GUARDED_BY" in stmt
                             or "ORION_PT_GUARDED_BY" in stmt)
                bare = strip_annotations(stmt)
                bare = re.split(r"=", bare)[0].strip()
                tokens = IDENT_RE.findall(bare)
                if not tokens or tokens[0] in self.SKIP_LEAD:
                    continue
                if "(" in bare or "operator" in tokens:
                    continue  # function declaration
                members.append(
                    (tokens[-1], tokens, has_guard, start, end, stmt))

            capability = any(
                self.CAPABILITY_RE.search(t[5]) for t in members)
            if not capability:
                continue
            for name, tokens, has_guard, start, end, stmt in members:
                if set(tokens[:-1]) & self.SYNC_TYPES:
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
                    "it or add '// analyze-allow: unguarded -- "
                    "<reason>'", span=span)

    # -- signal-safety -------------------------------------------------

    # Callees a signal handler may always reach: lock-free atomic
    # member operations plus the POSIX async-signal-safe calls the
    # codebase has a use for. Everything else must either be defined
    # in the scanned tree (and is then checked recursively) or is a
    # finding.
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

    def function_defs(self, f):
        """Yield (name, body_open, body_close) for every function-like
        definition in f (free functions, methods, extern "C")."""
        for m in CALL_RE.finditer(f.text):
            name = m.group(1)
            if name in self.CONTROL_KEYWORDS:
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

    def sig_atomic_names(self):
        names = set()
        for f in self.files:
            names.update(SIGATOMIC_DECL_RE.findall(f.text))
        return names

    def atomic_names(self):
        names = set()
        for f in self.files:
            names.update(ATOMIC_DECL_RE.findall(f.text))
        return names

    def scan_handler_body(self, f, body_open, body_close, sig_atomics,
                          atomics, defs, queue):
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
            if name in sig_atomics or name in atomics:
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
            if name in self.CONTROL_KEYWORDS or name in self.SAFE_CALLS:
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
        for f in self.files:
            for name, b, e in self.function_defs(f):
                defs.setdefault(name, []).append((f, b, e))
            for pat in (HANDLER_ASSIGN_RE, HANDLER_SIGNAL_RE):
                for m in pat.finditer(f.text):
                    name = m.group(1)
                    if not name.startswith("SIG"):
                        handlers.append(name)
        if not handlers:
            return
        sig_atomics = self.sig_atomic_names()
        atomics = self.atomic_names()
        queue = handlers
        seen = set()
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            for f, b, e in defs.get(name, []):
                self.scan_handler_body(f, b, e, sig_atomics, atomics,
                                       defs, queue)

    # -- unused-suppression --------------------------------------------

    def check_suppressions(self):
        for rel, lineno, rule, why in self.suppression_sites:
            where = {"file": rel, "line": lineno,
                     "rule": "unused-suppression"}
            if rule not in RULES:
                self.findings.append(
                    {**where,
                     "message": f"analyze-allow names unknown rule "
                                f"'{rule}'"})
            elif not why or not why.strip():
                self.findings.append(
                    {**where,
                     "message": f"analyze-allow for '{rule}' has no "
                                "justification; write '// "
                                f"analyze-allow: {rule} -- <reason>'"})
            elif (rule in self.rules
                  and (rel, lineno) not in self.used_suppressions):
                self.findings.append(
                    {**where,
                     "message": f"stale suppression: no '{rule}' "
                                "finding is triggered here anymore; "
                                "delete the analyze-allow comment"})


def libclang_unguarded(root, analyzer):
    """Re-derive the `unguarded` rule from the clang AST.

    Returns a findings list, or None when libclang (or a usable
    compilation database) is unavailable — callers keep the text
    engine's results in that case.
    """
    try:
        from clang import cindex

        db_dir = None
        for cand in (root, root / "build", root / "build-clang"):
            if (cand / "compile_commands.json").is_file():
                db_dir = cand
                break
        if db_dir is None:
            return None
        db = cindex.CompilationDatabase.fromDirectory(str(db_dir))
        index = cindex.Index.create()

        findings = []
        seen = set()
        for cmd in db.getAllCompileCommands():
            args = [a for a in list(cmd.arguments)[1:]
                    if a not in (cmd.filename, "-c", "-o")]
            # Drop the object-file operand left after stripping -o.
            args = [a for a in args if not a.endswith(".o")]
            tu = index.parse(cmd.filename, args=args)
            for cur in tu.cursor.walk_preorder():
                if cur.kind not in (
                        cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL,
                        cindex.CursorKind.CLASS_TEMPLATE):
                    continue
                if not cur.is_definition():
                    continue
                loc = cur.location
                if loc.file is None:
                    continue
                path = Path(loc.file.name).resolve()
                try:
                    rel = path.relative_to(root).as_posix()
                except ValueError:
                    continue
                if not rel.startswith("src/"):
                    continue
                key = (rel, loc.line, cur.spelling)
                if key in seen:
                    continue
                seen.add(key)
                fields = [c for c in cur.get_children()
                          if c.kind == cindex.CursorKind.FIELD_DECL]
                cap = [fld for fld in fields
                       if re.search(r"(?:^|::)core::(?:Mutex|Role)$",
                                    fld.type.spelling)]
                if not cap:
                    continue
                src_file = next((sf for sf in analyzer.files
                                 if sf.rel == rel), None)
                for fld in fields:
                    tspell = fld.type.spelling
                    if re.search(r"\b(?:Mutex|Role|CondVar|LockGuard|"
                                 r"RoleGuard)\b", tspell):
                        continue
                    if tspell.startswith("const ") or "&" in tspell:
                        continue
                    toks = {t.spelling for t in fld.get_tokens()}
                    if "ORION_GUARDED_BY" in toks or \
                            "ORION_PT_GUARDED_BY" in toks:
                        continue
                    line = fld.location.line
                    if src_file is not None:
                        raw = src_file.raw_lines[line - 1] \
                            if line <= len(src_file.raw_lines) else ""
                        m = ALLOW_RE.search(raw)
                        if m and m.group(1) == "unguarded":
                            analyzer.used_suppressions.add((rel, line))
                            continue
                    findings.append(
                        {"file": rel, "line": line, "rule": "unguarded",
                         "message": f"[libclang] mutable field "
                                    f"'{fld.spelling}' of "
                                    f"capability-holding class "
                                    f"'{cur.spelling}' lacks "
                                    "ORION_GUARDED_BY"})
        return findings
    except Exception as exc:  # noqa: BLE001 — degrade, never crash CI
        print(f"orion_analyze: libclang engine unavailable "
              f"({type(exc).__name__}: {exc}); using text engine",
              file=sys.stderr)
        return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this "
                         "script's directory)")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="write findings as JSON ('-' for stdout)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--engine", default="auto",
                    choices=("auto", "text", "libclang"),
                    help="analysis engine (libclang refines the "
                         "unguarded rule when python bindings exist)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule names and exit")
    ap.add_argument("--update-baselines", action="store_true",
                    help="rewrite tools/analyze_baseline.json from "
                         "the current tree and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"orion_analyze: no src/ under {root}", file=sys.stderr)
        return 2

    rules = list(RULES)
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"orion_analyze: unknown rule(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    analyzer = Analyzer(root, rules)
    if args.update_baselines:
        n = analyzer.update_baselines()
        print(f"orion_analyze: fingerprinted {n} file(s) into "
              f"{BASELINE_REL}")
        return 0

    analyzer.run()
    if "fp-accum-drift" in rules:
        analyzer.stale_baseline_entries()

    engine = args.engine
    if engine in ("auto", "libclang"):
        clang_findings = libclang_unguarded(root, analyzer)
        if clang_findings is None:
            engine = "text"
        else:
            engine = "libclang"
            merged = [x for x in analyzer.findings
                      if x["rule"] != "unguarded"]
            merged.extend(clang_findings)
            analyzer.findings = merged
            if "unused-suppression" in rules:
                analyzer.findings = [
                    x for x in analyzer.findings
                    if x["rule"] != "unused-suppression"]
                analyzer.check_suppressions()
            analyzer.findings.sort(
                key=lambda x: (x["file"], x["line"], x["rule"]))

    for x in analyzer.findings:
        print(f"{x['file']}:{x['line']}: [{x['rule']}] {x['message']}")
    summary = (f"orion_analyze: {len(analyzer.files)} files scanned, "
               f"{len(analyzer.findings)} finding(s) [engine={engine}]")
    print(summary)

    if args.json:
        payload = json.dumps(
            {"engine": engine, "root": str(root),
             "files_scanned": len(analyzer.files),
             "findings": analyzer.findings}, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload)

    return 1 if analyzer.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
