#!/usr/bin/env python3
"""detlint — determinism linter for the chicsim simulator.

Every result in the 4x3 ES x DS matrix rests on deterministic replay: the
bit-identity suites (test_refactor_equivalence, test_parallel_determinism,
the empty-fault-plan identity) all assert exact double equality across runs.
This linter statically rejects the code patterns that historically break
that contract:

  wall-clock    reading real time inside simulation code (std::chrono
                clocks, time(), clock(), gettimeofday, ...). Real time must
                never feed simulated state; the only legitimate uses are
                the opt-in profiler and benchmark harness timing.
  raw-rand      randomness outside the seeded substream registry
                (util::Rng): rand(), srand(), std::random_device, *rand48.
  unordered-container
                declaring std::unordered_map/set in simulation code.
                Iteration order is a function of the allocator and libc++
                internals, so any iteration that feeds scheduling
                decisions, event creation order, or floating-point
                accumulation silently breaks cross-platform bit identity.
                Each declaration must either be converted to an ordered /
                stable container or proven order-insensitive and
                annotated (see below).
  pointer-key   std::map/std::set ordered by a pointer key: iteration
                order is address order, which varies run to run under
                ASLR.

Annotations. A site that is genuinely safe is silenced with a one-line
justified annotation on the same line or one of the three lines above it:

    // detlint: order-insensitive: <one-line reason>       (container rules)
    // detlint: allow(wall-clock): <one-line reason>
    // detlint: allow(raw-rand): <one-line reason>
    // detlint: allow(pointer-key): <one-line reason>

The justification is mandatory: an annotation with an empty reason is
itself a violation, and so is an annotation that no longer silences
anything (stale-annotation), so the inventory of waived sites stays honest.

Baseline. `--baseline FILE` names a committed inventory of known legacy
findings (fingerprinted by file, rule and normalized line content, so pure
line-number drift does not invalidate it). Baselined findings are reported
but do not fail the run; anything new does. The repo's committed baseline
is empty — every site is annotated or fixed — and should stay that way.

Exit codes: 0 clean, 1 violations, 2 bad invocation.

Usage:
    python3 tools/detlint/detlint.py                     # lint src/ bench/
    python3 tools/detlint/detlint.py --list path...      # explicit paths
    python3 tools/detlint/detlint.py --update-baseline   # refresh baseline
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rules


class Rule:
    def __init__(self, name: str, pattern: str, message: str) -> None:
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message


# Lookbehind (?<![A-Za-z0-9_:]) keeps identifiers like link_busy_time( or
# Engine::now( from matching the bare libc calls.
RULES = [
    Rule(
        "wall-clock",
        r"(system_clock|steady_clock|high_resolution_clock"
        r"|(?<![A-Za-z0-9_:])time\s*\(|(?<![A-Za-z0-9_:])clock\s*\("
        r"|gettimeofday|clock_gettime|(?<![A-Za-z0-9_])localtime"
        r"|(?<![A-Za-z0-9_])gmtime|QueryPerformanceCounter)",
        "wall-clock read in simulation code (real time must never feed "
        "simulated state)",
    ),
    Rule(
        "raw-rand",
        r"((?<![A-Za-z0-9_:])s?rand\s*\(|random_device"
        r"|(?<![A-Za-z0-9_])[dlm]rand48|arc4random)",
        "randomness outside the seeded util::Rng substream registry",
    ),
    Rule(
        "unordered-container",
        r"\bunordered_(?:flat_)?(?:multi)?(?:map|set)\s*<",
        "unordered container in simulation code: iteration order leaks "
        "libc++ internals into scheduling / FP-accumulation order",
    ),
    Rule(
        "pointer-key",
        r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:<>]*\s*\*",
        "ordered container keyed by pointer: iteration order is address "
        "order, which changes under ASLR",
    ),
]

RULE_NAMES = {r.name for r in RULES}

# `// detlint: order-insensitive: reason` or `// detlint: allow(rule): reason`
ANNOTATION_RE = re.compile(
    r"//\s*detlint:\s*(?:(order-insensitive)|allow\(([a-z-]+)\))\s*[:—-]?\s*(.*)$"
)

# An annotation on line N silences findings on lines N .. N + ANNOTATION_REACH.
ANNOTATION_REACH = 3

HEADER_HINT = {
    "wall-clock": "<chrono>/<ctime>",
    "raw-rand": "<random>/<cstdlib>",
}


class Annotation:
    def __init__(self, line_no: int, rule: str, reason: str, raw: str) -> None:
        self.line_no = line_no
        self.rule = rule  # rule name, or "" when the reason is missing
        self.reason = reason
        self.raw = raw
        self.used = False


class Finding:
    def __init__(self, path: str, line_no: int, rule: str, message: str, line: str) -> None:
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message
        self.line = line.strip()

    def fingerprint(self) -> str:
        # Normalize whitespace so reformatting does not churn the baseline;
        # line numbers are deliberately excluded so code motion above a
        # legacy site does not resurrect it.
        normalized = re.sub(r"\s+", " ", self.line)
        digest = hashlib.sha256(
            f"{self.path}|{self.rule}|{normalized}".encode()
        ).hexdigest()[:16]
        return f"{self.path}:{self.rule}:{digest}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line_no}: [{self.rule}] {self.message}\n"
            f"    {self.line}"
        )


# ---------------------------------------------------------------------------
# Source scrubbing: drop block comments and string/char literal contents so
# prose like "a hash map" or a logged format string cannot trip a rule, while
# line comments survive for annotation parsing.


def scrub_sources(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    line: list[str] = []
    state = "code"  # code | block | string | char | line_comment
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line))
            line = []
            if state in ("line_comment", "string", "char"):
                state = "code"  # unterminated literal: recover per line
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "*":
                state = "block"
                line.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "/":
                state = "line_comment"
                line.append(c)
                i += 1
                continue
            if c == '"':
                state = "string"
                line.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                line.append(c)
                i += 1
                continue
            line.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                line.append("  ")
                i += 2
                continue
            line.append(" ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                line.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                line.append(c)
            else:
                line.append(" ")
        elif state == "line_comment":
            line.append(c)
        i += 1
    if line:
        out.append("".join(line))
    return out


# ---------------------------------------------------------------------------
# Per-file lint


def lint_file(path: Path, rel: str) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(rel, 0, "io-error", str(e), "")]

    raw_lines = text.splitlines()
    scrubbed = scrub_sources(text)

    annotations: list[Annotation] = []
    for no, line in enumerate(scrubbed, start=1):
        m = ANNOTATION_RE.search(line)
        if m is None:
            if "detlint:" in line and "//" in line:
                annotations.append(Annotation(no, "", "", line.strip()))
            continue
        rule = m.group(1) or m.group(2)
        reason = m.group(3).strip(" .—-")
        if rule == "order-insensitive":
            rule_set = {"unordered-container", "pointer-key"}
        elif rule in RULE_NAMES:
            rule_set = {rule}
        else:
            annotations.append(Annotation(no, "", reason, line.strip()))
            continue
        if not reason:
            annotations.append(Annotation(no, "", "", line.strip()))
            continue
        for r in rule_set:
            annotations.append(Annotation(no, r, reason, line.strip()))

    findings: list[Finding] = []
    for no, line in enumerate(scrubbed, start=1):
        code = line.split("//", 1)[0]
        if "#include" in code:
            continue  # the declaration site is the hazard, not the include
        for rule in RULES:
            if not rule.pattern.search(code):
                continue
            ann = next(
                (
                    a
                    for a in annotations
                    if a.rule == rule.name and a.line_no <= no <= a.line_no + ANNOTATION_REACH
                ),
                None,
            )
            if ann is not None:
                ann.used = True
                continue
            src = raw_lines[no - 1] if no - 1 < len(raw_lines) else line
            findings.append(Finding(rel, no, rule.name, rule.message, src))

    for a in annotations:
        if a.rule == "":
            findings.append(
                Finding(
                    rel,
                    a.line_no,
                    "bad-annotation",
                    "malformed detlint annotation or missing one-line "
                    "justification (need `// detlint: order-insensitive: "
                    "<reason>` or `// detlint: allow(<rule>): <reason>`)",
                    a.raw,
                )
            )
    # Collapse the order-insensitive alias (it expands to two rules) before
    # the staleness check: the annotation is used if ANY expansion matched.
    used_lines = {a.line_no for a in annotations if a.used}
    reported: set[int] = set()
    for a in annotations:
        if a.rule == "" or a.used or a.line_no in used_lines or a.line_no in reported:
            continue
        reported.add(a.line_no)
        findings.append(
            Finding(
                rel,
                a.line_no,
                "stale-annotation",
                f"annotation silences no {a.rule} finding within "
                f"{ANNOTATION_REACH} lines — remove it or move it next to "
                "the hazard",
                a.raw,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Driver


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    exts = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp", ".inl"}
    files: list[Path] = []
    for p in paths:
        base = (root / p).resolve() if not Path(p).is_absolute() else Path(p)
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(f for f in sorted(base.rglob("*")) if f.suffix in exts)
        else:
            print(f"detlint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="detlint", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None, help="files or directories (default: src bench)")
    parser.add_argument("--root", default=None, help="repository root (default: two levels above this script)")
    parser.add_argument("--baseline", default=None, help="baseline file of known legacy findings (default: baseline.txt beside this script; 'none' disables)")
    parser.add_argument("--update-baseline", action="store_true", help="rewrite the baseline with the current findings and exit 0")
    parser.add_argument("--quiet", action="store_true", help="only print the summary line")
    args = parser.parse_args(argv)

    script_dir = Path(__file__).resolve().parent
    root = Path(args.root).resolve() if args.root else script_dir.parent.parent
    paths = args.paths or ["src", "bench"]

    baseline_path: Path | None
    if args.baseline == "none":
        baseline_path = None
    elif args.baseline:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = script_dir / "baseline.txt"

    baseline: set[str] = set()
    if baseline_path is not None and baseline_path.exists():
        for raw in baseline_path.read_text().splitlines():
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                baseline.add(stripped)

    findings: list[Finding] = []
    files = collect_files(root, paths)
    for f in files:
        try:
            rel = str(f.relative_to(root))
        except ValueError:
            rel = str(f)
        findings.extend(lint_file(f, rel))

    if args.update_baseline:
        if baseline_path is None:
            print("detlint: --update-baseline needs a baseline path", file=sys.stderr)
            return 2
        lines = [
            "# detlint baseline — known legacy findings, one fingerprint per line.",
            "# Regenerate with: python3 tools/detlint/detlint.py --update-baseline",
            "# An empty baseline means every site in the tree is fixed or annotated;",
            "# keep it that way.",
        ] + sorted(f.fingerprint() for f in findings)
        baseline_path.write_text("\n".join(lines) + "\n")
        print(f"detlint: baseline updated with {len(findings)} finding(s)")
        return 0

    new = [f for f in findings if f.fingerprint() not in baseline]
    old = [f for f in findings if f.fingerprint() in baseline]

    if not args.quiet:
        for f in new:
            print(f.render())
        if old:
            print(f"detlint: {len(old)} baselined legacy finding(s) suppressed")

    print(
        f"detlint: scanned {len(files)} file(s): "
        f"{len(new)} violation(s), {len(old)} baselined"
    )
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
