#!/usr/bin/env python3
"""p2pse determinism linter.

Machine-checks the RNG/determinism discipline the reproduction's guarantees
rest on (byte-identical reports at any --threads, churn-rejoin-stable
topology embeddings, loss-is-the-only-treatment sweeps). Rules are hard
errors; the only escape hatch is an explicit, reasoned suppression that is
itself checked for staleness.

Rules
-----
entropy          Banned nondeterministic entropy/wall-clock sources:
                 std::random_device, rand()/srand(), time(), clock(),
                 std::chrono::system_clock, std::random_shuffle. All
                 randomness must flow through support::RngStream substreams
                 and all simulated time through sim::Time.
raw-engine       Raw standard-library engines or distributions
                 (std::mt19937, std::uniform_int_distribution, std::shuffle,
                 ...) outside support/rng. Stdlib distributions consume an
                 implementation-defined number of variates, so the same seed
                 produces different streams across standard libraries.
unordered-iter   Range-for over a std::unordered_map/std::unordered_set in a
                 file that writes reports/CSV. Bucket order is
                 implementation-defined and salted by allocation history;
                 iterate a sorted copy or an order-preserving index instead.
wallclock        std::chrono::steady_clock / high_resolution_clock outside
                 src/p2pse/obs/ (or bench/). Host timing belongs to the
                 observability layer's `host` stats section; everything the
                 deterministic `sim` section is built from must measure with
                 sim::Time only, or thread count would leak into reports.
dup-split        Two index-less rng.split("tag") calls with the same tag
                 literal in one function scope: both call sites derive the
                 SAME stream, silently correlating what the author believes
                 are independent substreams. Disambiguate the tags or pass
                 an index argument.
no-caller        A function declared in a src/p2pse/ header that nothing in
                 the linted files references beyond its declarations and
                 definitions. Public API without a production caller is
                 code to maintain that no run executes: delete it, make it
                 private or file-local, or move it into tests/. Callers are
                 searched by name across every file linted, so lint
                 `src bench examples` together; a name shared with a
                 called function counts as called.
bad-suppression  A `p2pse-lint: allow(...)` comment naming an unknown rule
                 or missing a reason.
stale-suppression A suppression whose rule no longer fires on its line.
                 Remove it so the allowlist stays an exact map of the
                 accepted debt.

Suppression syntax
------------------
    code();  // p2pse-lint: allow(<rule>) <reason text>

A suppression on its own line applies to the next non-blank, non-comment
line. The reason is mandatory.

Exit status: 0 when the tree is clean, 1 on any finding, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

RULES = {
    "entropy": "banned nondeterministic entropy/wall-clock source",
    "raw-engine": "raw stdlib RNG engine/distribution outside support/rng",
    "unordered-iter": "unordered-container iteration in a report-writing file",
    "wallclock": "monotonic wall-clock read outside the obs/ telemetry layer",
    "dup-split": "duplicate index-less rng.split(tag) in one scope",
    "no-caller": "public function with no caller in the linted files",
    "bad-suppression": "malformed p2pse-lint suppression",
    "stale-suppression": "suppression whose rule no longer fires",
}

# Paths (substring match on /-normalized relative path) where raw engine
# machinery is the implementation, not a violation.
RAW_ENGINE_ALLOWLIST = ("support/rng.",)

# Paths where monotonic wall-clock reads are the point: the obs/ telemetry
# layer (host timing, never sim state) and the bench drivers (Google
# Benchmark owns its own timing).
WALLCLOCK_ALLOWLIST = ("p2pse/obs/", "bench/")

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h", ".cxx")

# Headers whose function declarations the no-caller rule checks.
NO_CALLER_SCOPE = re.compile(r"(?:^|/)p2pse/.+\.hpp$")

ENTROPY_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::s?rand\s*\(|(?<![\w:.>])s?rand\s*\("),
     "rand()/srand()"),
    (re.compile(r"\bstd::time\s*\("
                r"|(?<![\w:.>~])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()"),
    (re.compile(r"(?<![\w:.>~])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bstd::random_shuffle\b"), "std::random_shuffle"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
]

WALLCLOCK_PATTERN = re.compile(r"\b(?:steady_clock|high_resolution_clock)\b")

RAW_ENGINE_PATTERN = re.compile(
    r"\bstd::("
    r"mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b"
    r"|(?:uniform_int|uniform_real|normal|lognormal|exponential|poisson"
    r"|geometric|binomial|bernoulli|discrete|gamma|weibull|cauchy"
    r"|student_t|chi_squared|fisher_f|extreme_value)_distribution"
    r"|shuffle|sample)\b"
)

UNORDERED_DECL_PATTERN = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{=]*?>\s+"
    r"([A-Za-z_]\w*)\s*[;({=]"
)
RANGE_FOR_PATTERN = re.compile(
    r"\bfor\s*\([^;()]*?:\s*(?:[A-Za-z_][\w]*(?:\.|->))*([A-Za-z_]\w*)\s*\)"
)

REPORT_WRITER_PATTERN = re.compile(
    r"#include\s*<(?:ostream|iostream|fstream|sstream|cstdio)>"
    r"|#include\s*\"p2pse/(?:support/csv|support/ascii_plot|harness/report)\.hpp\""
    r"|\bstd::(?:cout|cerr|ofstream|ostringstream)\b"
)

SPLIT_PATTERN = re.compile(r"\.\s*split\s*\(\s*\"([^\"]*)\"\s*\)")

SUPPRESSION_PATTERN = re.compile(r"//\s*p2pse-lint:\s*(.*)$")
ALLOW_PATTERN = re.compile(r"allow\(\s*([\w-]+)\s*\)\s*(.*)$")

TREAT_AS_PATTERN = re.compile(r"//\s*lint-fixture:\s*treat-as\s+(\S+)")
# `// expect-lint: rule[,rule]` marks its own line; `// expect-lint(+N): rule`
# marks the line N below (for lines whose own comment slot is taken, e.g.
# suppression-grammar fixtures).
EXPECT_PATTERN = re.compile(
    r"//\s*expect-lint(?:\(([+-]\d+)\))?:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")

STRING_OR_COMMENT = re.compile(
    r"\"(?:[^\"\\]|\\.)*\"|'(?:[^'\\]|\\.)*'|//.*$"
)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str


@dataclass
class Suppression:
    line: int            # line the comment sits on
    target: int          # line it applies to
    rule: str
    reason: str
    used: bool = False


@dataclass
class FileLint:
    path: str            # effective path used for allowlists/rule scoping
    real_path: str       # path reported in findings
    lines: list[str] = field(default_factory=list)


def code_only(line: str) -> str:
    """The line with string/char literals and // comments blanked out, so
    token scans don't fire inside literals or prose."""

    def blank(match: re.Match[str]) -> str:
        text = match.group(0)
        if text.startswith("//"):
            return ""
        return '"' + " " * (len(text) - 2) + '"' if len(text) >= 2 else text

    return STRING_OR_COMMENT.sub(blank, line)


def strip_comments(line: str) -> str:
    """The line with // comments removed but string literals intact — used
    for split("tag") detection, whose interesting token IS a string."""

    def drop(match: re.Match[str]) -> str:
        return "" if match.group(0).startswith("//") else match.group(0)

    return STRING_OR_COMMENT.sub(drop, line)


def parse_suppressions(lines: list[str], findings: list[Finding],
                       path: str) -> list[Suppression]:
    suppressions: list[Suppression] = []
    for idx, line in enumerate(lines, start=1):
        match = SUPPRESSION_PATTERN.search(line)
        if not match:
            continue
        allow = ALLOW_PATTERN.match(match.group(1).strip())
        if not allow:
            findings.append(Finding(
                path, idx, "bad-suppression",
                "expected '// p2pse-lint: allow(<rule>) <reason>'"))
            continue
        rule, reason = allow.group(1), allow.group(2).strip()
        if rule not in RULES or rule in ("bad-suppression",
                                         "stale-suppression"):
            findings.append(Finding(
                path, idx, "bad-suppression",
                f"unknown rule '{rule}' (valid: "
                f"{', '.join(r for r in sorted(RULES) if not r.endswith('suppression'))})"))
            continue
        if not reason:
            findings.append(Finding(
                path, idx, "bad-suppression",
                f"suppression of '{rule}' needs a reason"))
            continue
        # A comment-only line shields the next non-blank, non-comment line.
        target = idx
        stripped = line.strip()
        if stripped.startswith("//"):
            target = idx + 1
            while target <= len(lines):
                nxt = lines[target - 1].strip()
                if nxt and not nxt.startswith("//"):
                    break
                target += 1
        suppressions.append(Suppression(idx, target, rule, reason))
    return suppressions


def scope_ids(lines: list[str]) -> list[int]:
    """Scope id per line for dup-split: regions delimited by column-0
    closing braces. With clang-format'd sources (namespace bodies not
    indented) each top-level function body is one region."""
    ids = []
    current = 0
    for line in lines:
        ids.append(current)
        if line.startswith("}"):
            current += 1
    return ids


IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
# A `{` opened after one of these keeps declarations visible inside it.
SCOPE_OPENER = re.compile(r"\b(?:namespace|class|struct|union)\b|\bextern\s*\"")
# Tokens that cannot be a return type: a name after them is a constructor,
# a conversion operator or an expression, not a function declaration.
NOT_A_TYPE = {
    "explicit", "inline", "virtual", "static", "constexpr", "consteval",
    "friend", "extern", "operator", "return", "new", "delete", "throw",
    "case", "else", "typename", "using", "typedef", "template",
}
NOT_A_NAME = {
    "operator", "if", "for", "while", "switch", "return", "sizeof", "alignas",
    "alignof", "decltype", "noexcept", "static_assert", "requires", "catch",
}


def code_text(lines: list[str]) -> str:
    """The file as one string, literals and comments blanked, preprocessor
    lines emptied; line breaks are kept so offsets map back to lines."""
    text = "\n".join("" if line.lstrip().startswith("#") else code_only(line)
                     for line in lines)
    return BLOCK_COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                             text)


def without_template_heads(text: str) -> str:
    """`text` without its `template <...>` parameter lists, whose `class`
    and `typename` would make a function body look like a class body."""
    while (head := re.search(r"\btemplate\s*<", text)) is not None:
        depth, end = 1, head.end()
        while end < len(text) and depth:
            depth += {"<": 1, ">": -1}.get(text[end], 0)
            end += 1
        text = text[:head.start()] + text[end:]
    return text


def function_declarations(text: str) -> list[tuple[int, str]]:
    """(line, name) of every function declared or defined at namespace or
    class scope — never inside a function body. A declaration is a
    statement whose text before its first `(` ends in `<type> name` or
    `Qualifier::name`, with no `=` before it."""
    found: list[tuple[int, str]] = []
    scopes: list[bool] = []  # per open `{`: declarations visible inside?
    start = 0                # where the current statement's text begins
    pending = True           # the current statement has not hit its `(` yet
    for pos, char in enumerate(text):
        if char in ";{}":
            if char == "{":
                opener = without_template_heads(text[start:pos])
                scopes.append(all(scopes)
                              and bool(SCOPE_OPENER.search(opener))
                              and not re.search(r"\benum\b", opener))
            elif char == "}" and scopes:
                scopes.pop()
            start, pending = pos + 1, True
            continue
        if char != "(" or not pending:
            continue
        pending = False
        if not all(scopes):
            continue
        prefix = text[start:pos]
        name = re.search(r"([A-Za-z_]\w*)\s*$", prefix)
        if name is None or "=" in prefix or name.group(1) in NOT_A_NAME:
            continue
        before = prefix[:name.start()].rstrip()
        if not before.endswith("::"):
            # A return type must come first: a word that is not a
            # specifier, or the `>`, `*` or `&` that ends one.
            if not before or not (before[-1].isalnum()
                                  or before[-1] in "_>*&"):
                continue
            word = re.search(r"\w+$", before)
            if word and word.group(0) in NOT_A_TYPE:
                continue
        line = text.count("\n", 0, start + name.start()) + 1
        found.append((line, name.group(1)))
    return found


def no_caller_findings(files: list[FileLint]) -> dict[str, list[Finding]]:
    """The no-caller rule over a set of files: a function declared in a
    src/p2pse/ header is called when its name occurs in the set more often
    than it is declared or defined there."""
    uses: Counter[str] = Counter()
    sites: Counter[str] = Counter()
    checked: list[tuple[FileLint, int, str]] = []
    for file in files:
        text = code_text(file.lines)
        uses.update(IDENTIFIER.findall(text))
        in_scope = NO_CALLER_SCOPE.search(file.path.replace(os.sep, "/"))
        for line, name in function_declarations(text):
            sites[name] += 1
            if in_scope:
                checked.append((file, line, name))
    findings: dict[str, list[Finding]] = {}
    reported: set[tuple[str, str]] = set()
    for file, line, name in checked:
        # One finding per name and header: overloads and a later
        # definition share the first declaration's finding.
        if uses[name] > sites[name] or (file.real_path, name) in reported:
            continue
        reported.add((file.real_path, name))
        findings.setdefault(file.real_path, []).append(Finding(
            file.real_path, line, "no-caller",
            f"'{name}' has no caller in the linted files: delete it, make "
            "it private or file-local, or move it into tests/"))
    return findings


def lint_file(file: FileLint,
              cross_file: list[Finding] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    suppressions = parse_suppressions(file.lines, findings, file.real_path)
    normalized_path = file.path.replace(os.sep, "/")
    raw_allowed = any(tag in normalized_path for tag in RAW_ENGINE_ALLOWLIST)
    wallclock_allowed = any(tag in normalized_path
                            for tag in WALLCLOCK_ALLOWLIST)
    writes_reports = any(REPORT_WRITER_PATTERN.search(line)
                         for line in file.lines)

    unordered_vars: set[str] = set()
    for line in file.lines:
        for match in UNORDERED_DECL_PATTERN.finditer(code_only(line)):
            unordered_vars.add(match.group(1))

    raw: list[Finding] = list(cross_file or [])
    scopes = scope_ids(file.lines)
    split_sites: dict[tuple[int, str], int] = {}

    for idx, line in enumerate(file.lines, start=1):
        code = code_only(line)

        for pattern, what in ENTROPY_PATTERNS:
            if pattern.search(code):
                raw.append(Finding(
                    file.real_path, idx, "entropy",
                    f"{what}: draw from a support::RngStream substream "
                    "(simulated time, not wall-clock)"))

        if not wallclock_allowed and WALLCLOCK_PATTERN.search(code):
            token = WALLCLOCK_PATTERN.search(code).group(0)
            raw.append(Finding(
                file.real_path, idx, "wallclock",
                f"{token} outside p2pse/obs/: host wall-clock must stay in "
                "the telemetry layer's `host` section — sim code measures "
                "with sim::Time"))

        if not raw_allowed and RAW_ENGINE_PATTERN.search(code):
            token = RAW_ENGINE_PATTERN.search(code).group(0)
            raw.append(Finding(
                file.real_path, idx, "raw-engine",
                f"{token} outside support/rng: stdlib engines/distributions "
                "are not stream-stable across implementations"))

        if writes_reports:
            for match in RANGE_FOR_PATTERN.finditer(code):
                if match.group(1) in unordered_vars:
                    raw.append(Finding(
                        file.real_path, idx, "unordered-iter",
                        f"range-for over unordered container "
                        f"'{match.group(1)}' in a report-writing file: "
                        "bucket order is not deterministic — iterate a "
                        "sorted copy"))

        for match in SPLIT_PATTERN.finditer(strip_comments(line)):
            tag = match.group(1)
            key = (scopes[idx - 1], tag)
            if key in split_sites:
                raw.append(Finding(
                    file.real_path, idx, "dup-split",
                    f'duplicate .split("{tag}") in one scope (first at line '
                    f"{split_sites[key]}): both sites derive the SAME "
                    "stream — rename the tag or pass an index"))
            else:
                split_sites[key] = idx

    # Apply suppressions, then report the stale ones.
    for finding in raw:
        shield = next((s for s in suppressions
                       if s.target == finding.line and s.rule == finding.rule),
                      None)
        if shield is not None:
            shield.used = True
        else:
            findings.append(finding)
    for shield in suppressions:
        if not shield.used:
            findings.append(Finding(
                file.real_path, shield.line, "stale-suppression",
                f"suppression of '{shield.rule}' matches no finding on line "
                f"{shield.target} — remove it"))

    return findings


def load_file(path: str, root: str | None = None) -> FileLint:
    with open(path, encoding="utf-8", errors="replace") as handle:
        lines = handle.read().splitlines()
    effective = os.path.relpath(path, root) if root else path
    for line in lines[:5]:
        treat = TREAT_AS_PATTERN.search(line)
        if treat:
            effective = treat.group(1)
            break
    return FileLint(path=effective, real_path=path, lines=lines)


def collect_sources(paths: list[str]) -> list[str]:
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, _dirnames, filenames in os.walk(path):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def run_selftest(fixture_dir: str) -> int:
    """Each fixture (*.cxx) encodes its own expectations: a line carrying
    `// expect-lint: rule[,rule...]` must be flagged with exactly those
    rules; every other line must be clean. A fixture with no expect-lint
    markers must lint clean. Fails loudly on any mismatch."""
    fixtures = [os.path.join(fixture_dir, name)
                for name in sorted(os.listdir(fixture_dir))
                if name.endswith(".cxx")]
    if not fixtures:
        print(f"lint selftest: no *.cxx fixtures under {fixture_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    for path in fixtures:
        file = load_file(path)
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(file.lines, start=1):
            match = EXPECT_PATTERN.search(line)
            if match:
                target = idx + int(match.group(1) or 0)
                for rule in re.split(r"\s*,\s*", match.group(2)):
                    expected.add((target, rule))
        cross_file = no_caller_findings([file]).get(file.real_path, [])
        actual = {(f.line, f.rule) for f in lint_file(file, cross_file)}
        missing = expected - actual
        surplus = actual - expected
        status = "ok" if not missing and not surplus else "FAIL"
        print(f"[{status}] {os.path.basename(path)}: "
              f"{len(actual)} finding(s), {len(expected)} expected")
        for line_no, rule in sorted(missing):
            print(f"    missing expected finding line {line_no}: [{rule}]")
            failures += 1
        for line_no, rule in sorted(surplus):
            print(f"    unexpected finding line {line_no}: [{rule}]")
            failures += 1
    if failures:
        print(f"lint selftest: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print(f"lint selftest: {len(fixtures)} fixture(s) behave as specified")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="determinism_lint",
        description="p2pse determinism/RNG-discipline linter")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--selftest", metavar="FIXTURE_DIR",
                        help="run the fixture selftest instead of linting")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--github-summary", metavar="FILE",
                        help="append a markdown findings table to FILE "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, text in RULES.items():
            print(f"{rule:<{width}}  {text}")
        return 0
    if args.selftest:
        return run_selftest(args.selftest)
    if not args.paths:
        parser.error("no paths given (or use --selftest/--list-rules)")

    root = os.path.commonpath([os.path.abspath(p) for p in args.paths]) \
        if args.paths else None
    findings: list[Finding] = []
    sources = collect_sources(args.paths)
    files = [load_file(path, root) for path in sources]
    cross_file = no_caller_findings(files)
    for file in files:
        findings.extend(lint_file(file, cross_file.get(file.real_path)))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(f"{finding.path}:{finding.line}: [{finding.rule}] "
              f"{finding.message}")

    if args.github_summary:
        with open(args.github_summary, "a", encoding="utf-8") as out:
            out.write("## Determinism lint\n\n")
            if findings:
                out.write("| File | Line | Rule | Finding |\n")
                out.write("|---|---|---|---|\n")
                for f in findings:
                    out.write(f"| `{f.path}` | {f.line} | `{f.rule}` "
                              f"| {f.message} |\n")
            else:
                out.write(f"Clean: {len(sources)} file(s), 0 findings.\n")

    if findings:
        print(f"determinism lint: {len(findings)} finding(s) in "
              f"{len(sources)} file(s)", file=sys.stderr)
        return 1
    print(f"determinism lint: {len(sources)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
