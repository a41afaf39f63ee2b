#!/usr/bin/env python3
"""Black-box checks of the binaries' command lines.

  check_command_lines.py flags BIN_DIR
      For every figure binary, p2pse_matrix and each p2pse_trace command,
      the flags its --help lists are exactly the flags it accepts, and every
      flag its help text mentions is one of them. A flag is accepted when
      passing it draws no "unknown option" error; --nodes=1 stops an
      accepted run before it does any work.

  check_command_lines.py examples BIN_DIR
      Every example_* binary exits 1 with "error:" on stderr for a bad
      value (--nodes abc) and for an unknown flag (--node 5).
"""
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ROW = re.compile(r"^\s+--([A-Za-z][\w-]*)")
MENTION = re.compile(r"(?<![\w-])--([A-Za-z][\w-]*)")
DRIVERS = {"micro_benchmarks", "p2pse_matrix", "p2pse_trace"}


def run(argv):
    # A scratch working directory keeps any file a probe writes out of the
    # caller's tree.
    with tempfile.TemporaryDirectory() as scratch:
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, cwd=scratch)


def read_help(command):
    """The flags `command --help` lists as rows, and all it mentions."""
    result = run(command + ["--help"])
    if result.returncode != 0:
        raise SystemExit(f"{command} --help exited {result.returncode}")
    rows = {m.group(1) for line in result.stdout.splitlines()
            if (m := ROW.match(line))}
    return rows, set(MENTION.findall(result.stdout)) - {"help"}


def accepts(command, flag, rows):
    argv = command + [f"--{flag}=1"]
    if "nodes" in rows and flag != "nodes":
        argv.append("--nodes=1")
    result = run(argv)
    if "unknown option" in result.stderr:
        if result.returncode != 1:
            raise SystemExit(f"{argv} refused a flag with exit "
                             f"{result.returncode}")
        return False
    return True


def check_flags(bin_dir):
    figures = sorted(p.stem for p in (ROOT / "bench").glob("*.cpp")
                     if p.stem not in DRIVERS)
    trace = [str(bin_dir / "p2pse_trace")]
    commands = {
        "figures": [str(bin_dir / figures[0])],
        "p2pse_matrix": [str(bin_dir / "p2pse_matrix")],
        "p2pse_trace": trace,
        "p2pse_trace synth": trace + ["synth"],
        "p2pse_trace info": trace + ["info"],
        "p2pse_trace replay": trace + ["replay"],
    }
    helps = {name: read_help(cmd) for name, cmd in commands.items()}
    failures = []
    for figure in figures[1:]:
        rows, _ = read_help([str(bin_dir / figure)])
        if rows != helps["figures"][0]:
            failures.append(f"{figure}: --help lists {sorted(rows)}, "
                            f"{figures[0]} {sorted(helps['figures'][0])}")
    # "node" is the typo the strict flag check exists for.
    universe = set().union(*(rows for rows, _ in helps.values())) | {"node"}
    for name, command in commands.items():
        rows, mentions = helps[name]
        accepted = {f for f in sorted(universe) if accepts(command, f, rows)}
        for flag in sorted(accepted - rows):
            failures.append(f"{name}: accepts --{flag}, which --help omits")
        for flag in sorted(rows - accepted):
            failures.append(f"{name}: --help lists --{flag}, which it refuses")
        for flag in sorted(mentions - rows):
            failures.append(f"{name}: --help mentions --{flag}, "
                            "which it refuses")
        print(f"{name}: {len(rows)} flag(s) listed and accepted")
    return failures


def check_examples(bin_dir):
    failures = []
    for source in sorted((ROOT / "examples").glob("*.cpp")):
        binary = str(bin_dir / f"example_{source.stem}")
        for argv in (["--nodes", "abc"], ["--node", "5"]):
            result = run([binary] + argv)
            if result.returncode != 1 or "error:" not in result.stderr:
                failures.append(f"example_{source.stem} {' '.join(argv)}: "
                                f"exit {result.returncode}, stderr "
                                f"{result.stderr.strip()!r}")
        print(f"example_{source.stem}: refuses a bad value and an unknown "
              "flag")
    return failures


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("flags", "examples"):
        raise SystemExit(__doc__)
    check = check_flags if sys.argv[1] == "flags" else check_examples
    failures = check(Path(sys.argv[2]).resolve())
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
