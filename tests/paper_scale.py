"""Paper-scale sweep of the CLI: wall time, child max RSS, exit code and a
closed-form check of stdout for each run, recorded to JSON, and a diff of
two records.

Run by hand from the root of a checkout (tier-1 does not collect it):

    python tests/paper_scale.py record before.json [--repeat K] [--short] [--only NAME ...]
    python tests/paper_scale.py diff before.json after.json [--ratio R]

record writes every input into a temporary directory, from tests/shapes.py
(CUT_6, CUT_7, MET_6, MET_7, cross H_5 and H_6) and tests/fixtures/santos.ext,
then runs each entry of RUNS K times (1 by default) as `python -m polyorbit`
of the checkout's src/, one child process at a time, so that no two runs
share the machine.  A run is killed at CAP_SECONDS and recorded as
"timeout".  Each run records its wall time, the child's max RSS, its exit
code and the verdict of its check: "ok", "fail" (the closed form does not
match), "refused" (an exit code other than 0 that the check allows, such as
santos ehrhart today) or "timeout".  With --short, record runs only the
entries the record already holds that are short, a median under
SHORT_SECONDS, and have fewer than SHORT_RUNS runs.

A record that exists is added to, not replaced, so two checkouts can be
recorded in turn: copy this file into each, then run record on the parent's
file and the change's file alternately, each with --repeat 1, and then
record --short on each alternately until neither runs anything.  A short
run is mostly interpreter start and compiling src/, whose time moves by
more than a tenth between runs, so diff judges a short entry only when
each side has SHORT_RUNS runs.  diff compares the median wall time of each
entry, a timeout counting as CAP_SECONDS, and prints every entry whose
check got worse, whose median grew by more than the ratio (1.25 by
default), or that is short with too few runs on a side; it exits 1 if any
did.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
CAP_SECONDS = 300.0
SHORT_SECONDS, SHORT_RUNS = 1.0, 5
SANTOS_COUNT, SANTOS_VOLUME = 5931403, Fraction(5294400)
CUT7_FACETS = 116764


def _orbit_sizes(out: str) -> list[int]:
    return [int(m) for m in re.findall(r"^orbit \d+ size (\d+) ", out, re.M)]


def _orbits(count: int, sizes: Optional[list] = None, total: Optional[int] = None
            ) -> Callable[[str], bool]:
    """A convert check: count orbits, of these sizes in some order, or
    summing to total."""
    def check(out: str) -> bool:
        found = _orbit_sizes(out)
        head = out.split("\n", 1)[0]
        return (head.endswith(f"orbits {count}") and len(found) == count
                and (sizes is None or sorted(found) == sorted(sizes))
                and (total is None or sum(found) == total))
    return check


def _equals(text: str) -> Callable[[str], bool]:
    return lambda out: out.strip() == text


def _order(order: int) -> Callable[[str], bool]:
    return lambda out: out.split("\n", 1)[0] == f"order {order}"


def _santos_ehrhart(out: str) -> bool:
    """The quasi-polynomial at t = 1 is the lattice-point count, and its
    leading coefficient the volume."""
    period = int(re.search(r"^period (\d+)$", out, re.M).group(1))
    classes = {int(i): [Fraction(c) for c in cs.split()]
               for i, cs in re.findall(r"^class (\d+): (.*)$", out, re.M)}
    coeffs = classes[1 % period]
    return sum(coeffs) == SANTOS_COUNT and coeffs[-1] == SANTOS_VOLUME


# (name, input, argv after the input, check, exit codes other than 0 that
# are recorded as "refused" rather than "fail")
RUNS = [
    ("cut7-convert-0-1", "cut7.ext", ["convert", "--idm-adm-level", "0", "1"],
     _orbits(11, total=CUT7_FACETS), ()),
    ("cut7-convert-0-2", "cut7.ext", ["convert", "--idm-adm-level", "0", "2"],
     _orbits(11, total=CUT7_FACETS), ()),
    ("met6-automorphisms", "met6.ine", ["automorphisms"], _order(23040), ()),
    ("met6-convert", "met6.ine", ["convert"], _orbits(3, sizes=[32, 480, 32]), ()),
    ("cut6-convert", "cut6.ext", ["convert"], _orbits(3, sizes=[80, 192, 96]), ()),
    ("cut6-volume", "cut6.ext", ["volume"], _equals("2384/58046625"), ()),
    ("santos-count", "santos.ext", ["count"], _equals(str(SANTOS_COUNT)), ()),
    ("santos-volume", "santos.ext", ["volume"], _equals(str(SANTOS_VOLUME)), ()),
    ("santos-ehrhart", "santos.ext", ["ehrhart"], _santos_ehrhart, (2,)),
    ("crossH5-automorphisms", "crossH5.ine", ["automorphisms"], _order(2 ** 5 * 120), ()),
    ("crossH6-automorphisms", "crossH6.ine", ["automorphisms"], _order(2 ** 6 * 720), ()),
    ("met7-automorphisms", "met7.ine", ["automorphisms"], _order(2 ** 6 * 5040), ()),
]


def write_inputs(where: Path) -> None:
    """Every input of RUNS, as a polyorbit file in where."""
    from polyorbit.cli import PolyFile, write_polyfile
    from shapes import cross_h, cut_v, met_h

    def v_file(V) -> str:
        return write_polyfile(PolyFile(kind="V", rows=tuple((1, *p) for p in V.vertices)))

    def h_file(P) -> str:
        rows = tuple((b, *(-x for x in a)) for a, b in zip(P.A, P.b))
        return write_polyfile(PolyFile(kind="H", rows=rows))

    files = {"cut6.ext": lambda: v_file(cut_v(6)), "cut7.ext": lambda: v_file(cut_v(7)),
             "met6.ine": lambda: h_file(met_h(6)), "met7.ine": lambda: h_file(met_h(7)),
             "crossH5.ine": lambda: h_file(cross_h(5)), "crossH6.ine": lambda: h_file(cross_h(6)),
             "santos.ext": lambda: (ROOT / "tests" / "fixtures" / "santos.ext").read_text()}
    for name, text in files.items():
        (where / name).write_text(text())


def run_one(argv: list, where: Path) -> dict:
    """One child run of python -m polyorbit argv, killed at CAP_SECONDS:
    seconds, max RSS in MiB, exit code (None on timeout) and stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "polyorbit", *argv], cwd=where, env=env,
                                 stdout=out, stderr=subprocess.DEVNULL)
        capped = threading.Event()
        timer = threading.Timer(CAP_SECONDS, lambda: (capped.set(), child.kill()))
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    rss = usage.ru_maxrss / 1024        # kilobytes on Linux
    return {"seconds": round(seconds, 3), "rss_mib": round(rss, 1),
            "code": None if capped.is_set() else child.returncode, "stdout": stdout}


def verdict(result: dict, check: Callable[[str], bool], refused: tuple) -> str:
    if result["code"] is None:
        return "timeout"
    if result["code"] in refused:
        return "refused"
    try:
        return "ok" if result["code"] == 0 and check(result["stdout"]) else "fail"
    except (AttributeError, KeyError, ValueError, IndexError):
        return "fail"


def record(path: str, repeat: int, only: list, short: bool) -> int:
    runs = [r for r in RUNS if not only or r[0] in only]
    if only and len(runs) != len(set(only)):
        print(f"unknown run in {only}; runs are {[r[0] for r in RUNS]}", file=sys.stderr)
        return 2
    target = Path(path)
    records = json.loads(target.read_text()) if target.exists() else {}
    if short:
        runs = [r for r in runs if r[0] in records and _too_few(records[r[0]])]
    with tempfile.TemporaryDirectory() as workdir:
        where = Path(workdir)
        write_inputs(where)
        for _ in range(repeat):
            for name, infile, args, check, refused in runs:
                result = run_one([args[0], infile, *args[1:]], where)
                entry = {key: result[key] for key in ("seconds", "rss_mib", "code")}
                entry["check"] = verdict(result, check, refused)
                records.setdefault(name, []).append(entry)
                print(f"{name}: {entry}", flush=True)
                target.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


CHECK_RANK = {"ok": 0, "refused": 1, "timeout": 2, "fail": 3}


def _too_few(entries: list) -> bool:
    """Whether the runs of a short entry are too few to judge."""
    return len(entries) < SHORT_RUNS and summary(entries)[0] < SHORT_SECONDS


def summary(entries: list) -> tuple[float, str]:
    """(median seconds, a timeout counted as CAP_SECONDS; worst check)."""
    seconds = [CAP_SECONDS if e["check"] == "timeout" else e["seconds"] for e in entries]
    return statistics.median(seconds), max((e["check"] for e in entries), key=CHECK_RANK.get)


def diff(before: str, after: str, ratio: float) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (before, after))
    flagged = 0
    for name in [r[0] for r in RUNS if r[0] in a or r[0] in b]:
        if name not in a or name not in b:
            print(f"{name}: recorded on one side only")
            flagged += 1
            continue
        (ta, ca), (tb, cb) = summary(a[name]), summary(b[name])
        rss = (max(e["rss_mib"] for e in a[name]), max(e["rss_mib"] for e in b[name]))
        few = _too_few(a[name]) or _too_few(b[name])
        worse = CHECK_RANK[cb] > CHECK_RANK[ca] or cb == "fail" or tb > ratio * ta or few
        flagged += worse
        print(f"{'FLAG ' if worse else ''}{name}: {ta:.2f} s -> {tb:.2f} s "
              f"(x{tb / ta:.3f}, runs {len(a[name])}/{len(b[name])}"
              f"{f', a short run needs {SHORT_RUNS} a side' if few else ''}), "
              f"max RSS {rss[0]:.0f} -> {rss[1]:.0f} MiB, check {ca} -> {cb}")
    print(f"{flagged} runs flagged at ratio {ratio}")
    return 1 if flagged else 0


def main(argv: list) -> int:
    if len(argv) >= 2 and argv[0] == "record":
        repeat, only, short, rest = 1, [], False, argv[2:]
        while rest:
            if rest[0] == "--repeat" and len(rest) > 1:
                repeat, rest = int(rest[1]), rest[2:]
            elif rest[0] == "--short":
                short, rest = True, rest[1:]
            elif rest[0] == "--only" and len(rest) > 1:
                only, rest = rest[1:], []
            else:
                break
        if not rest:
            return record(argv[1], repeat, only, short)
    if len(argv) in (3, 5) and argv[0] == "diff" and argv[3:4] in ([], ["--ratio"]):
        return diff(argv[1], argv[2], float(argv[4]) if len(argv) == 5 else 1.25)
    print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
