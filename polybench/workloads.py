"""The benchmark's three workloads: seeded job lists with their answer checks.

A job is one ``polyorbit`` command line.  Each workload function writes the
input files of one round into a directory and returns its jobs; every job
carries a check that reads the job's exit code and stdout (and, where an
answer is compared across routes, the other jobs' results) after the timed
region, and returns an error message or None.

One round is the fixed job mix of a workload; a run makes
``rounds_for(workload, seconds)`` rounds, each from fresh seeded images, so
no job is repeated within a run.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Optional

from . import families as F


@dataclass
class Job:
    name: str                       # unique within a run
    argv: list                      # arguments of polyorbit.cli.main
    check: Callable                 # (result, results) -> error or None
    dot: Optional[str] = None       # DOT file the job writes
    rerun_serial: bool = False      # compare stdout with a --jobs 1 rerun


@dataclass
class Result:
    code: object                    # exit code, or the exception it raised
    out: str                        # stdout
    dot: Optional[str] = None       # text of the DOT file, if any


# workload -> (--jobs value, seconds of one round at reference speed)
SETTINGS = {
    "orbit-conversion": (2, 8.0),
    "lattice-counting": (1, 11.0),
    "symmetric-ilp": (1, 4.5),
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SETTINGS[workload][1]))


def build(workload: str, seed: int, seconds: float, workdir: str) -> list:
    jobs_flag, _ = SETTINGS[workload]
    builder = {"orbit-conversion": _orbit_conversion,
               "lattice-counting": _lattice_counting,
               "symmetric-ilp": _symmetric_ilp}[workload]
    out = []
    for r in range(rounds_for(workload, seconds)):
        rng = random.Random(f"{workload}/{seed}/{r}")
        jobs = builder(rng, f"{workdir}/r{r}-")
        rng.shuffle(jobs)
        out.extend(jobs)
    for job in out:
        job.argv += ["--jobs", str(jobs_flag)]
    return out


# ---------------------------------------------------------------------------
# Output parsing helpers


def _expect(cond: bool, msg: str) -> Optional[str]:
    return None if cond else msg


def _row_value(a, b, x) -> Fraction:
    return b - sum(ai * xi for ai, xi in zip(a, x))


# ---------------------------------------------------------------------------
# orbit-conversion

# key, points or rows, kind, group order, orbit sizes after convert, modes,
# (elementary moves, translation range[, "fixed"]) of the seeded image.
# CUT_5 has 40 triangle and 16 pentagonal facets; the prismatoid's 322 facets (by plain
# double description) fall into orbits of sizes 2 and 5 x 64.  Converting
# CUT_6 or cross H_5 takes 5-35 s per image, and automorphisms of cross H_5
# alone take a fifth of a round, so CUT_6 only gets an automorphisms job and
# cross H_5 none.  The modes of each family are chosen so that one round
# stays near 8 s at reference speed.  The automorphisms of a CUT_6 image
# take 0.7-1.2 s on most images but 2-7 s on about one in six, whatever the
# map (the vertex order alone can decide), which would make wall_s a lottery
# over seeds; so CUT_6 ("fixed") draws its image from the round number
# alone, the same on every seed.
_ORBIT_FAMILIES = [
    ("cut5", lambda: F.cut_v(5), "V", F.cut_order(5), [16, 40], "auto idm adj", (2, 1)),
    ("cut6", lambda: F.cut_v(6), "V", F.cut_order(6), None, "auto", (2, 1, "fixed")),
    ("hs37", lambda: F.hypersimplex_v(3, 7), "V", factorial(7), [7, 7], "auto adm", (2, 1)),
    ("hs38", lambda: F.hypersimplex_v(3, 8), "V", factorial(8), [8, 8], "auto", (2, 1)),
    ("cross6", lambda: F.cross_v(6), "V", F.hyperoctahedral_order(6), [64], "auto adm idm", (2, 1)),
    ("cross7", lambda: F.cross_v(7), "V", F.hyperoctahedral_order(7), [128], "auto adm", (2, 1)),
    ("cross8", lambda: F.cross_v(8), "V", F.hyperoctahedral_order(8), [256], "auto adm", (2, 1)),
    ("cube5", lambda: F.cube_v(5), "V", F.hyperoctahedral_order(5), [10], "auto adm idm", (2, 1)),
    ("cube6", lambda: F.cube_v(6), "V", F.hyperoctahedral_order(6), [12], "auto", (2, 1)),
    ("prism", F.prismatoid_v, "V", 64, [2, 64, 64, 64, 64, 64], "auto adm adj", (2, 1)),
    ("cubeH6", lambda: F.cube_h(6), "H", F.hyperoctahedral_order(6), [64], "auto adm idm", (1, 0)),
    ("crossH4", lambda: F.cross_h(4), "H", F.hyperoctahedral_order(4), [8], "auto adm", (1, 0)),
]


def _orbit_conversion(rng: random.Random, prefix: str) -> list:
    jobs = []
    for key, make, kind, order, sizes, modes, (moves, shift, *fixed) in _ORBIT_FAMILIES:
        name = os.path.basename(prefix) + key
        if kind == "V":
            pts = F.image_v(random.Random(name) if fixed else rng, make(), moves, shift)
            path = f"{prefix}{key}.ext"
            F.write_v(path, pts)
            check_rep = _facet_rep_check(pts)
        else:
            rows = F.image_h(rng, make(), moves, shift)
            path = f"{prefix}{key}.ine"
            F.write_h(path, rows)
            check_rep = _vertex_rep_check(rows)
        for mode in modes.split():
            if mode == "auto":
                jobs.append(Job(f"{name}:automorphisms", ["automorphisms", path],
                                _automorphisms_check(order)))
                continue
            argv = ["convert", path]
            dot = None
            if mode == "idm":
                argv += ["--idm-adm-level", "1", "1"]
            if mode == "adj":
                dot = f"{prefix}{key}.dot"
                argv += ["--adjacencies", "--dot", dot]
            # a seeded half of the convert jobs is rerun with --jobs 1, which
            # bounds the run time; across seeds every job gets compared
            jobs.append(Job(f"{name}:convert-{mode}", argv,
                            _convert_check(kind, sizes, check_rep, dot is not None),
                            dot=dot, rerun_serial=rng.random() < 0.5))
    return jobs


def _automorphisms_check(order: int) -> Callable:
    def check(r, results):
        code, out = r.code, r.out
        lines = out.splitlines()
        if code != 0 or not lines:
            return f"exit {code}"
        if lines[0] != f"order {order}":
            return f"expected order {order}, got {lines[0]!r}"
        return _expect(all(ln.startswith("generator (") for ln in lines[1:]),
                       "malformed generator line")
    return check


def _facet_rep_check(pts: list) -> Callable:
    """A V-side representative (b, -a) must hold on every vertex and be tight
    on at least dim of them, as every facet of a dim-polytope is."""
    dim = F.affine_rank(pts)

    def check(rep):
        b, a = rep[0], [-x for x in rep[1:]]
        vals = [_row_value(a, b, p) for p in pts]
        return min(vals) >= 0 and sum(v == 0 for v in vals) >= dim
    return check


def _vertex_rep_check(rows: list) -> Callable:
    n = len(rows[0][0])

    def check(rep):
        if rep[0] != 1:
            return False
        vals = [_row_value(a, b, rep[1:]) for a, b in rows]
        return min(vals) >= 0 and sum(v == 0 for v in vals) >= n
    return check


def _convert_check(kind: str, sizes: list, rep_ok: Callable, adjacency: bool) -> Callable:
    head = "facet orbits" if kind == "V" else "vertex orbits"

    def check(r, results):
        code, out = r.code, r.out
        lines = out.splitlines()
        if code != 0 or not lines:
            return f"exit {code}"
        if lines[0] != f"{head} {len(sizes)}":
            return f"expected {head} {len(sizes)}, got {lines[0]!r}"
        got = []
        for t, ln in enumerate(lines[1:len(sizes) + 1], start=1):
            toks = ln.split()
            if toks[:2] != ["orbit", str(t)] or toks[2] != "size" or toks[4] != "rep":
                return f"malformed orbit line {ln!r}"
            got.append(int(toks[3]))
            if not rep_ok([Fraction(x) for x in toks[5:]]):
                return f"orbit {t} representative is not a face of the input"
        if sorted(got) != sorted(sizes):
            return f"orbit sizes {sorted(got)} != {sorted(sizes)}"
        if len(lines) != len(sizes) + 1:
            return "unexpected trailing output"
        if adjacency:
            return _dot_check(r.dot, got)
        return None
    return check


def _dot_check(text: Optional[str], sizes: list) -> Optional[str]:
    """Nodes carry the printed orbit sizes in order and the orbit graph is
    connected, as the facet graph of every polytope is."""
    if not text or not text.startswith("graph {") or not text.endswith("}\n"):
        return "malformed DOT file"
    labels, edges = [], []
    for ln in text.splitlines()[1:-1]:
        ln = ln.strip()
        if "label=" in ln:
            labels.append(int(ln.split("(size ")[1].split(")")[0]))
        else:
            u, v = ln.rstrip(";").split(" -- ")
            edges.append((int(u[1:]), int(v[1:])))
    if labels != sizes:
        return f"DOT node sizes {labels} != printed sizes {sizes}"
    reach, frontier = {1}, [1]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return _expect(len(reach) == len(sizes), "orbit adjacency graph is disconnected")


# ---------------------------------------------------------------------------
# lattice-counting


def _lattice_counting(rng: random.Random, prefix: str) -> list:
    jobs = []
    name = os.path.basename(prefix)

    def add_h(key, rows, blocks=None):
        path = f"{prefix}{key}.ine"
        F.write_h(path, rows, blocks=blocks)
        return path

    # closed-form families under unimodular images: one elementary move,
    # since every shear multiplies the enumeration cost
    for n, lam in ((3, 4), (4, 2), (5, 1)):
        path = add_h(f"cube{n}x{lam}", F.image_h(rng, F.cube_h(n, lam), 1, 1))
        jobs.append(Job(f"{name}cube{n}x{lam}:count", ["count", path],
                        _exact_check(F.cube_count(n, lam))))
        jobs.append(Job(f"{name}cube{n}x{lam}:volume", ["volume", path],
                        _exact_check(F.cube_volume(n, lam))))
    for n, lam in ((3, 4), (4, 3), (5, 1)):
        moves = 1 if n < 5 else 0       # a sheared 5-cross costs 2 s or more
        path = add_h(f"cross{n}x{lam}", F.image_h(rng, F.cross_h(n, lam), moves, 1))
        jobs.append(Job(f"{name}cross{n}x{lam}:count", ["count", path],
                        _exact_check(F.cross_count(n, lam))))
        jobs.append(Job(f"{name}cross{n}x{lam}:volume", ["volume", path],
                        _exact_check(F.cross_volume(n, lam))))
    for n in (3, 4):
        path = add_h(f"cube{n}", F.image_h(rng, F.cube_h(n), 1, 1))
        jobs.append(Job(f"{name}cube{n}:ehrhart", ["ehrhart", path],
                        _ehrhart_check(1, F.cube_ehrhart(n))))
    path = add_h("cross3", F.image_h(rng, F.cross_h(3), 1, 1))
    jobs.append(Job(f"{name}cross3:ehrhart", ["ehrhart", path],
                    _ehrhart_check(1, F.cross_ehrhart(3))))
    path = add_h("birkhoff3", F.image_h(rng, F.birkhoff3_h(), 1, 1))
    jobs.append(Job(f"{name}birkhoff3:count", ["count", path], _exact_check(6)))
    jobs.append(Job(f"{name}birkhoff3:volume", ["volume", path],
                    _exact_check(F.BIRKHOFF3_EHRHART[-1])))
    jobs.append(Job(f"{name}birkhoff3:ehrhart", ["ehrhart", path],
                    _ehrhart_check(1, F.BIRKHOFF3_EHRHART)))

    # rational polytopes near fixed shapes: the count is checked by a box
    # scan, the Ehrhart polynomial at t = 1 against it and its leading
    # coefficient against the volume job on the same file
    octagon = [(x, y) for a, b in ((6, 2), (2, 6)) for x in (a, -a) for y in (b, -b)]
    cube = [p for p in product((4, -4), repeat=3)]
    octahedron = [tuple(s * (i == j) * 6 for j in range(3)) for i in range(3) for s in (1, -1)]
    cross4 = [tuple(s * (i == j) * 3 for j in range(4)) for i in range(4) for s in (1, -1)]
    for t, (base, q, ehr) in enumerate(((octagon, 4, True), (cube, 2, True),
                                        (octahedron, 3, True), (cross4, 1, False))):
        d = len(base[0])
        pts = F.jittered_v(rng, base, q)
        rows = _v_to_h(pts)
        key = f"rand{t}"
        path = add_h(key, rows)
        count = cache(partial(F.box_count, rows, pts))
        jobs.append(Job(f"{name}{key}:count", ["count", path], _exact_check(count)))
        jobs.append(Job(f"{name}{key}:volume", ["volume", path], _volume_pair_check(
            f"{name}{key}:ehrhart" if ehr else None)))
        if ehr:
            jobs.append(Job(f"{name}{key}:ehrhart", ["ehrhart", path],
                            _ehrhart_route_check(q, d, count)))

    # block-invariant systems: the symmetric count against the plain count
    # and a box scan
    for t, (blocks, lo, hi) in enumerate((((3, 3), (0, -1), (3, 2)),
                                          ((2, 2, 2), (0, -1, 0), (2, 1, 2)),
                                          ((4, 2), (0, 0), (2, 3)))):
        shift = rng.randint(-1, 1)
        lo, hi = [x + shift for x in lo], [x + shift for x in hi]
        c = [1] * len(blocks)
        bot = sum(nb * l for nb, l in zip(blocks, lo))
        beta = bot + (sum(nb * h for nb, h in zip(blocks, hi)) - bot) * 3 // 5
        rows = F.block_rows(blocks, lo, hi, [None] * len(blocks), [(c, beta)])
        rng.shuffle(rows)
        key = f"block{t}"
        path = add_h(key, rows, blocks=blocks)
        box = [tuple(x for x, nb in zip(bound, blocks) for _ in range(nb))
               for bound in (lo, hi)]
        count = cache(partial(F.box_count, rows, box))
        jobs.append(Job(f"{name}{key}:count", ["count", path], _exact_check(count)))
        jobs.append(Job(f"{name}{key}:count-symmetric", ["count", path, "--symmetric"],
                        _pair_check(f"{name}{key}:count", count)))
    return jobs


def _v_to_h(pts: list) -> list:
    """Facet rows of conv(pts) by polyorbit's own conversion; set-up checks
    that every point satisfies them and that each row is tight on a point."""
    from polyorbit.polycore import VPolyhedron
    from polyorbit.repconv import convert_dd

    H = convert_dd(VPolyhedron.from_points(pts))
    rows = [(tuple(a), b) for a, b in zip(H.A, H.b)]
    if H.equality_rows or not all(
            min(_row_value(a, b, p) for p in pts) == 0 for a, b in rows):
        raise RuntimeError("set-up conversion returned a wrong H-description")
    return rows


def _exact_check(value) -> Callable:
    """Exit 0 and stdout ``value`` (an integer or a Fraction), or ``value()``
    when it is a function: an expected count scanned for at check time."""
    def check(r, results):
        code, out = r.code, r.out
        if callable(value):
            return _exact_check(value())(r, results)
        return _expect(code == 0 and out == f"{value}\n",
                       f"expected {value}, got exit {code} {out.strip()!r}")
    return check


def _pair_check(other: str, value: Callable) -> Callable:
    """Symmetric count: equal to the closed value and to the plain route."""
    def check(r, results):
        code, out = r.code, r.out
        err = _exact_check(value)(r, results)
        if err is None and results[other].out != out:
            err = "symmetric and plain counts differ"
        return err
    return check


def _parse_ehrhart(out: str):
    lines = out.splitlines()
    period = int(lines[0].split()[1])
    degree = int(lines[1].split()[1])
    comps = []
    for i, ln in enumerate(lines[2:]):
        head, tail = ln.split(":")
        if head != f"class {i}":
            raise ValueError(ln)
        comps.append([Fraction(x) for x in tail.split()])
    if len(comps) != period or any(len(c) != degree + 1 for c in comps):
        raise ValueError("shape")
    return period, degree, comps


def _ehrhart_check(period: int, coeffs: list) -> Callable:
    def check(r, results):
        code, out = r.code, r.out
        if code != 0:
            return f"exit {code}"
        try:
            got = _parse_ehrhart(out)
        except (ValueError, IndexError):
            return "malformed ehrhart output"
        return _expect(got == (period, len(coeffs) - 1, [coeffs]),
                       f"wrong quasi-polynomial {out.strip()!r}")
    return check


def _ehrhart_route_check(q: int, d: int, count: Callable) -> Callable:
    """Period divides the vertex denominator q, degree is d, and the class of
    t = 1 evaluates to the box-scanned count."""
    def check(r, results):
        code, out = r.code, r.out
        if code != 0:
            return f"exit {code}"
        try:
            period, degree, comps = _parse_ehrhart(out)
        except (ValueError, IndexError):
            return "malformed ehrhart output"
        if q % period or degree != d:
            return f"period {period} / degree {degree} do not fit q={q}, d={d}"
        at1 = sum(c for c in comps[1 % period])
        return _expect(at1 == count(), f"L(1) = {at1} but the box count is {count()}")
    return check


def _volume_pair_check(ehrhart_job: Optional[str]) -> Callable:
    def check(r, results):
        code, out = r.code, r.out
        if code != 0:
            return f"exit {code}"
        vol = Fraction(out.strip())
        if vol <= 0:
            return "non-positive volume"
        if ehrhart_job is None:
            return None
        ecode, eout = results[ehrhart_job].code, results[ehrhart_job].out
        if ecode != 0:
            return None          # reported by the ehrhart job itself
        lead = _parse_ehrhart(eout)[2][0][-1]
        return _expect(lead == vol, f"volume {vol} != Ehrhart leading coefficient {lead}")
    return check


# ---------------------------------------------------------------------------
# symmetric-ilp


FIBER_CAP = 1300

# block shapes of one round, total dimension 6-10 in 2-6 blocks; fixing them
# keeps the cost of a round nearly the same for every seed
_FEASIBLE_SHAPES = [(3, 3), (4, 2), (2, 2, 2), (3, 2, 2), (4, 3), (4, 4), (3, 3, 2), (5, 4),
                    (3, 3, 3), (5, 5), (4, 3, 3), (2, 2, 2, 2, 1, 1)]
_INFEASIBLE_SHAPES = [(3, 3, 2), (4, 4, 2)]


def _symmetric_ilp(rng: random.Random, prefix: str) -> list:
    jobs = []
    name = os.path.basename(prefix)
    slots = [(blocks, True) for blocks in _FEASIBLE_SHAPES] + \
            [(blocks, False) for blocks in _INFEASIBLE_SHAPES]
    for t, (blocks, feasible) in enumerate(slots):
        objective = t % 2 == 1            # half the jobs maximize
        k = len(blocks)
        # the fiber count, prod(n_j w_j + 1), sets the cost of a job: narrow
        # the widest block until it lies in (FIBER_CAP / 2, FIBER_CAP]
        width = [6] * k
        while prod(nb * w + 1 for nb, w in zip(blocks, width)) > FIBER_CAP:
            j = max(range(k), key=lambda j: (blocks[j] * width[j], j))
            width[j] -= 1
        lo = [rng.randint(-2, 0) for _ in blocks]
        hi = [l + w for l, w in zip(lo, width)]
        total_lo = sum(nb * l for nb, l in zip(blocks, lo))
        total_w = sum(nb * w for nb, w in zip(blocks, width))
        if feasible:
            # one coupling on the total sum at a fixed share of its range
            # keeps the fiber count, and so the cost, the same for every seed
            spread = [1 if j == 0 and nb >= 3 else None for j, nb in enumerate(blocks)]
            couplings = [([1] * k, total_lo + total_w * 3 // 5)]
        else:
            # the coordinates of an integral point sum to an integer, which
            # the window [K + 1/3, K + 2/3] excludes; every fiber is probed
            # before the answer
            spread = [None] * k
            K = total_lo + total_w // 2
            couplings = [([1] * k, K + Fraction(2, 3)), ([-1] * k, -(K + Fraction(1, 3)))]
        rows = F.block_rows(blocks, lo, hi, spread, couplings)
        cobj = None
        if objective:
            cb = [rng.randint(1, 3)] * k     # probes every fiber above the optimum
            cobj = [c for c, nb in zip(cb, blocks) for _ in range(nb)]
        path = f"{prefix}ilp{t}.ine"
        F.write_h(path, rows, blocks=blocks,
                  objective=None if cobj is None else ("maximize", cobj))
        best = None
        if cobj is not None and feasible:
            best = partial(F.block_optimum, blocks, lo, hi, couplings, cb)
        jobs.append(Job(f"{name}ilp{t}:ilp", ["ilp", path],
                        _ilp_check(rows, feasible, cobj, best)))
    return jobs


def _ilp_check(rows: list, feasible: bool, cobj, best) -> Callable:
    def check(r, results):
        code, out = r.code, r.out
        lines = out.splitlines()
        if not feasible:
            return _expect(code == 1 and lines[:1] == ["infeasible"]
                           and lines[1].startswith("fibers tested "),
                           f"expected infeasible, got exit {code} {lines[:1]}")
        if code != 0 or lines[:1] != ["feasible"] or not lines[1].startswith("point "):
            return f"expected feasible, got exit {code} {lines[:1]}"
        z = [Fraction(x) for x in lines[1].split()[1:]]
        if any(x.denominator != 1 for x in z) or min(_row_value(a, b, z) for a, b in rows) < 0:
            return "point is not an integral point of the system"
        if cobj is not None:
            val = sum(c * x for c, x in zip(cobj, z))
            if lines[2] != f"objective {val}":
                return f"objective line {lines[2]!r} does not match the point"
            if val != best():
                return f"objective {val} is not the optimum {best()}"
        return _expect(lines[-1].startswith("fibers tested "), "missing fibers tested")
    return check
