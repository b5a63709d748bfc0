"""Command-line surface: polyhedron files in, plain-text reports out.

The file format follows the dominant polyhedral text convention: a kind line
(``H-representation`` or ``V-representation``), an optional ``linearity``
line, a ``begin``/``end`` block whose header gives the row count and width,
and rows of exact rationals.  H rows encode b - Ax >= 0 as
(b_i, -a_i1, ..., -a_in); V rows carry a leading 1 for vertices and 0 for
rays.  Trailing option lines declare an objective (``maximize``/``minimize``,
constant term first) and a ``blocks`` header for the symmetric routes.

Subcommands: automorphisms, convert, count, ehrhart, volume, ilp.  Exit
codes: 0 success, 1 infeasible or empty (a computed answer), 2 input error
(also a file that is not UTF-8 text, refused with the line of its first bad
byte, or an input past a size budget, such as a set orbit of more than
2,000,000 sets), 3 internal verification
failure or any other internal error (one stderr line, never a traceback).
``--jobs`` (default 1) and ``--period-bound`` are checked to be at least 1
when parsed; ``--jobs`` is otherwise ignored: every subcommand runs serially.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import neg
from typing import Optional, Sequence, Union

from .latcount import (count_lattice_points, count_with_symmetry, ehrhart,
                       first_lattice_point, volume)
from .permgrp import OrbitBudgetExceeded
from .polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    Matrix,
    PolyhedronError,
    Vector,
    VerificationError,
    VPolyhedron,
    clear_denominators,
    dot,
    vector,
)
from .repconv import (
    adjacency_decomposition,
    adjacency_graph,
    convert_dd,
    write_dot,
)
from .symdetect import affine_symmetry_group, restricted_symmetries_H
from .symilp import symmetric_ilp

__all__ = [
    "PolyFile",
    "PolyFileError",
    "main",
    "parse_polyfile",
    "write_polyfile",
]

class PolyFileError(ValueError):
    """Malformed polyhedron file; the message names the offending line."""


@dataclass(frozen=True)
class PolyFile:
    """Parsed polyhedron file: kind, body rows (ints in a row of integer
    tokens, Fractions in a row with a p/q token), trailing options, and the
    header's width, which a file with no rows needs to write back.  Each
    linearity index must name a row, and in a V file a ray row, so a
    PolyFile built in code writes a file that parses back."""
    kind: str                                     # "H" | "V"
    rows: Matrix                                  # m x (n+1), ints or Fractions by row
    linearity: tuple[int, ...] = ()               # 1-based body row indices
    objective: Optional[tuple[str, Vector]] = None  # (sense, n+1 entries)
    blocks: Optional[tuple[int, ...]] = None
    width: Optional[int] = None                   # n+1; inferred from the rows if None

    def __post_init__(self):
        if self.width is None:
            object.__setattr__(self, "width", len(self.rows[0]) if self.rows else 0)
        elif any(len(row) != self.width for row in self.rows):
            raise ValueError(f"rows do not have the given width {self.width}")
        m = len(self.rows)
        for i in self.linearity:
            if not 1 <= i <= m:
                raise PolyFileError(f"linearity index {i} is out of range 1..{m}")
            if self.kind == "V" and self.rows[i - 1][0] == 1:
                raise PolyFileError(
                    f"linearity index {i} marks a vertex row; only a ray row can be a line")

    def to_hpolyhedron(self) -> HPolyhedron:
        """The file's polyhedron: HPolyhedron.of_rows of (a | b) = (-row[1:] |
        row[0]) as parsed, so A and b are made only when something reads them."""
        if self.kind != "H":
            raise PolyhedronError("an H-representation file is required here")
        if not self.rows:
            raise PolyhedronError("an H-representation needs at least one row")
        return HPolyhedron.of_rows([(*map(neg, r[1:]), r[0]) for r in self.rows],
                                   self.linearity)

    def to_vpolyhedron(self) -> VPolyhedron:
        """The file's points and rays, a line as two opposite rays; a zero
        ray adds nothing to the cone and is skipped.  V is made from their
        integer form, so its Fraction vertices are made only when read."""
        if self.kind != "V":
            raise PolyhedronError("a V-representation file is required here")
        lin = set(self.linearity)
        points, rays = [], []
        for i, row in enumerate(self.rows, start=1):
            if row[0] == 1:
                points.append(row[1:])
            elif any(row[1:]):  # the parser guarantees 0 here: a ray
                rays.append(row[1:])
                if i in lin:
                    rays.append(tuple(-x for x in row[1:]))
        s, scaled = clear_denominators(points + rays)
        return VPolyhedron.of_points(s, scaled[:len(points)], rays)


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _parse_rational(tok: str, lineno: int) -> Fraction:
    # built from the match's groups: Fraction(tok) would parse tok again
    m = _RATIONAL.match(tok)
    if m is None:
        raise PolyFileError(f"line {lineno}: not a rational number: {tok!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise PolyFileError(f"line {lineno}: zero denominator: {tok!r}")
    return Fraction(int(num), int(den))


def parse_polyfile(text: str) -> PolyFile:
    """Parse a polyhedron file; errors carry 1-based line numbers."""
    lines = [(no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), start=1)
             if ln and not ln.startswith("#")]
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise PolyFileError(f"line {last}: unexpected end of file")
        pos += 1
        return lines[pos - 1]

    no, head = take()
    if head == "H-representation":
        kind = "H"
    elif head == "V-representation":
        kind = "V"
    else:
        raise PolyFileError(
            f"line {no}: expected H-representation or V-representation, got {head!r}")

    linearity: tuple[int, ...] = ()
    no, ln = take()
    if ln.split() and ln.split()[0] == "linearity":
        toks = ln.split()
        try:
            cnt = int(toks[1])
            idx = [int(t) for t in toks[2:]]
        except (IndexError, ValueError):
            raise PolyFileError(f"line {no}: malformed linearity line")
        if len(idx) != cnt or len(set(idx)) != cnt:
            raise PolyFileError(
                f"line {no}: linearity count does not match its indices")
        linearity = tuple(sorted(idx))
        no, ln = take()
    if ln != "begin":
        raise PolyFileError(f"line {no}: expected begin, got {ln!r}")

    no, ln = take()
    toks = ln.split()
    if len(toks) != 3 or toks[2] not in ("rational", "integer"):
        raise PolyFileError(
            f"line {no}: expected header 'm n rational', got {ln!r}")
    try:
        m, width = int(toks[0]), int(toks[1])
    except ValueError:
        raise PolyFileError(f"line {no}: non-integer sizes in header")
    if m < 0 or width < 1:
        raise PolyFileError(f"line {no}: invalid sizes in header")

    rows = []
    for _ in range(m):
        no, ln = take()
        toks = ln.split()
        if len(toks) != width:
            raise PolyFileError(
                f"line {no}: expected {width} entries, got {len(toks)}")
        try:
            if "_" in ln:   # int() reads 1_0 as 10; a file entry is [+-]?\d+(/\d+)?
                raise ValueError
            row = tuple(map(int, toks))
        except ValueError:  # a p/q entry, or a bad one, refused with its line
            row = tuple(_parse_rational(t, no) for t in toks)
        if kind == "V" and row[0] not in (0, 1):
            raise PolyFileError(
                f"line {no}: V rows must start with 1 (vertex) or 0 (ray)")
        rows.append(row)
    no, ln = take()
    if ln != "end":
        raise PolyFileError(f"line {no}: expected end, got {ln!r}")
    body = PolyFile(kind, tuple(rows), linearity, width=width)   # checks the linearity

    objective = None
    blocks = None
    while pos < len(lines):
        no, ln = take()
        toks = ln.split()
        if toks[0] in ("maximize", "minimize"):
            if objective is not None:
                raise PolyFileError(f"line {no}: duplicate objective line")
            if len(toks) != width + 1:
                raise PolyFileError(
                    f"line {no}: objective needs {width} entries, got {len(toks) - 1}")
            objective = (toks[0], tuple(_parse_rational(t, no) for t in toks[1:]))
        elif toks[0] == "blocks":
            if blocks is not None:
                raise PolyFileError(f"line {no}: duplicate blocks line")
            try:
                blocks = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise PolyFileError(f"line {no}: blocks must be integers")
            if not blocks or any(x < 1 for x in blocks):
                raise PolyFileError(f"line {no}: blocks must be positive integers")
        else:
            raise PolyFileError(f"line {no}: unknown option line {ln!r}")
    return replace(body, objective=objective, blocks=blocks)


def write_polyfile(pf: PolyFile) -> str:
    """Canonical text for a PolyFile; parsing it back gives an equal value."""
    out = [f"{pf.kind}-representation"]
    if pf.linearity:
        out.append("linearity " + " ".join(str(i) for i in (len(pf.linearity),) + pf.linearity))
    out.append("begin")
    out.append(f"{len(pf.rows)} {pf.width} rational")
    for row in pf.rows:
        out.append(" ".join(str(x) for x in row))
    out.append("end")
    if pf.objective is not None:
        sense, c = pf.objective
        out.append(sense + " " + " ".join(str(x) for x in c))
    if pf.blocks is not None:
        out.append("blocks " + " ".join(str(x) for x in pf.blocks))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _bounded_vfile(pf: PolyFile) -> VPolyhedron:
    V = pf.to_vpolyhedron()
    if V.rays:
        raise PolyhedronError("unbounded V input (rays present) is not supported here")
    if not V.k:
        raise EmptyPolyhedronError("the file lists no vertices")
    return V


def _polyhedron(pf: PolyFile) -> Union[HPolyhedron, VPolyhedron]:
    """The file's polyhedron as the file gives it, H or V, converted to nothing."""
    return pf.to_vpolyhedron() if pf.kind == "V" else pf.to_hpolyhedron()


def cmd_automorphisms(pf: PolyFile, args) -> int:
    if pf.kind == "V":
        G = affine_symmetry_group(_bounded_vfile(pf))
    else:
        G = restricted_symmetries_H(pf.to_hpolyhedron())
    print(f"order {G.order()}")
    for g in G.generators:
        if g.cycles():
            print(f"generator {g.cycle_string()}")
    return 0


def cmd_convert(pf: PolyFile, args) -> int:
    if args.dot and not args.adjacencies:
        raise PolyhedronError("--dot needs --adjacencies")
    levels = tuple(args.idm_adm_level)
    if pf.kind == "V":
        V = _bounded_vfile(pf)
        G = affine_symmetry_group(V)
        ledger = adjacency_decomposition(V, G, levels)
        lines = [f"facet orbits {ledger.orbit_count}"]
        for t, e in enumerate(ledger.entries.values(), start=1):
            # stored as (a | delta) for a.x <= delta; file rows carry (b, -a)
            rep = (e.row[-1],) + tuple(-x for x in e.row[:-1])
            lines.append(f"orbit {t} size {e.size} rep "
                         + " ".join(str(x) for x in rep))
    else:
        P = pf.to_hpolyhedron()
        G = restricted_symmetries_H(P)
        ledger = adjacency_decomposition(P, G, levels)
        orbs = sorted(ledger.vertex_group.point_orbits(), key=min)
        lines = [f"vertex orbits {len(orbs)}"]
        for t, orb in enumerate(orbs, start=1):
            v = ledger.vertices[min(orb) - 1]
            lines.append(f"orbit {t} size {len(orb)} rep 1 "
                         + " ".join(str(x) for x in v))
    print("\n".join(lines))
    if args.adjacencies:
        dot = write_dot(adjacency_graph(ledger))
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(dot)
        else:
            print(dot, end="")
    return 0


def cmd_count(pf: PolyFile, args) -> int:
    if args.symmetric:
        # a missing header is an input error, whatever the body holds; the
        # sorted-domain rows are added to an inequality description
        if pf.blocks is None:
            raise PolyhedronError("--symmetric needs a blocks header in the input file")
        P = _polyhedron(pf)
        total = count_with_symmetry(P if pf.kind == "H" else convert_dd(P), pf.blocks)
    else:
        # a V file is walked on its own points, with no conversion to H first
        total = count_lattice_points(_polyhedron(pf))
    print(total)
    return 0


def cmd_ehrhart(pf: PolyFile, args) -> int:
    # a V file goes in as given: ehrhart converts it once, to the rows that top its chain
    q = ehrhart(_polyhedron(pf), period_bound=args.period_bound)
    print(f"period {q.period}")
    print(f"degree {q.degree}")
    for i, comp in enumerate(q.components):
        print(f"class {i}: " + " ".join(str(c) for c in comp))
    return 0


def cmd_volume(pf: PolyFile, args) -> int:
    # a V file is measured on its own points, with no conversion to H first
    print(volume(_polyhedron(pf)))
    return 0


def cmd_ilp(pf: PolyFile, args) -> int:
    P = pf.to_hpolyhedron()
    sense, c, shift = None, None, Fraction(0)
    if pf.objective is not None:
        sense = pf.objective[0]
        shift = pf.objective[1][0]
        c = vector(pf.objective[1][1:])
    goal = None if c is None else \
        (tuple(-x for x in c) if sense == "minimize" else c)

    tested = None
    if pf.blocks is None:
        z = first_lattice_point(P, goal)
    else:
        z, tested = symmetric_ilp(P, pf.blocks, goal)

    if z is None:
        print("infeasible")
        if tested is not None:
            print(f"fibers tested {tested}")
        return 1
    if not P.contains(z):
        raise VerificationError("computed point violates the input system")
    print("feasible")
    print("point", *z)
    if c is not None:
        print(f"objective {dot(c, z) + shift}")
    if tested is not None:
        print(f"fibers tested {tested}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _positive_int(raw: str) -> int:
    """An integer of at least 1, for --jobs and --period-bound."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; it holds no per-call state, so it is built once."""
    top = argparse.ArgumentParser(
        prog="polyorbit",
        description="Exact polyhedral computations up to symmetry.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="polyhedron file (H- or V-representation)")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker count (at least 1); accepted and ignored, "
                            "every subcommand runs serially")
        p.set_defaults(handler=handler)
        return p

    add("automorphisms", cmd_automorphisms,
        "group order and generators on the input rows")
    conv = add("convert", cmd_convert,
               "orbit representatives of the converted representation")
    conv.add_argument("--idm-adm-level", type=int, nargs=2, default=(0, 1),
                      metavar=("L1", "L2"),
                      help="recursion depths for the incidence / adjacency methods"
                           " (V input; checked but unused for an H input)")
    conv.add_argument("--adjacencies", action="store_true",
                      help="also emit the facet adjacency graph as DOT")
    conv.add_argument("--dot", metavar="FILE",
                      help="with --adjacencies, write the DOT graph here instead of stdout")
    cnt = add("count", cmd_count, "exact number of lattice points")
    cnt.add_argument("--symmetric", action="store_true",
                     help="count sorted points of each block, weighted by orbit size"
                          " (blocks header)")
    ehr = add("ehrhart", cmd_ehrhart,
              "Ehrhart quasi-polynomial, one coefficient row per residue class")
    ehr.add_argument("--period-bound", type=_positive_int, default=24,
                     help="largest allowed quasi-polynomial period")
    add("volume", cmd_volume, "exact volume, lattice-relative on the hull")
    add("ilp", cmd_ilp, "integral feasibility / optimization: core-point sweep with blocks,"
        " else the lex-least point or maximizer of the counting walk (10^6 prefixes a level)")
    return top


def _utf8_text(data: bytes) -> str:
    """data decoded as UTF-8; a bad byte is refused with its line, counted
    as parse_polyfile counts lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "." stands in for the bad byte: after a line break it starts a line
        no = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise PolyFileError(
            f"line {no}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with open(args.file, "rb") as fh:
            pf = parse_polyfile(_utf8_text(fh.read()))
        return args.handler(pf, args)
    except PolyFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except EmptyPolyhedronError as exc:
        print(f"empty: {exc}", file=sys.stderr)
        return 1
    except (PolyhedronError, OrbitBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
