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
byte, an entry of more digits than ``sys.get_int_max_str_digits()``, or an
input past a size budget, such as a set orbit of more than 2,000,000 sets),
3 internal verification failure or any other internal error (one stderr
line, never a traceback).

The command line is stated once, in the command table ``_COMMANDS``.  A
command followed by one file and that command's exact flags is read from
the table in one pass; argparse, built from the same table, still serves
help, abbreviations, ``--flag=value`` and every error.  ``--jobs``
(default 1) and ``--period-bound`` are checked to be at least 1 when read;
``--jobs`` is otherwise ignored: every subcommand runs serially.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from itertools import islice
from operator import neg
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
from .record import Record
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


class PolyFile(Record):
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
_CHUNK = 10 ** 640   # the least limit sys.set_int_max_str_digits takes


def _int(tok: str, lineno: int, refusal: str) -> int:
    """int(tok), or a PolyFileError of its line: int()'s digit limit, left as set, or refusal."""
    try:
        return int(tok)
    except ValueError:
        m = _RATIONAL.match(tok)
        if m and m.group(2) is None:
            refusal = f"an entry exceeds the limit of {sys.get_int_max_str_digits()} digits"
        raise PolyFileError(f"line {lineno}: {refusal}") from None


def _parse_rational(tok: str, lineno: int) -> Fraction:
    # built from the match's groups: Fraction(tok) would parse tok again
    m = _RATIONAL.match(tok)
    bad = f"not a rational number: {tok!r}"
    if m is None:
        raise PolyFileError(f"line {lineno}: {bad}")
    num, den = (_int(t, lineno, bad) for t in m.groups("1"))
    if den == 0:
        raise PolyFileError(f"line {lineno}: zero denominator: {tok!r}")
    return Fraction(num, den)


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
        if len(toks) < 2:
            raise PolyFileError(f"line {no}: malformed linearity line")
        cnt, *idx = (_int(t, no, "malformed linearity line") for t in toks[1:])
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
    m, width = (_int(t, no, "non-integer sizes in header") for t in toks[:2])
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
            blocks = tuple(_int(t, no, "blocks must be integers") for t in toks[1:])
            if not blocks or any(x < 1 for x in blocks):
                raise PolyFileError(f"line {no}: blocks must be positive integers")
        else:
            raise PolyFileError(f"line {no}: unknown option line {ln!r}")
    return PolyFile(kind, tuple(rows), linearity, objective, blocks, width)


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


def _num(x: Union[int, Fraction]) -> str:
    """str(x), for every number a command prints, also past the digit limit
    of str(), which is left as set: a longer int is written 640 digits at a time."""
    if isinstance(x, Fraction):
        return _num(x.numerator) + ("/" + _num(x.denominator) if x.denominator != 1 else "")
    head, low = abs(x), []
    while head >= _CHUNK:
        head, r = divmod(head, _CHUNK)
        low.append(f"{r:0640d}")
    return "-" * (x < 0) + str(head) + "".join(reversed(low))


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
    print(f"order {_num(G.order())}")
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
        lines = [f"facet orbits {_num(ledger.orbit_count)}"]
        for t, e in enumerate(ledger.entries.values(), start=1):
            # stored as (a | delta) for a.x <= delta; file rows carry (b, -a)
            rep = (e.row[-1],) + tuple(-x for x in e.row[:-1])
            lines.append(f"orbit {_num(t)} size {_num(e.size)} rep "
                         + " ".join(map(_num, rep)))
    else:
        P = pf.to_hpolyhedron()
        G = restricted_symmetries_H(P)
        ledger = adjacency_decomposition(P, G, levels)
        orbs = sorted(ledger.vertex_group.point_orbits(), key=min)
        lines = [f"vertex orbits {_num(len(orbs))}"]
        for t, orb in enumerate(orbs, start=1):
            v = ledger.vertices[min(orb) - 1]
            lines.append(f"orbit {_num(t)} size {_num(len(orb))} rep 1 "
                         + " ".join(map(_num, v)))
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
    print(_num(total))
    return 0


def cmd_ehrhart(pf: PolyFile, args) -> int:
    # a V file goes in as given: ehrhart converts it once, to the rows that top its chain
    q = ehrhart(_polyhedron(pf), period_bound=args.period_bound)
    print(f"period {_num(q.period)}")
    print(f"degree {_num(q.degree)}")
    for i, comp in enumerate(q.components):
        print(f"class {_num(i)}: " + " ".join(map(_num, comp)))
    return 0


def cmd_volume(pf: PolyFile, args) -> int:
    # a V file is measured on its own points, with no conversion to H first
    print(_num(volume(_polyhedron(pf))))
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
            print(f"fibers tested {_num(tested)}")
        return 1
    if not P.contains(z):
        raise VerificationError("computed point violates the input system")
    print("feasible")
    print("point", *map(_num, z))
    if c is not None:
        print(f"objective {_num(dot(c, z) + shift)}")
    if tested is not None:
        print(f"fibers tested {_num(tested)}")
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


class _Option(NamedTuple):
    """An option of the command table, in argparse's terms: nargs is None
    for one value, n for a list of n values and 0 for a switch that stores
    True; type (None: the text itself) converts each value."""
    flag: str
    nargs: Optional[int]
    type: Optional[Callable[[str], object]]
    default: object
    metavar: Union[None, str, tuple[str, ...]]
    help: str


_JOBS = _Option("--jobs", None, _positive_int, 1, None,
                "worker count (at least 1); accepted and ignored, every subcommand runs serially")

# The command line, stated once: subcommand -> (handler, help, its options
# besides the file and --jobs).  _read_argv reads argv by it, and
# _build_parser builds argparse from it.
_COMMANDS = {
    "automorphisms": (cmd_automorphisms, "group order and generators on the input rows", ()),
    "convert": (cmd_convert, "orbit representatives of the converted representation", (
        _Option("--idm-adm-level", 2, int, (0, 1), ("L1", "L2"),
                "recursion depths for the incidence / adjacency methods"
                " (V input; checked but unused for an H input)"),
        _Option("--adjacencies", 0, None, False, None,
                "also emit the facet adjacency graph as DOT"),
        _Option("--dot", None, None, None, "FILE",
                "with --adjacencies, write the DOT graph here instead of stdout"))),
    "count": (cmd_count, "exact number of lattice points", (
        _Option("--symmetric", 0, None, False, None,
                "count sorted points of each block, weighted by orbit size (blocks header)"),)),
    "ehrhart": (cmd_ehrhart, "Ehrhart quasi-polynomial, one coefficient row per residue class", (
        _Option("--period-bound", None, _positive_int, 24, None,
                "largest allowed quasi-polynomial period"),)),
    "volume": (cmd_volume, "exact volume, lattice-relative on the hull", ()),
    "ilp": (cmd_ilp, "integral feasibility / optimization: core-point sweep with blocks,"
            " else the lex-least point or maximizer of the counting walk (10^6 prefixes a level)",
            ()),
}


def _read_argv(argv: Optional[Sequence[str]]) -> Optional[argparse.Namespace]:
    """The namespace of argv (None: sys.argv[1:]), read in one pass from
    _COMMANDS when argv is a command, then one file and that command's exact
    flags with their values in any order, a repeated flag's last value
    winning as in argparse.  None for anything else, left to _build_parser:
    help, an abbreviation, --flag=value, a value or file that starts with
    "-", a second or missing file, or a value its type refuses."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    flags = {o.flag: o for o in (_JOBS, *options)}
    given, files = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        o = flags.get(arg)
        if o is None:
            return None
        if o.nargs == 0:
            given[arg] = True
            continue
        raw = list(islice(rest, o.nargs or 1))
        if len(raw) < (o.nargs or 1) or any(v.startswith("-") for v in raw):
            return None
        try:
            values = [o.type(v) for v in raw] if o.type else raw
        except (ValueError, argparse.ArgumentTypeError):
            return None
        given[arg] = values if o.nargs else values[0]
    if len(files) != 1:
        return None
    return argparse.Namespace(
        command=argv[0], file=files[0],
        **{o.flag[2:].replace("-", "_"): given.get(flag, o.default)
           for flag, o in flags.items()},
        handler=handler)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """argparse's parser of _COMMANDS, for the argv _read_argv leaves: it
    prints help and usage, reads abbreviations and --flag=value, and
    reports every error.  It holds no per-call state, so it is built once."""
    top = argparse.ArgumentParser(
        prog="polyorbit",
        description="Exact polyhedral computations up to symmetry.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="polyhedron file (H- or V-representation)")
        for o in (_JOBS, *options):
            if o.nargs == 0:
                p.add_argument(o.flag, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, nargs=o.nargs, type=o.type, default=o.default,
                               metavar=o.metavar, help=o.help)
        p.set_defaults(handler=handler)
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
        args = _read_argv(argv) or _build_parser().parse_args(argv)
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
