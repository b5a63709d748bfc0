"""Representation conversion for polytopes, plain and up to symmetries.

The base converter is the double description method of polycore, run on a
homogenization cone in integer arithmetic; it also reports which input
elements each output element is tight on, and every facet below is the
ascending tuple of the indices in its mask, the one form permgrp gives an
index set.  On top of it sit two orbitwise methods for vertex input:
adjacency decomposition (seed one facet, walk to neighbors across ridges,
keep one representative per orbit, record the orbit pairs crossed, off which
the adjacency graph is read) and incidence decomposition (enumerate the
facets through one representative point of each input orbit).  Both catalog
facet orbits in an OrbitLedger keyed by canonical incident-vertex sets, so
any two runs agree key-for-key.  permgrp.orbit_of_set expands each facet
orbit once and keys it by its least member; a facet in an orbit already
expanded is looked up, and an orbit past the set budget stops the
conversion.  Everything runs serially on one thread.

The facet walk runs in integers, on VPolyhedron.int_points, one scale per
polytope.  One elimination of a facet's points (polycore.hull_coordinates)
gives its supporting row and their hull coordinates, read at the pivot
columns.  Each ridge comes with its row in those coordinates, from one plain
conversion of them at the default levels (every ridge) or from a walk of
the facet deeper (one per orbit of its stabilizer).  Lifted through the
pivots, the row is the second functional of the pencil about the ridge, so
no ridge is eliminated; the rotation compares parameters by
cross-multiplying integers.  A full-dimensional walk's ledger rows are the
rows it walked.  A lower-dimensional input is walked in its integer hull
coordinates, and a facet's ambient row is the one primitive row on the
scaled points orthogonal to the integer hull normals.  A plain conversion
is one polycore.integer_v_to_h of the points, whose masks are the facets;
the incidence method calls dd_cone on the tangent cone at a point, which is
not homogenized.

For an H-description its one double description, HPolyhedron.dd, which
symmetry detection reads too, gives every vertex together with the rows it
is tight on; the row group acts on those tight sets, which gives the group
on vertex indices, and the facet orbits of the input are its row orbits.
The group check before either decomposition is also its one shape check, by
the realizers of symdetect, and it realizes only the relabelings that the
object's frame has not yet checked.  Either way a completed ledger
knows the full vertex list, the group acting on vertex indices, and one
supporting row per facet orbit.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Iterable, Optional, Sequence, Union

from .polycore import (
    HPolyhedron,
    PolyhedronError,
    VerificationError,
    VPolyhedron,
    Vector,
    combine,
    convert_dd,
    dd_cone,
    hull_coordinates,
    index_set,
    integer_nullspace,
    integer_v_to_h,
    primitive,
    vec_sub,
)
from .permgrp import (
    Permutation,
    PermutationGroup,
    SetOrbit,
    orbit_of_set,
    set_stabilizer,
)
from .symdetect import are_affine_symmetries

# convert_dd is polycore's, like dd_cone; both stay importable from here,
# where polybench/spans.py and earlier callers look them up.


# ---------------------------------------------------------------------------
# Facet-orbit engine (vertex side)
#
# All engine functions work on a full-dimensional list of integer points in
# R^d (d >= 1) with 1-based indices; facets are identified with their full
# incident-index sets, as ascending tuples.  Supporting rows are recovered
# from incidence sets, so recursion only ever passes index sets around.


def _supporting_row(pts: Sequence[Sequence[int]], S: tuple[int, ...], ns: Sequence[Sequence[int]]
                    ) -> tuple[tuple[int, ...], int]:
    """(a, delta), primitive, with a.x <= delta over pts and equality
    exactly on S, read off ns, the integer null space of the differences of
    S's points (and of the hull normals of a lower-dimensional list) that
    the caller has computed.  S must be the full incidence set of a facet,
    so ns holds one vector and every point off S is strictly below it.
    """
    if len(ns) != 1:
        raise PolyhedronError("index set does not span a facet")
    a = ns[0]
    delta = sum(map(mul, a, pts[S[0] - 1]))
    for j, p in enumerate(pts):
        if (j + 1) in S:
            continue
        val = sum(map(mul, a, p))
        if val == delta:
            raise PolyhedronError("index set is not a full incidence set")
        if val > delta:
            a = tuple(-x for x in a)
            delta = -delta
        break
    return a, delta


def _rotate_about(pts: Sequence[Sequence[int]], face: tuple[int, ...], c: tuple[int, ...],
                  delta: int, off: list, g: Optional[tuple[int, ...]] = None
                  ) -> Optional[tuple[tuple[int, ...], int, list[int]]]:
    """Rotate the hyperplane c.x = delta about aff(face) to the first points
    of off, (i, p, delta - c.p) for each point p off the facet (or off face),
    or None when face already spans a hyperplane.

    The hyperplanes through aff(face) form a pencil spanned by c and any
    second functional g vanishing on the face directions.  A given g keeps
    the facet at or below its value on the face; without one, as for
    _initial_facet, g is the first integer null vector of the face not
    parallel to c.  The rotated row is g + t c at the largest parameter
    t = (g.p - gamma) / (delta - c.p) over off, and comes back as a
    primitive (row | rhs) with the 1-based indices attaining it; another
    admissible g moves every t by one increasing affine map and keeps both.
    Each denominator is positive, so parameters compare by cross-multiplying.
    """
    base = pts[face[0] - 1]
    if g is None:
        ns = integer_nullspace([tuple(map(sub, pts[i - 1], base)) for i in face[1:]], len(base))
        if len(ns) == 1:
            return None
        k = next(j for j, x in enumerate(c) if x)
        g = next(v for v in ns if any(x * c[k] != y * v[k] for x, y in zip(v, c)))
    gamma = sum(map(mul, g, base))
    num, den = 0, 0               # t = num / den, den > 0 once a point is seen
    arg: list[int] = []
    for i, p, pd in off:
        pn = sum(map(mul, g, p)) - gamma
        cmp = pn * den - num * pd
        if not arg or cmp > 0:
            num, den, arg = pn, pd, [i]
        elif cmp == 0:
            arg.append(i)
    row = combine(den, g + (gamma,), num, c + (delta,))
    return row[:-1], row[-1], arg


def _initial_facet(pts: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Deterministic seed facet: maximize the first coordinate, then rotate
    the supporting hyperplane to enlarge the optimal face until it spans
    dimension d-1.  Each rotation pivots within the pencil of hyperplanes
    through the current face, so the face grows strictly."""
    c = (1,) + (0,) * (len(pts[0]) - 1)
    delta = max(p[0] for p in pts)
    S = tuple(i + 1 for i, p in enumerate(pts) if p[0] == delta)
    while True:
        off = [(i, p, delta - sum(map(mul, c, p))) for i, p in enumerate(pts, 1) if i not in S]
        step = _rotate_about(pts, S, c, delta, off)
        if step is None:
            return S
        c, delta, arg = step
        S = tuple(sorted([*S, *arg]))


def _neighbor_facet(pts: Sequence[Sequence[int]], c: tuple[int, ...], delta: int, off: list,
                    R: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The unique facet other than F = {c.x = delta} containing its ridge R.

    The neighbor is cut out at the extreme admissible parameter of the pencil
    of hyperplanes through aff(R), spanned by c and g, a finite maximum over
    off, the points outside F.
    """
    return tuple(sorted([*R, *_rotate_about(pts, R, c, delta, off, g)[2]]))


def _ridges(G: PermutationGroup, orb: SetOrbit, local: Sequence[Sequence[int]],
            levels: tuple[int, int], depth: int) -> Iterable[tuple[tuple[int, ...], tuple]]:
    """Ridges of the facet on the vertices of orb's key (hull coordinates
    local) as indices into the key, each with its normal on local: below l2,
    one per orbit of its stabilizer in G, from the walk at depth + 1, and
    otherwise every ridge of a plain conversion, in mask order."""
    # a walk runs at l1 <= depth, and a one-dimensional facet is converted
    if depth + 1 >= levels[1] or len(local[0]) == 1:
        _, rows, masks = integer_v_to_h(1, local)
        return ((index_set(m), r[:-1]) for m, r in zip(masks, rows))
    members = orb.representative
    pos = {v: j + 1 for j, v in enumerate(members)}
    stab = set_stabilizer(G, orb)
    sub_gens = [Permutation(tuple(pos[g(v)] for v in members)) for g in stab.generators]
    sub_group = PermutationGroup(sub_gens, degree=len(members), order=stab.order())
    orbits, _, rows = _facet_orbit_engine(local, sub_group, levels, depth + 1)
    return [(r.representative, rows[r.representative][0]) for r in orbits]


def _neighbor_facets(pts: Sequence[Sequence[int]], G: PermutationGroup, orb: SetOrbit,
                     levels: tuple[int, int], depth: int) -> tuple[tuple, Iterable]:
    """The supporting row (c, delta) on pts of orb's key F, and a neighbor
    of F across each of its _ridges.  They meet each neighboring facet orbit
    first where one ridge per orbit of F's stabilizer would: the ridges of a
    stabilizer orbit lead into one facet orbit, and the first of them in
    mask order is the first the stabilizer orbits list."""
    F = orb.representative
    normals, local, pivots = hull_coordinates([pts[i - 1] for i in F])
    c, delta = _supporting_row(pts, F, normals)
    off = [(i, p, delta - sum(map(mul, c, p))) for i, p in enumerate(pts, 1) if i not in F]
    # a ridge's normal a lifts through the pivots to g, 0 in the one other
    # column k; F ascends, so the ridge's points do too
    k = next((j for j, col in enumerate(pivots) if j != col), len(pivots))
    return (c, delta), (_neighbor_facet(pts, c, delta, off, tuple(F[j - 1] for j in R),
                                        (*a[:k], 0, *a[k:]))
                        for R, a in _ridges(G, orb, local, levels, depth))


def _distinct_orbits(G: PermutationGroup, sets: Iterable[tuple[int, ...]]) -> list[SetOrbit]:
    """The orbits of the given sets under G in discovery order, each
    expanded once: a set in an orbit already expanded is skipped."""
    found = []
    known: set = set()
    for S in sets:
        if S not in known:
            orb = orbit_of_set(G, S)
            found.append(orb)
            known |= orb.elements
    return found


def _plain_orbits(pts: Sequence[Sequence[int]], G: PermutationGroup) -> list[SetOrbit]:
    """Facet orbits from one double description of the points,
    polycore.integer_v_to_h: each facet with the points it is tight on."""
    return _distinct_orbits(G, map(index_set, integer_v_to_h(1, pts)[2]))


def _idm_orbits(pts: Sequence[Vector], G: PermutationGroup) -> list[SetOrbit]:
    """One representative point per point orbit; all facets through it come
    from the dual of its tangent cone.  Every facet contains some vertex, so
    the union over the orbit representatives covers everything."""
    d = len(pts[0])

    def facets():
        for p0 in sorted(min(orb) for orb in G.point_orbits()):
            v0 = pts[p0 - 1]
            rows = [vec_sub(p, v0) for i, p in enumerate(pts) if i + 1 != p0]
            # row t is point t + 1, or t + 2 past p0; a ray of the cone is
            # tight on the rows of the points on its facet
            for mask in dd_cone(rows, d)[2]:
                yield tuple(sorted([p0, *(j if j < p0 else j + 1 for j in index_set(mask))]))

    return _distinct_orbits(G, facets())


def _walk(pts: Sequence[Sequence[int]], G: PermutationGroup, start: Iterable[SetOrbit],
          levels: tuple[int, int], depth: int) -> tuple[list[SetOrbit], frozenset, dict]:
    """Breadth-first walk over facet orbits from the start orbits: the
    orbits in discovery order, every (key, neighbor key) pair crossed and
    each key's row (c, delta) on pts.  The frontier is processed in sorted
    rounds and results are merged in batch order, so all are deterministic.
    Every facet of an expanded orbit is mapped to its key, so only a
    neighbor in an orbit not yet met is expanded."""
    entries = {orb.representative: orb for orb in start}
    key_of = {X: key for key, orb in entries.items() for X in orb.elements}
    pairs, rows = set(), {}
    frontier = list(entries)
    while frontier:
        batch = sorted(frontier)
        frontier = []
        for key in batch:
            rows[key], nbrs = _neighbor_facets(pts, G, entries[key], levels, depth)
            for N in nbrs:
                if N not in key_of:
                    orb = orbit_of_set(G, N)
                    entries[orb.representative] = orb
                    key_of.update(dict.fromkeys(orb.elements, orb.representative))
                    frontier.append(orb.representative)
                pairs.add((key, key_of[N]))
    return list(entries.values()), frozenset(pairs), rows


def _facet_orbit_engine(pts: Sequence[Vector], G: PermutationGroup, levels: tuple[int, int],
                        depth: int) -> tuple[list[SetOrbit], Optional[frozenset], dict]:
    """Facet orbits of conv(pts), one SetOrbit per orbit, discovery order,
    and the (key, neighbor key) pairs and key rows of the walk, or None, {}.

    pts must be distinct and affinely span their space.  The levels policy
    (l1, l2) picks the method by recursion depth: below l1 incidence
    decomposition, below l2 adjacency decomposition (the walk from the seed
    facet), anything deeper is a plain conversion.
    """
    if not pts or not pts[0]:
        return [], None, {}
    l1, l2 = levels
    if len(pts[0]) == 1:
        # a segment's two facets share no ridge, so the walk cannot reach
        # one from the other; enumerate directly
        return _plain_orbits(pts, G), None, {}
    if depth < l1:
        return _idm_orbits(pts, G), None, {}
    if depth < l2:
        return _walk(pts, G, [orbit_of_set(G, _initial_facet(pts))], levels, depth)
    return _plain_orbits(pts, G), None, {}


# ---------------------------------------------------------------------------
# Orbit ledger


class _Geometry:
    """A polytope's points in integers, in ambient and in hull coordinates.

    The points are V.int_points, scaled by the lcm of their denominators, a
    positive uniform scale that keeps every facet incidence set and every
    argmax of the facet walk.  The walk runs on local: the points themselves
    when V.frame spans, as it does for every full-dimensional list (the group
    check has made the frame), and otherwise the integer hull coordinates,
    with normals the integer hull normals.
    """

    def __init__(self, V: VPolyhedron):
        self.scale, self.ambient, _ = V.int_points
        if len(V.frame.basis) == V.n + 1:
            self.normals, self.local = [], self.ambient
        else:
            self.normals, self.local, _ = hull_coordinates(self.ambient)

    def ambient_row(self, S: tuple[int, ...], walked: Optional[dict] = None) -> tuple[int, ...]:
        """The primitive integer (a | b) of the facet on S: a.x <= delta on
        the scaled points, the walk's row walked[S] when local is those
        points, is (scale a).x <= delta on the given ones."""
        row = None if self.normals else (walked or {}).get(S)
        if row is None:
            base = self.ambient[S[0] - 1]
            ns = integer_nullspace([tuple(map(sub, self.ambient[i - 1], base)) for i in S[1:]]
                                   + self.normals, len(base))
            row = _supporting_row(self.ambient, S, ns)
        return primitive(tuple(self.scale * x for x in row[0]) + (row[1],))


@dataclass(frozen=True)
class FacetOrbit:
    """One facet orbit: the orbit itself and a supporting row for its
    representative (primitive, ambient)."""
    orbit: SetOrbit
    row: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.orbit.size


@dataclass(frozen=True)
class OrbitLedger:
    """Facet orbits keyed by canonical incident-vertex sets (discovery order),
    together with the vertex list the keys index into and the group acting on
    those vertex indices.  A ledger from the facet walk also holds the
    (key, neighbor key) pairs the walk crossed; edges is None otherwise."""
    entries: dict
    vertices: tuple
    vertex_group: PermutationGroup
    edges: Optional[frozenset] = None

    @property
    def orbit_count(self) -> int:
        return len(self.entries)


def _check_levels(levels) -> tuple[int, int]:
    try:
        l1, l2 = levels
    except (TypeError, ValueError):
        raise PolyhedronError("levels must be a pair of non-negative integers")
    if not (isinstance(l1, int) and isinstance(l2, int)) or l1 < 0 or l2 < 0:
        raise PolyhedronError("levels must be a pair of non-negative integers")
    return l1, l2


def _decompose_points(V: VPolyhedron, G: PermutationGroup,
                      levels: tuple[int, int]) -> OrbitLedger:
    if G.degree != V.k:
        raise PolyhedronError("group degree does not match the number of vertices")
    if not are_affine_symmetries(V, G.generators):
        raise PolyhedronError("group generator is not an affine symmetry of the vertex set")
    geo = _Geometry(V)
    orbits, pairs, rows = _facet_orbit_engine(geo.local, G, levels, 0)
    entries = {orb.representative: FacetOrbit(orb, geo.ambient_row(orb.representative, rows))
               for orb in orbits}
    return OrbitLedger(entries, V.vertices, G, pairs)


def _decompose_rows(P: HPolyhedron, G: PermutationGroup) -> OrbitLedger:
    if G.degree != P.m:
        raise PolyhedronError("group degree does not match the number of rows")
    # the row check refuses an empty, lower-dimensional or redundant P
    if not are_affine_symmetries(P, G.generators):
        raise PolyhedronError("group generator is not an affine symmetry of the rows")
    # every vertex with the rows it is tight on; a row permutation in G maps
    # the tight set of a vertex onto the tight set of its image
    V, masks = P.dd
    if V.rays:
        raise PolyhedronError("decomposition requires a bounded polytope")

    # the integer points share one positive scale, so they sort as the vertices
    order = sorted(range(V.k), key=V.int_points[1].__getitem__)
    vert_list = [V.vertices[j] for j in order]
    vert_tight = [masks[j] for j in order]
    vertex_of = {T: j + 1 for j, T in enumerate(vert_tight)}
    tight_sets = [index_set(T) for T in vert_tight]
    vgens = []
    for g in G.generators:
        bit = [0] + [1 << (x - 1) for x in g.images]    # bit[i]: the mask of g(i)
        vgens.append(Permutation(tuple(vertex_of[sum(map(bit.__getitem__, S))]
                                       for S in tight_sets)))
    # a row permutation that fixes every vertex of a full-dimensional P fixes
    # its facets, so G acts faithfully on the vertices
    vertex_group = PermutationGroup(vgens, degree=len(vert_list), order=G.order())

    entries = {}
    for row_orbit in sorted(G.point_orbits(), key=min):
        rep = min(row_orbit)
        S = tuple(j + 1 for j, T in enumerate(vert_tight) if T >> (rep - 1) & 1)
        orb = orbit_of_set(vertex_group, S)
        if orb.size != len(row_orbit):
            raise VerificationError("internal error: row and facet orbits disagree")
        entries[orb.representative] = FacetOrbit(orb, P.int_rows[rep - 1])
    return OrbitLedger(entries, tuple(vert_list), vertex_group)


def adjacency_decomposition(P: Union[HPolyhedron, VPolyhedron], G: PermutationGroup,
                            levels: tuple[int, int] = (0, 1)) -> OrbitLedger:
    """Facet orbits by the neighbor-walk method.

    Seeds with one facet, then repeatedly takes a pending orbit
    representative, computes its ridges (facets of the facet, up to the
    stabilizer), rotates each ridge to the neighboring facet and inserts
    unseen orbits, until no pending orbit remains.  For an H-description the
    facet orbits are the row orbits and one double description gives the
    vertices, so levels is checked but chooses no method there.

    G must act by affine symmetries on the inequality indices (H input) or
    vertex indices (V input); this is verified up front.  The input must be
    a bounded polytope with distinct vertices, or by rows a nonempty,
    full-dimensional and irredundant one.
    """
    lv = _check_levels(levels)
    if isinstance(P, VPolyhedron):
        return _decompose_points(P, G, lv)
    if isinstance(P, HPolyhedron):
        return _decompose_rows(P, G)
    raise TypeError("expected an HPolyhedron or VPolyhedron")


def incidence_decomposition(P: Union[HPolyhedron, VPolyhedron], G: PermutationGroup
                            ) -> OrbitLedger:
    """Facet orbits by fixing input orbits.

    For one representative of each input-element orbit, all facets incident
    to it are enumerated through a lower-dimensional conversion (the dual of
    its tangent cone) and canonicalized; the union over the orbit
    representatives covers every facet because each facet touches some input
    element.  For an H-description there is no walk to choose: the ledger
    comes from one double description, as in adjacency_decomposition.
    Preconditions match adjacency_decomposition, and so does the resulting
    ledger.
    """
    return adjacency_decomposition(P, G, (1, 1))   # incidence method at depth 0


# ---------------------------------------------------------------------------
# Facet adjacency up to symmetry


@dataclass(frozen=True)
class AdjacencyGraphUpToSymmetry:
    """Nodes are facet orbits (discovery order, numbered from 1); an edge
    joins two orbits whenever some facet of one shares a ridge with some
    facet of the other.  Self-loops record adjacency within one orbit."""
    keys: tuple
    sizes: tuple
    edges: frozenset

    @property
    def node_count(self) -> int:
        return len(self.keys)


def adjacency_graph(ledger: OrbitLedger) -> AdjacencyGraphUpToSymmetry:
    """Facet adjacency graph of a completed ledger, read off the facet walk,
    with nodes numbered in ledger order.

    A ledger from the walk holds the orbit pairs it crossed; any other
    ledger is walked once from its own orbits at the default levels (0, 1).
    Symmetry carries any adjacent pair onto a pair involving a
    representative, so every edge is seen, self-loops included.
    """
    keys = list(ledger.entries)
    node_of = {key: i + 1 for i, key in enumerate(keys)}
    pairs = ledger.edges
    if pairs is None:
        start = [e.orbit for e in ledger.entries.values()]
        pairs = _walk(_Geometry(VPolyhedron(ledger.vertices)).local, ledger.vertex_group,
                      start, (0, 1), 0)[1]
    edges = set()
    for a, b in pairs:
        if a not in node_of or b not in node_of:
            raise PolyhedronError("ledger is not complete: missing neighbor orbit")
        edges.add(tuple(sorted((node_of[a], node_of[b]))))
    sizes = tuple(ledger.entries[k].orbit.size for k in keys)
    return AdjacencyGraphUpToSymmetry(tuple(keys), sizes, frozenset(edges))


def shortest_path(graph: AdjacencyGraphUpToSymmetry, u: int, v: int) -> Optional[int]:
    """Breadth-first distance between two nodes; None when unreachable."""
    for node in (u, v):
        if not 1 <= node <= graph.node_count:
            raise ValueError(f"unknown node {node}")
    if u == v:
        return 0
    adj: dict[int, set] = {i: set() for i in range(1, graph.node_count + 1)}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    return None


def write_dot(graph: AdjacencyGraphUpToSymmetry) -> str:
    """Render the orbit graph as an undirected DOT document."""
    lines = ["graph {"]
    for i, size in enumerate(graph.sizes, start=1):
        lines.append(f'  o{i} [label="orbit {i} (size {size})"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  o{i} -- o{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
