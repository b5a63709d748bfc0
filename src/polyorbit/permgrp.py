"""Permutation groups on {1,...,N}: BSGS, orbits and stabilizers of sets.

All points are 1-based, matching the index convention used for vertices and
inequality rows everywhere else in the package.  A permutation stores its
images behind a fixed 0, ``_p = (0,) + images``, so ``p(x)`` is ``_p[x]``
and a product is one C-level ``tuple(map(...))`` over the other factor.
Products, inverses and identities skip the validation of the public
constructors, since a product of permutations is a permutation.

Groups are stored as a base and strong generating set (stabilizer chain)
built by a deterministic Schreier-Sims procedure, so identical generator
lists always produce identical chains, transversals, and search orders.  Each
level of the chain keeps the inverse of a transversal element on its first
read by a sift or a Schreier generator, so no element is inverted twice and
none that is never read is inverted at all, and the set of (orbit point,
generator) pairs whose Schreier generator it has already sifted: transversal
entries are never replaced and generator lists only grow, so a Schreier
generator that sifted once sifts to the identity for the rest of the
construction and is skipped.

A caller that knows the order of the group passes it, and the chain stops
there.  Each basic orbit of a chain lies in the orbit of its base point under
the true stabilizer, so the product of the basic orbits' sizes is at most
|G|, and it equals |G| only when every level holds its whole stabilizer: the
chain is then complete, whether or not every Schreier generator was sifted.
The generators are sifted in without closure, which suffices when they are a
strong generating set on the base (the automorphism search delivers one), and
the closure runs only when they fall short, stopping as soon as the order is
reached.  A chain that closes below the given order, or grows past it, raises.

An index set is the ascending tuple of its points.  A set orbit is expanded
once, in full, under a budget of sets (past it OrbitBudgetExceeded: a key
that is not canonical could let one orbit be counted twice), each member the
sorted image of its parent, keyed by its least member, and its set
stabilizer is read off the expansion's Schreier tree.  That stabilizer has
the known order |G| / |orbit|, so its chain is grown one Schreier generator
at a time and stops at that order: a set whose orbit has |G| sets gets the
trivial group at once, and no generator is kept that does not grow it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union


class OrbitBudgetExceeded(Exception):
    """An orbit expansion grew past the caller's element budget."""


def _inverse(p: tuple) -> tuple:
    """Inverse of a padded image tuple: position j holds the i with p[i] = j."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


class Permutation:
    """A permutation of {1,...,degree}; immutable and hashable.

    images[i-1] is the image of i.  Composition is function composition:
    (p * q)(x) = p(q(x)).
    """

    __slots__ = ("_p",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a permutation of 1..n")
        self._p = (0,) + images

    @classmethod
    def _trusted(cls, p: tuple) -> "Permutation":
        """Wrap a padded image tuple known to be a permutation, unchecked."""
        perm = object.__new__(cls)
        perm._p = p
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._trusted(tuple(range(degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        for cyc in cycles:
            if not all(1 <= a <= degree for a in cyc):
                raise ValueError(f"cycle {tuple(cyc)} not within 1..{degree}")
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                images[a - 1] = b
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._p[1:]

    @property
    def degree(self) -> int:
        return len(self._p) - 1

    def __call__(self, point: int) -> int:
        if not 0 < point < len(self._p):
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self._p[point]

    def apply_set(self, points: Iterable[int]) -> frozenset:
        points = frozenset(points)
        if points and not (0 < min(points) and max(points) < len(self._p)):
            raise ValueError(f"set {sorted(points)} not within 1..{self.degree}")
        return frozenset(map(self._p.__getitem__, points))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self._p) != len(other._p):
            raise ValueError(f"degrees {self.degree} and {other.degree} differ")
        return Permutation._trusted(tuple(map(self._p.__getitem__, other._p)))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse(self._p))

    def is_identity(self) -> bool:
        return self._p == tuple(range(len(self._p)))

    def cycles(self) -> list[tuple[int, ...]]:
        p = self._p
        seen = set()
        out = []
        for start in range(1, len(p)):
            if start in seen or p[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = p[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = p[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._p == other._p

    def __hash__(self) -> int:
        return hash(self._p)

    def __lt__(self, other: "Permutation") -> bool:
        # the common leading 0 leaves the order of the image tuples unchanged
        return self._p < other._p

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


@dataclass
class _ChainLevel:
    base_point: int
    gens: list          # strong generators fixing all earlier base points
    orbit: dict         # point -> transversal element u with u(base_point) = point
    inv: dict           # point -> padded image tuple of orbit[point]^-1, once read
    checked: set = field(default_factory=set)   # (point, index into gens) already sifted

    def inverse(self, point: int) -> tuple:
        """orbit[point]^-1 as a padded image tuple, stored on first read."""
        ui = self.inv.get(point)
        if ui is None:
            ui = self.inv[point] = _inverse(self.orbit[point]._p)
        return ui


class PermutationGroup:
    """Group generated by permutations, with a stabilizer chain (BSGS).

    base_prefix forces the base to start with the given points (in order);
    a forced point may end up with a trivial basic orbit, which is harmless.
    Everything below level len(prefix) fixes each prefix point individually,
    as a search for the lex-least image of a set needs.  order, when given,
    must be the order of the group; the chain stops when it reaches it.
    """

    def __init__(self, generators: Sequence[Permutation], degree: Optional[int] = None,
                 base_prefix: Sequence[int] = (), order: Optional[int] = None):
        gens = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not gens:
                raise ValueError("degree required for the trivial group")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("mixed degrees")
        self.degree = degree
        self.generators = tuple(gens)
        self._identity = tuple(range(degree + 1))
        prefix = []
        for p in base_prefix:
            if not 1 <= p <= degree:
                raise ValueError(f"base point {p} out of range")
            if p not in prefix:
                prefix.append(p)
        self._levels: list[_ChainLevel] = []
        for p in prefix:
            self._new_level(p)
        self._known = order
        for g in gens:
            self._add_generator(g._p, 0, close=order is None)
        if order is not None and not self._complete():
            self._close(0, len(self._levels) - 1)
            if self.order() != order:
                raise ValueError(f"group has order {self.order()}, not {order}")

    # -- chain construction (deterministic Schreier-Sims) ------------------

    def _complete(self) -> bool:
        """Whether the chain has reached the known order; raises past it."""
        if self._known is None:
            return False
        n = self.order()
        if n > self._known:
            raise ValueError(f"group order exceeds {self._known}")
        return n == self._known

    def _new_level(self, point: int) -> _ChainLevel:
        e = self._identity
        lvl = _ChainLevel(point, [], {point: Permutation._trusted(e)}, {point: e})
        self._levels.append(lvl)
        return lvl

    def _recompute_orbit(self, idx: int) -> None:
        """Close level idx's orbit after a generator is appended to its gens:
        only the newest can reach a new point from the known ones, and every
        generator runs on the points that adds, round by round in sorted order."""
        lvl = self._levels[idx]
        orbit = lvl.orbit
        frontier, gens = sorted(orbit), lvl.gens[-1:]
        while frontier:
            new_frontier = []
            for p in frontier:
                u = orbit[p]._p
                for g in gens:
                    q = g._p[p]
                    if q not in orbit:
                        orbit[q] = Permutation._trusted(tuple(map(g._p.__getitem__, u)))
                        new_frontier.append(q)
            frontier, gens = sorted(new_frontier), lvl.gens

    def _strip(self, h: tuple, start: int) -> tuple[tuple, int]:
        """Sift the padded image tuple h from level start; (residue, level)."""
        levels = self._levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            img = h[lvl.base_point]
            if img == lvl.base_point:
                continue
            if img not in lvl.orbit:
                return h, i
            h = tuple(map(lvl.inverse(img).__getitem__, h))
        return h, len(levels)

    def _grow(self, g: tuple) -> bool:
        """Add g to the generators unless it is already a member; whether it
        was added."""
        if not self._add_generator(g, 0):
            return False
        self.generators += (Permutation._trusted(g),)
        return True

    def _add_generator(self, g: tuple, level: int, close: bool = True) -> bool:
        """Sift g (a member of level's group) and grow the chain if it
        sticks, then re-close the touched levels unless close is false;
        whether it grew."""
        h, idx = self._strip(g, level)
        if h == self._identity:
            return False
        if idx == len(self._levels):
            # h fixes every existing base point; open a new level on the
            # smallest point it moves.
            self._new_level(next(p for p in range(1, self.degree + 1) if h[p] != p))
        # h fixes base points of all levels < idx, so it is a member of every
        # level group from `level` through idx; record it at each so each
        # level's basic orbit can be computed from that level's own list.
        perm = Permutation._trusted(h)
        for i in range(level, idx + 1):
            self._levels[i].gens.append(perm)
            self._recompute_orbit(i)
        if close:
            self._close(level, idx)
        return True

    def _close(self, level: int, idx: int) -> None:
        """Re-close levels idx down to level: every Schreier generator must
        sift to the identity through the deeper chain.  A pair sifted before
        is skipped: its transversal elements and generator are unchanged and
        the deeper chain has only grown, so it would sift to the identity.
        Stops as soon as the chain reaches a known order."""
        for i in range(idx, level - 1, -1):
            lvl = self._levels[i]
            orbit, checked = lvl.orbit, lvl.checked
            for p in sorted(orbit):
                u = orbit[p]._p
                for j, s in enumerate(lvl.gens):
                    if (p, j) in checked:
                        continue
                    checked.add((p, j))
                    sp = s._p
                    schreier = tuple(map(lvl.inverse(sp[p]).__getitem__, map(sp.__getitem__, u)))
                    if schreier != self._identity and self._add_generator(schreier, i + 1) \
                            and self._complete():
                        return

    # -- queries ------------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.base_point for lvl in self._levels)

    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= len(lvl.orbit)
        return n

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        h, _ = self._strip(g._p, 0)
        return h == self._identity

    def elements(self, budget: int = 1_000_000):
        """Iterate all elements (deterministic order); raises if order > budget."""
        if self.order() > budget:
            raise OrbitBudgetExceeded(f"group order {self.order()} exceeds budget {budget}")

        # each element decomposes uniquely as u_0 * u_1 * ... with u_i from
        # level i's transversal, u_0 outermost
        def rec(i: int, acc: tuple):
            if i == len(self._levels):
                yield Permutation._trusted(acc)
                return
            lvl = self._levels[i]
            for p in sorted(lvl.orbit):
                yield from rec(i + 1, tuple(map(acc.__getitem__, lvl.orbit[p]._p)))

        yield from rec(0, self._identity)

    def orbit_of_point(self, point: int) -> frozenset:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        orb = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = g._p[p]
                    if q not in orb:
                        orb.add(q)
                        nxt.append(q)
            frontier = nxt
        return frozenset(orb)

    def point_orbits(self) -> list[frozenset]:
        seen = set()
        out = []
        for p in range(1, self.degree + 1):
            if p not in seen:
                orb = self.orbit_of_point(p)
                seen |= orb
                out.append(orb)
        return out

    def rebase(self, base_prefix: Sequence[int]) -> "PermutationGroup":
        """Same group, chain rebuilt with the base forced to start as given."""
        return PermutationGroup(self.generators, self.degree, base_prefix=base_prefix,
                                order=self.order())


def schreier_sims(generators: Sequence[Permutation], degree: Optional[int] = None,
                  base_prefix: Sequence[int] = ()) -> PermutationGroup:
    """Build a PermutationGroup (BSGS) from a generator list."""
    return PermutationGroup(generators, degree, base_prefix=base_prefix)


# ---------------------------------------------------------------------------
# Orbits of index sets


@dataclass(frozen=True)
class SetOrbit:
    """A fully expanded set orbit: its key, the least of its members, its
    size, its members as a frozenset of ascending tuples, and the
    expansion's Schreier tree: the generators it ran under and each
    member's (parent, generator index) in breadth-first order, None at the
    root."""
    representative: tuple[int, ...]
    size: int
    elements: frozenset
    _tree: tuple = field(default=(), compare=False, repr=False)

    @property
    def expanded(self) -> bool:
        """Always true: no orbit is kept unexpanded."""
        return True


def orbit_of_set(G: PermutationGroup, S: Iterable[int], budget: int = 2_000_000) -> SetOrbit:
    """Orbit of an index set under G, expanded breadth-first, each member an
    ascending tuple; the representative is its least member, so two sets
    are in one orbit exactly when their representatives agree.  Raises
    OrbitBudgetExceeded when the orbit has more than budget sets.
    """
    S = tuple(sorted(set(S)))
    if S and not (1 <= S[0] and S[-1] <= G.degree):
        raise ValueError(f"set {list(S)} not within 1..{G.degree}")
    maps = [g._p.__getitem__ for g in G.generators]
    tree = {S: None}
    frontier = [S]
    while frontier:
        nxt = []
        for X in frontier:
            for i, g in enumerate(maps):
                Y = tuple(sorted(map(g, X)))
                if Y not in tree:
                    if len(tree) >= budget:
                        raise OrbitBudgetExceeded(f"set orbit exceeded budget {budget}")
                    tree[Y] = (X, i)
                    nxt.append(Y)
        frontier = nxt
    return SetOrbit(min(tree), len(tree), frozenset(tree), (G.generators, tree))


def set_stabilizer(G: PermutationGroup, S: Union[SetOrbit, Iterable[int]],
                   budget: int = 2_000_000) -> PermutationGroup:
    """The subgroup {g in G : g(S) = S}, with its own BSGS.

    S is an index set, whose orbit is expanded once by orbit_of_set (raises
    OrbitBudgetExceeded past budget), or a SetOrbit of G, whose
    representative's stabilizer is read off its Schreier tree with nothing
    expanded again (an orbit expanded under other generators raises
    ValueError).  With u_X carrying the tree's root to X, the Schreier
    generators u_aX^-1 a u_X fix the root, and conjugated by u_T they fix
    the set T asked for.  They are sifted in breadth-first order into a
    chain that starts trivial and knows the order |G| / |orbit|; only those
    that grow it are kept, so each at least doubles it, and the search stops
    at that order.
    """
    orb = S if isinstance(S, SetOrbit) else orbit_of_set(G, S, budget)
    gens, tree = orb._tree or (None, None)
    if gens != G.generators:
        raise ValueError("set orbit was expanded under other generators")
    target = G.order() // orb.size
    stab = PermutationGroup((), G.degree)
    if target == 1:
        return stab
    stab._known = target
    ps = [g._p for g in G.generators]
    witness = {next(iter(tree)): G._identity}

    def u(X: tuple) -> tuple:
        path = []
        while X not in witness:
            path.append(X)
            X = tree[X][0]
        w = witness[X]
        for Y in reversed(path):
            w = witness[Y] = tuple(map(ps[tree[Y][1]].__getitem__, w))
        return w

    # u_T: an index set is the root itself, and a SetOrbit asks for its
    # representative
    c = u(orb.representative) if orb is S else G._identity
    c_inv = _inverse(c)
    for X in tree:
        uX = u(X)
        for ap in ps:
            au = tuple(map(ap.__getitem__, uX))
            v = u(tuple(sorted(map(ap.__getitem__, X))))
            # a tree edge gives the identity
            if au != v:
                h = tuple(map(_inverse(v).__getitem__, au))
                if stab._grow(tuple(map(c.__getitem__, map(h.__getitem__, c_inv)))) \
                        and stab.order() == target:
                    return stab
    return stab
