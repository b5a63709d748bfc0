"""The record contract: every Record subclass of the package behaves as the
frozen dataclass of its own class body would, with a field named with a
leading underscore (SetOrbit._tree) hidden from equality, hash and repr.
Each record is compared with a twin that dataclasses.make_dataclass builds
on the same values, and a record rebuilt with changes is checked again by
its __post_init__."""
import dataclasses
import functools
import importlib
import pkgutil
from fractions import Fraction as F
from itertools import product

import pytest

import polyorbit
from polyorbit.cli import PolyFile, PolyFileError
from polyorbit.latcount import FiberOrbit, QuasiPolynomial, SliceDecomposition
from polyorbit.permgrp import PermutationGroup, SetOrbit
from polyorbit.polycore import (AffineHull, AffineMap, HPolyhedron, IncidenceData, LPResult,
                                PolyhedronError, VPolyhedron)
from polyorbit.record import Record
from polyorbit.repconv import AdjacencyGraphUpToSymmetry, FacetOrbit, OrbitLedger
from polyorbit.symilp import CorePoint, InvariantSubspace, LinearProgram

from shapes import replace


def _samples() -> dict:
    """A few records of every record class: equal ones built by different
    routes, and ones that differ in one field."""
    P = HPolyhedron.from_rows([(1, 0), (0, 1)], [1, 2])
    orbit = SetOrbit((1,), 2, frozenset({(1,), (2,)}), (("g",), {(1,): None}))
    G = PermutationGroup([], degree=2)
    return {
        PolyFile: [PolyFile("H", ((1, -1), (0, 1))),
                   PolyFile("H", ((1, -1), (0, 1)), (), None, None, 2),
                   PolyFile("H", ((1, -1), (0, 1)), (1,), ("maximize", (0, 1)), (1,)),
                   PolyFile("V", ((1, 0), (0, 1)), (2,))],
        HPolyhedron: [P, HPolyhedron.of_rows([(1, 0, 1), (0, 1, 2)]),
                      HPolyhedron(P.A, P.b, (1,)), HPolyhedron.from_rows([(1, 0)], [1])],
        VPolyhedron: [VPolyhedron.from_points([(0, 0), (1, 0)]),
                      VPolyhedron.of_points(1, [(0, 0), (1, 0)]),
                      VPolyhedron.from_points([(0, 0)], [(1, 0)])],
        AffineMap: [AffineMap(((1, 0), (0, 1)), (0, 0)), AffineMap(((0, 1), (1, 0)), (0, 0)),
                    AffineMap(((1, 0), (0, 1)), (0, 1))],
        LPResult: [LPResult("optimal", F(1), (F(1),)), LPResult("infeasible"),
                   LPResult("infeasible", None, None)],
        IncidenceData: [IncidenceData(2, 3, (1, 6)), IncidenceData(2, 3, (1, 5))],
        AffineHull: [AffineHull((0, 0), ((1, 0),)), AffineHull((0, 0), ())],
        # the hidden tree holds a dict: were it hashed, hash would raise
        SetOrbit: [orbit, SetOrbit((1,), 2, frozenset({(1,), (2,)})),
                   SetOrbit((1, 2), 1, frozenset({(1, 2)}), (("g",), {(1, 2): None}))],
        FacetOrbit: [FacetOrbit(orbit, (1, 0, 1)), FacetOrbit(orbit, (0, 1, 1))],
        # entries is a dict, so a ledger has no hash, as a dataclass's had none
        OrbitLedger: [OrbitLedger({(1,): "a"}, ((0, 0),), G),
                      OrbitLedger({(1,): "a"}, ((0, 0),), G, frozenset())],
        AdjacencyGraphUpToSymmetry: [AdjacencyGraphUpToSymmetry(((1,),), (2,), frozenset({(1, 1)})),
                                     AdjacencyGraphUpToSymmetry(((1,),), (2,), frozenset())],
        LinearProgram: [LinearProgram(P, (1, 0)), LinearProgram(P, (F(1), F(0))),
                        LinearProgram(P, (0, 1))],
        InvariantSubspace: [InvariantSubspace((frozenset({1, 2}),), 2),
                            InvariantSubspace((frozenset({1}), frozenset({2})), 2)],
        CorePoint: [CorePoint((0, 0), 1), CorePoint((1, 0), 2)],
        QuasiPolynomial: [QuasiPolynomial(1, ((1, 2),), 1), QuasiPolynomial(1, ((F(1), F(2)),), 1),
                          QuasiPolynomial(2, ((1, 1), (0, 1)), 1)],
        FiberOrbit: [FiberOrbit((1,), (F(1),), (0, 0), P), FiberOrbit((2,), (F(1),), (0, 0), P)],
        SliceDecomposition: [SliceDecomposition((2,), P, ((1, -1),), ()),
                             SliceDecomposition((1, 1), P, ((1, -1),), ())],
    }


SAMPLES = _samples()


def _record_classes() -> set:
    """Every subclass of Record that a module of the package defines."""
    for info in pkgutil.iter_modules(polyorbit.__path__):
        importlib.import_module(f"polyorbit.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return {cls for cls in found if cls.__module__.startswith("polyorbit.")}


@functools.cache
def _twin_class(cls):
    """The frozen dataclass of cls's class body: each annotated field in
    order, one with a leading underscore left out of equality, hash and
    repr."""
    spec = [(name, object, dataclasses.field(compare=False, repr=False))
            if name.startswith("_") else (name, object) for name in vars(cls)["__annotations__"]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _twin(record):
    """record as an instance of its class's twin, on the same values."""
    cls = type(record)
    return _twin_class(cls)(*(getattr(record, name) for name in vars(cls)["__annotations__"]))


def _outcome(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return "value", fn()
    except Exception as exc:
        return type(exc), str(exc)


def test_every_record_class_has_samples():
    assert _record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
class TestAgainstAFrozenDataclass:
    def test_equality_and_hash(self, cls):
        records = SAMPLES[cls]
        twins = list(map(_twin, records))
        for (a, ta), (b, tb) in product(zip(records, twins), repeat=2):
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
        for a, ta in zip(records, twins):
            assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
            # across classes, each side leaves the comparison to the other
            assert a.__eq__(ta) is NotImplemented and a != ta

    def test_repr(self, cls):
        for record in SAMPLES[cls]:
            assert repr(record) == repr(_twin(record))

    def test_assignment_and_deletion_are_refused(self, cls):
        record = SAMPLES[cls][0]
        twin = _twin(record)
        before = repr(record)
        for name in (*vars(cls)["__annotations__"], "other"):
            for act in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
                # the twin raises FrozenInstanceError, an AttributeError
                got, want = _outcome(lambda: act(record)), _outcome(lambda: act(twin))
                assert got[0] is AttributeError and issubclass(want[0], AttributeError)
                assert got[1] == want[1]
        assert repr(record) == before

    def test_constructor_reads_positions_keywords_and_defaults(self, cls):
        names = list(vars(cls)["__annotations__"])
        values = [getattr(SAMPLES[cls][0], name) for name in names]
        for record in SAMPLES[cls]:
            given = [getattr(record, name) for name in names]
            assert cls(*given) == cls(**dict(zip(names, given))) == record
            for name in names:
                if name in vars(cls):   # a default: left out, the class attribute fills it
                    kwargs = dict(zip(names, given))
                    del kwargs[name]
                    assert cls(**kwargs) == cls(**kwargs, **{name: vars(cls)[name]})
        refusals = [lambda: cls(), lambda: cls(*values, None),
                    lambda: cls(*values, **{names[0]: values[0]}),
                    lambda: cls(*values, unknown=1)]
        for make in refusals:
            with pytest.raises(TypeError):
                make()


def test_rebuilt_records_are_checked_again():
    P = HPolyhedron.from_rows([(1, 0), (0, 1)], [1, 2])
    assert replace(P) == P and replace(P).int_rows == P.int_rows
    with pytest.raises(PolyhedronError, match="ragged"):
        replace(P, A=((1, 0), (1,)))
    with pytest.raises(PolyhedronError, match="row count"):
        replace(P, b=(1,))
    pf = PolyFile("H", ((1, -1), (0, 1)))
    assert replace(pf, blocks=(1,)).blocks == (1,)
    with pytest.raises(PolyFileError, match="out of range"):
        replace(pf, linearity=(3,))
    with pytest.raises(ValueError, match="period"):
        replace(QuasiPolynomial(1, ((1, 2),), 1), period=0)
    with pytest.raises(PolyhedronError, match="objective length"):
        replace(LinearProgram(P, (1, 0)), c=(1, 0, 0))
    # the hidden field is a constructor field, so it is carried over
    orbit = SetOrbit((1,), 1, frozenset({(1,)}), ("tree",))
    assert replace(orbit, size=1)._tree == ("tree",)
