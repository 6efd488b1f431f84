"""The package's value classes against the ``@dataclass`` definitions they
replaced.

The classes are written out by hand, so that importing the package loads
neither ``dataclasses`` nor ``inspect``.  The declarations below are the
replaced ones, field for field and with the same decorator options (Word
keeps its own ``__repr__``, which the dataclass left in place).  Each
oracle instance holds the very field values of the package instance it is
checked against, so equal semantics mean equal results.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass, field, fields

import pytest

from freefactor import (
    DomainError,
    b_reduced_decomposition,
    build_boundary_pA,
    cyclic_reduce,
    factor_invariant,
    format_word,
    minimize_cyclic_length,
    run_experiment,
)
from freefactor import experiments, factors, orbit, trees, whitehead, words

from conftest import W


@dataclass(frozen=True, slots=True)
class Word:
    letters: tuple[int, ...]
    rank: int

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.rank})"


@dataclass(frozen=True, slots=True)
class CyclicDecomposition:
    conjugator: words.Word
    core: words.Word


@dataclass(frozen=True, slots=True)
class BReducedDecomposition:
    k: int
    core: words.Word
    b: words.Word


@dataclass(frozen=True)
class WhAutomorphism:
    kind: str
    rank: int
    multiplier: int | None = None
    zset: frozenset[int] | None = None
    images: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MinimizationCertificate:
    input: words.Word
    minimized: words.Word
    chain: tuple
    length_trace: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class FreeFactorVertex:
    generators: tuple
    rank_ambient: int


@dataclass(frozen=True)
class FactorInvariant:
    value: int
    witness: words.Word
    samples: int


@dataclass(frozen=True)
class AxisInterval:
    on_axis_of: words.Word
    lo_position: int
    hi_position: int


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    trials: list[dict] = field(default_factory=list)
    violations: int = 0
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundaryAutomorphism:
    x_image: words.Word
    y_image: words.Word
    inverse_x_image: words.Word
    inverse_y_image: words.Word


ORACLES = {
    words.Word: Word,
    words.CyclicDecomposition: CyclicDecomposition,
    words.BReducedDecomposition: BReducedDecomposition,
    whitehead.WhAutomorphism: WhAutomorphism,
    whitehead.MinimizationCertificate: MinimizationCertificate,
    factors.FreeFactorVertex: FreeFactorVertex,
    factors.FactorInvariant: FactorInvariant,
    trees.AxisInterval: AxisInterval,
    experiments.ExperimentReport: ExperimentReport,
    orbit.BoundaryAutomorphism: BoundaryAutomorphism,
}


def samples() -> dict:
    """Values of every converted class, some equal and some not."""
    b2, b3 = W("xyXY"), W("xxyyzz", 3)
    x3, y3 = W("x", 3), W("y", 3)
    Wh = whitehead.WhAutomorphism
    move = Wh.multiplier_move(1, {1, 2}, 2)
    cert = minimize_cyclic_length(W("xxyXYX"))
    report = run_experiment("boundary-length", rank=3)
    return {
        words.Word: [W("xyX"), W("xyX"), W("xyX", 3), W("1"), W("yxY")],
        words.CyclicDecomposition: [
            cyclic_reduce(W("xyX")), cyclic_reduce(W("xyX")), cyclic_reduce(W("xyX", 3)),
            cyclic_reduce(W("yxY")),
        ],
        words.BReducedDecomposition: [
            b_reduced_decomposition(W("xyXYxYXyx"), b2),
            b_reduced_decomposition(W("xyXYxYXyx"), b2),
            b_reduced_decomposition(W("x"), b2),
            b_reduced_decomposition(W("x"), W("yx")),
        ],
        whitehead.WhAutomorphism: [
            move, Wh.multiplier_move(1, [2, 1], 2), move.inverse(),
            Wh.permutation_move((2, -1), 2), Wh.identity(2), Wh.identity(3),
        ],
        whitehead.MinimizationCertificate: [
            cert,
            minimize_cyclic_length(W("xxyXYX")),
            # edges neither compares nor shows
            whitehead.MinimizationCertificate(
                cert.input, cert.minimized, cert.chain, cert.length_trace, ()
            ),
            minimize_cyclic_length(W("xyXY")),
        ],
        factors.FreeFactorVertex: [
            factors.FreeFactorVertex((x3, y3), 3), factors.FreeFactorVertex((x3, y3), 3),
            factors.FreeFactorVertex((y3, x3), 3), factors.FreeFactorVertex((W("x"),), 2),
        ],
        factors.FactorInvariant: [
            factor_invariant(factors.FreeFactorVertex((x3,), 3), b3),
            factors.FactorInvariant(0, x3, 0),
            factor_invariant(factors.FreeFactorVertex((W("xxyyzzx", 3),), 3), b3),
        ],
        trees.AxisInterval: [
            trees.AxisInterval(b2, 0, 4), trees.AxisInterval(b2, 0, 4),
            trees.AxisInterval(b2, 1, 4), trees.AxisInterval(W("xy"), 0, 4),
        ],
        experiments.ExperimentReport: [
            report,
            experiments.ExperimentReport(report.name, report.parameters, report.trials,
                                         report.violations, report.summary),
            experiments.ExperimentReport("boundary-length", {}),
            experiments.ExperimentReport("boundary-length", {}, [], 0, {}),
            experiments.ExperimentReport("boundary-length", {}, violations=1),
            # trials that are a sequence over the orbit grid's rows
            run_experiment("twist-stability", radius=2),
            run_experiment("twist-stability", radius=2),
            run_experiment("twist-stability", radius=3),
            run_experiment("quasiflat", radius=1),
        ],
        orbit.BoundaryAutomorphism: [
            build_boundary_pA(),
            build_boundary_pA(),
            # psi^-1, with psi as its inverse
            orbit.BoundaryAutomorphism(W("xxY"), W("yX"), W("xy"), W("yxy")),
        ],
    }


SAMPLES = samples()


def oracle_of(value):
    """The oracle instance holding value's own field values."""
    cls = ORACLES[type(value)]
    return cls(**{f.name: getattr(value, f.name) for f in fields(cls)})


def outcome(fn, *args):
    """fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


CLASSES = list(ORACLES)
IDS = [cls.__name__ for cls in CLASSES]


def test_every_sample_class_is_a_converted_one():
    assert set(SAMPLES) == set(ORACLES)
    assert all(type(v) is cls for cls, values in SAMPLES.items() for v in values)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestAgainstDataclass:
    def test_eq(self, cls):
        values = SAMPLES[cls]
        oracles = list(map(oracle_of, values))
        for v, o in zip(values, oracles):
            for v2, o2 in zip(values, oracles):
                assert (v == v2) is (o == o2)
                assert (v != v2) is (o != o2)
            assert v.__eq__(o) is o.__eq__(v) is NotImplemented
            assert (v == 0) is (o == 0) is False

    def test_hash(self, cls):
        for v in SAMPLES[cls]:
            assert outcome(hash, v) == outcome(hash, oracle_of(v))

    def test_repr(self, cls):
        for v in SAMPLES[cls]:
            assert repr(v) == repr(oracle_of(v))

    def test_refused_assignment(self, cls):
        v = copy.deepcopy(SAMPLES[cls][0])
        o = oracle_of(v)
        for f in fields(o):
            assign = outcome(setattr, v, f.name, 1)
            if outcome(setattr, o, f.name, 1) is FrozenInstanceError:
                # FrozenInstanceError is an AttributeError
                assert assign is AttributeError
                assert outcome(delattr, v, f.name) is AttributeError
            else:
                assert assign is None and getattr(v, f.name) == getattr(o, f.name) == 1
        # a name that is no field: a frozen class refuses it too (the slotted
        # oracles fail with TypeError there, from Python 3.11's super() call
        # in a class that slots=True rebuilt)
        frozen = cls is not experiments.ExperimentReport
        assert outcome(setattr, v, "no_such_field", 1) is (AttributeError if frozen else None)

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_roundtrip(self, cls, roundtrip):
        for v in SAMPLES[cls]:
            o = oracle_of(v)
            back, oracle_back = roundtrip(v), roundtrip(o)
            assert type(back) is cls and type(oracle_back) is type(o)
            assert (back == v) is (oracle_back == o) is True
            assert repr(back) == repr(oracle_back)
            for f in fields(o):
                assert getattr(back, f.name) == getattr(oracle_back, f.name)


def test_default_lists_are_not_shared():
    a = experiments.ExperimentReport("a", {})
    b = experiments.ExperimentReport("b", {})
    a.trials.append({"x": 1})
    a.summary["x"] = 1
    assert b.trials == [] and b.summary == {}


def test_validators_still_run():
    # __init__ calls __post_init__, where the tracer counts word checks
    with pytest.raises(DomainError):
        words.Word((1, -1), 2)
    with pytest.raises(DomainError):
        whitehead.WhAutomorphism.multiplier_move(1, {2}, 2)
    with pytest.raises(DomainError):
        factors.FreeFactorVertex((), 2)
    with pytest.raises(DomainError):
        trees.AxisInterval(W("xy"), 2, 1)
    with pytest.raises(DomainError):
        orbit.BoundaryAutomorphism(W("y"), W("x"), W("y"), W("x"))
    for cls in (words.Word, whitehead.WhAutomorphism, factors.FreeFactorVertex,
                trees.AxisInterval, orbit.BoundaryAutomorphism):
        assert "__post_init__" in vars(cls)


def test_certificate_cut_vertex_after_a_copy():
    cert = minimize_cyclic_length(W("xxyzXYZ", 3))
    for back in (copy.copy(cert), copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert back.edges == cert.edges and back.cut_vertex == cert.cut_vertex


@pytest.mark.parametrize(
    "cls",
    [words.CyclicDecomposition, words.BReducedDecomposition, factors.FactorInvariant,
     trees.AxisInterval, orbit.BoundaryAutomorphism],
    ids=lambda cls: cls.__name__,
)
def test_shared_initializer_counts_arguments(cls):
    # _Frozen's positional __init__ refuses too few or too many values with
    # TypeError, as the dataclass's did
    args = [getattr(SAMPLES[cls][0], name) for name in cls._fields]
    assert cls(*args) == SAMPLES[cls][0]
    for wrong in (args[:-1], args + [None]):
        assert outcome(cls, *wrong) is TypeError
        assert outcome(ORACLES[cls], *wrong) is TypeError
