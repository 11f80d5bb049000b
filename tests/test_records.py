"""The record types keep the frozen-dataclass contract: each is compared
with a real frozen dataclass holding the same fields and values."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, make_dataclass
from pathlib import Path

import pytest

import germinv
from germinv._record import record
from germinv.corpus import CorpusGerm
from germinv.equising import CheckRecord, DiscriminationReport
from germinv.families import FamilyPiece, GermFamily, MuProfile, MuSample
from germinv.gaussian import GaussianRational
from germinv.localring import StandardBasisResult, standard_basis
from germinv.milnor import GermInvariants, MilnorResult
from germinv.monodromy import CharPoly, ResolutionData, SSequence, ZetaFunction
from germinv.poly import parse_poly
from germinv.vectorfields import VectorField


def P(text):
    return parse_poly(text, ("x", "y"))


INV_A, INV_B = GermInvariants(2, 3, 3, 4, True), GermInvariants(2, 2, 5, 4, False)
CHECK_A = CheckRecord("mu-mismatch", False, {"mu": [4, 4]})
CHECK_B = CheckRecord("window-gap", True, {"windows": [[2, 5], [6, 7]]})
PIECE_A, PIECE_B = FamilyPiece(P("x^3 + y^3"), 0), FamilyPiece(P("x*y"), 1)
SAMPLE_A = MuSample(GaussianRational(0), 4, "ok")
SAMPLE_B = MuSample(GaussianRational(1, 2), None, "not-isolated")

# two instances with different field values for each of the 15 record types
PAIRS = [
    (CorpusGerm("cusp", "x^2 + y^3", ("x", "y"), True, 2),
     CorpusGerm("a3", "x^2 + y^4", ("x", "y"), True)),
    (CHECK_A, CHECK_B),
    (DiscriminationReport("not-equisingular", (INV_A, INV_B), (CHECK_A,), ()),
     DiscriminationReport("undecided", (INV_A, INV_A), (CHECK_B,), ("caveat",))),
    (PIECE_A, PIECE_B),
    (GermFamily((PIECE_A,)), GermFamily((PIECE_A, PIECE_B))),
    (SAMPLE_A, SAMPLE_B),
    (MuProfile((SAMPLE_A,), 4, None), MuProfile((SAMPLE_A, SAMPLE_B), 4, 0)),
    (StandardBasisResult((), None, ()), standard_basis([P("x"), P("y^2")])),
    (MilnorResult(4, "standard-basis", ((2, 0), (0, 2))),
     MilnorResult(None, "truncated-oracle", None)),
    (INV_A, INV_B),
    (ResolutionData(((2, 1), (3, 1), (6, -1))), ResolutionData(((1, 2),))),
    (SSequence(((2, 2), (3, 3))), SSequence(((6, -6),))),
    (ZetaFunction(((1, -1),)), ZetaFunction(((2, 1), (6, -1)))),
    (CharPoly((1, -1, 1)), CharPoly((1, 0, 0, 1))),
    (VectorField((P("x^2"), P("y^3"))), VectorField((P("y"), P("x")))),
]
IDS = [type(a).__name__ for a, _ in PAIRS]


def names_of(cls):
    return tuple(cls.__annotations__)


def field_values(obj):
    return tuple(getattr(obj, name) for name in names_of(type(obj)))


def reference(obj):
    """A frozen dataclass of the same name, fields and values."""
    cls = type(obj)
    ref = make_dataclass(cls.__name__, names_of(cls), frozen=True)
    return ref(*field_values(obj))


def test_every_record_type_is_covered():
    assert len({type(a) for a, _ in PAIRS}) == 15
    assert all(type(a) is type(b) for a, b in PAIRS)


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_equality_by_field_values(a, b):
    cls = type(a)
    twin = cls(*field_values(a))
    assert a == twin and not a != twin
    assert a != b and not a == b
    assert a != field_values(a)  # never equal to a plain tuple


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_another_record_with_equal_values_is_not_equal(a, b):
    other = record(type("Other", (), {"__annotations__": dict(type(a).__annotations__)}))
    assert a != other(*field_values(a))
    assert other(*field_values(a)) != a


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_hash_and_repr_match_a_frozen_dataclass(a, b):
    for obj in (a, b):
        ref = reference(obj)
        assert repr(obj) == repr(ref)
        try:
            expected = hash(ref)
        except TypeError:  # a dict field: unhashable, as for the dataclass
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected == hash(field_values(obj))


def test_exact_repr_text():
    assert repr(MilnorResult(4, "standard-basis")) == (
        "MilnorResult(mu=4, method='standard-basis', leading_ideal_gens=None)")
    assert repr(CharPoly((1, -1, 1))) == "CharPoly(coeffs=(1, -1, 1))"
    assert repr(MuSample(GaussianRational(1, 2), 4, "ok")) == (
        "MuSample(t=GaussianRational(Fraction(1, 1), Fraction(2, 1)), mu=4, status='ok')")


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_assignment_and_deletion_raise(a, b):
    name = names_of(type(a))[0]
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
        a.extra = 1
    assert field_values(a) == field_values(reference(a))


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(a, b):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is type(a) and back == a
    back = copy.deepcopy(a)
    assert type(back) is type(a) and back == a
    assert copy.copy(a) == a


def test_defaults_and_arity():
    assert MilnorResult(4, "standard-basis") == MilnorResult(4, "standard-basis", None)
    assert MilnorResult(4, "m").leading_ideal_gens is None
    assert CorpusGerm("a", "x^2", ("x",), True).known_mu is None
    with pytest.raises(TypeError, match="takes the fields mu, method, leading_ideal_gens, the"):
        MilnorResult(4)
    with pytest.raises(TypeError, match="the last 1 optional; got 4 values"):
        MilnorResult(4, "m", None, "one too many")
    with pytest.raises(TypeError):  # fields are positional only
        MilnorResult(mu=4, method="m")


def test_post_init_normalises():
    assert ResolutionData(((6, -1), (2, 1), (3, 1))).strata == ((2, 1), (3, 1), (6, -1))
    assert SSequence(((1, 0), (2, 3), (4, 0))).entries == ((2, 3),)
    assert ZetaFunction(((1, 0), (3, -2))).factors == ((3, -2),)
    assert ResolutionData(((6, -1), (2, 1))) == ResolutionData(((2, 1), (6, -1)))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's .pth hooks from importing either module first
    src = str(Path(germinv.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import germinv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
