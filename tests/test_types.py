"""The package's record types: named tuples for the plain records, Frozen
classes for those that check their fields or keep one out of comparison,
and an import that loads neither dataclasses nor inspect."""

import itertools
import math
import os
import subprocess
import sys

import pytest

import frullani
from frullani.catalog import Constraint, get_entry
from frullani.engine import ApplicabilityReport, FrullaniProblem
from frullani.expr import BinOp, Call, Const, Neg, Var, parse
from frullani.limits import LimitVerdict
from frullani.quadrature import OscillatorySpec
from frullani.records import VerificationRecord
from frullani.series import SeriesParams


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # site may load modules of its own, so only what the import adds counts
    code = (
        "import sys; before = set(sys.modules); import frullani.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(frullani.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "frullani.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _verdict(evidence=()):
    return LimitVerdict.finite(1.0, 0.0, evidence)


# one instance of each record type, and a field of it
RECORDS = [
    (Const(1.0), "value"),
    (Var("x"), "name"),
    (Neg(Var("x")), "operand"),
    (BinOp("+", Var("x"), Const(1.0)), "op"),
    (Call("exp", Var("x")), "arg"),
    (VerificationRecord("R-3.4", {}, 0.0, 0.0, 0.0, 0.0, "PASS", 0.0), "status"),
    (_verdict(), "value"),
    (_verdict(), "evidence"),
    (FrullaniProblem(parse("exp(-x)"), 1.0, 2.0), "a"),
    (FrullaniProblem(parse("exp(-x)"), 1.0, 2.0), "kernel"),
    (ApplicabilityReport(_verdict(), _verdict(), True, ""), "applicable"),
    (SeriesParams(0.5, 1.0, 2.0, 3), "a"),
    (OscillatorySpec(1.0, math.pi), "start"),
    (Constraint("a is positive", lambda p: p["a"] > 0), "prose"),
    (get_entry("R-3.4"), "kernel"),
]


@pytest.mark.parametrize("record, name", RECORDS,
                         ids=[f"{type(r).__name__}.{name}" for r, name in RECORDS])
def test_fields_cannot_be_assigned_or_deleted(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


class TestTrees:
    KINDS = [
        [Const(1.0), Const(-0.5)],
        [Var("x"), Var("a")],
        [Neg(Var("x")), Neg(Const(1.0))],
        [BinOp("+", Var("x"), Const(1.0)), BinOp("*", Var("x"), Var("x"))],
        [Call("exp", Var("x")), Call("sin", Const(1.0))],
    ]

    def test_kinds_never_compare_equal(self):
        for one, other in itertools.combinations(self.KINDS, 2):
            for a, b in itertools.product(one, other):
                assert a != b and not a == b, (a, b)

    def test_equality_and_hash_are_structural(self):
        for text in ("exp(-x)", "x^2/(1 + x)", "sin(a*x) - 1.5"):
            one, other = parse(text), parse(text)
            assert one is not other
            assert one == other and hash(one) == hash(other)
        assert parse("x + 1") != parse("1 + x")

    def test_constructors_by_position_and_keyword(self):
        assert BinOp(op="-", left=Var("x"), right=Const(2.0)) == BinOp("-", Var("x"), Const(2.0))
        assert repr(Call("exp", Var("x"))) == "Call(func='exp', arg=Var(name='x'))"


class TestFrozen:
    def test_verdict_equality_hash_and_repr_ignore_evidence(self):
        plain, seen = _verdict(), _verdict(((1.0, 1.0), (0.5, 1.0)))
        assert plain == seen and hash(plain) == hash(seen)
        assert repr(plain) == repr(seen) == (
            "LimitVerdict(kind='finite', value=1.0, uncertainty=0.0, "
            "direction=None, amplitude=None)"
        )
        assert plain != LimitVerdict.finite(2.0, 0.0, seen.evidence)

    @pytest.mark.parametrize("make, args, kwargs", [
        (SeriesParams, (0.5, 1.0, 2.0, 3), {"a": 0.5, "p": 1.0, "q": 2.0, "K": 3}),
        (OscillatorySpec, (1.0, math.pi), {"start": 1.0, "half_period": math.pi}),
        (LimitVerdict, ("no-limit",), {"kind": "no-limit"}),
    ])
    def test_constructors_by_position_and_keyword(self, make, args, kwargs):
        by_position, by_keyword = make(*args), make(**kwargs)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)

    def test_problem_defaults_and_repr(self):
        prob = FrullaniProblem(f=parse("exp(-x)"), a=1.0, b=2.0)
        assert prob.power == 1.0
        assert repr(prob) == (
            "FrullaniProblem(f=Call(func='exp', arg=Neg(operand=Var(name='x'))), "
            "a=1.0, b=2.0, power=1.0)"
        )

    def test_types_with_equal_fields_differ(self):
        assert SeriesParams(0.5, 1.0, 2.0, 3) != OscillatorySpec(0.5, 1.0)
        assert SeriesParams(0.5, 1.0, 2.0, 3) != (0.5, 1.0, 2.0, 3)
