"""Value semantics of the library's record classes: equality, hash and repr."""

from fractions import Fraction as F

import pytest

from pointideal.bm import GroebnerResult, PointSet, RunStats
from pointideal.deltamerge import DeltaList
from pointideal.fields import PrimeField, QQ, RationalField
from pointideal.orders import OrderSpec
from pointideal.poly import Polynomial
from pointideal.projection import EssentialSet

# name: (make, its fields as a plain tuple, an unequal value of the class,
#        hashable, repr or None where the class once had no repr of its own,
#        attributes that take no part in equality, hash or repr)
CASES = {
    "PointSet": (
        lambda: PointSet(QQ, 2, [[F(1), F(-1, 2)], [3, 4]]),
        (QQ, 2, ((F(1), F(-1, 2)), (3, 4))),
        PointSet(QQ, 2, [[F(1), F(-1, 2)]]),
        True,
        "PointSet(field=QQ, n=2, points=((Fraction(1, 1), Fraction(-1, 2)), (3, 4)))",
        (),
    ),
    "OrderSpec": (
        lambda: OrderSpec(2, "deglex", (2, 1)),
        (2, "deglex", (2, 1), ((1, 1), (0, 1))),
        OrderSpec(2, "deglex"),
        True,
        "OrderSpec(n=2, kind='deglex', perm=(2, 1), matrix=((1, 1), (0, 1)))",
        ("columns",),
    ),
    "Polynomial": (
        lambda: Polynomial([(F(1), (1, 0)), (F(-3, 2), (0, 0))]),
        (((F(1), (1, 0)), (F(-3, 2), (0, 0))),),
        Polynomial([(F(1), (1, 0))]),
        True,
        "1*x^[1, 0] + -3/2*x^[0, 0]",
        (),
    ),
    "Polynomial-zero": (lambda: Polynomial(()), ((),), Polynomial([(1, (0,))]), True, "0", ()),
    "PrimeField": (lambda: PrimeField(7), (7,), PrimeField(5), True, "GF(7)", ()),
    "RationalField": (lambda: RationalField(), (), PrimeField(7), True, "QQ", ()),
    "RunStats": (
        lambda: RunStats(field_ops=5, n_essential=2, wall_time=0.25),
        (0, 0, 5, 0, 0, 2, 0.25),
        RunStats(field_ops=5, n_essential=2),
        False,
        "RunStats(element_cmps=0, delta_cmps=0, field_ops=5, functional_calls=0, "
        "L_max=0, n_essential=2, wall_time=0.25)",
        (),
    ),
    "GroebnerResult": (
        lambda: GroebnerResult([], [(0, 0)], RunStats(), None, QQ),
        ([], [(0, 0)], None, QQ),
        GroebnerResult([], [(0, 0)], RunStats(), None, PrimeField(7)),
        False,
        None,
        ("stats",),
    ),
    "EssentialSet": (
        lambda: EssentialSet((2, 1), {3: (F(1), {1: F(2)})}),
        ((2, 1), {3: (F(1), {1: F(2)})}),
        EssentialSet((2, 1), {}),
        False,
        "EssentialSet(ess=(2, 1), relations={3: (Fraction(1, 1), {1: Fraction(2, 1)})})",
        (),
    ),
    "DeltaList": (
        lambda: DeltaList(2, [(1, 2), (1, 3)], [2], 5, 6),
        (2, [(1, 2), (1, 3)], [2], 5, 6),
        DeltaList(2, [(1, 2)], []),
        False,
        None,
        ("element_cmps", "delta_cmps"),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_record_semantics(name):
    make, fields, other, hashable, text, excluded = CASES[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert a != other and other != a
    # a value never equals the plain tuple of its fields
    assert a != fields and fields != a and a != tuple(fields[:1])
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    if text is not None:
        assert repr(a) == text
    for attr in excluded:
        setattr(b, attr, ())
        assert a == b and attr not in repr(a)
        if hashable:
            assert hash(a) == hash(b)


def test_record_repr_of_result_and_delta_list():
    # both printed as ``<... object at 0x...>`` before they were records
    res = GroebnerResult([Polynomial([(1, (1,))])], [(0,)], RunStats(L_max=3), None, PrimeField(7))
    assert repr(res) == "GroebnerResult(G=[1*x^[1]], B=[(0,)], spec=None, field=GF(7))"
    assert repr(DeltaList(2, [(1, 2), (1, 3)], [2], 5, 6)) == (
        "DeltaList(arity=2, items=[(1, 2), (1, 3)], deltas=[2])"
    )
