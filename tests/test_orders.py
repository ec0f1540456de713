"""Term orders: order vectors, the children of a monomial, comparison, restriction."""

import random
from operator import add

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pointideal._oracles import random_matrix_order, random_monomial
from pointideal.deltamerge import compare_from
from pointideal.fileio import parse_order
from pointideal.orders import (
    NonAdmissibleColumn,
    OrderError,
    OrderSpec,
    SingularMatrix,
    children,
    deglex,
    degrevlex,
    lex,
    matrix_order,
    monomial_mul_var,
    order_vector,
    restrict,
    standard_matrix,
    varord,
)

monomials3 = st.lists(st.integers(0, 10), min_size=3, max_size=3).map(tuple)


def sign_of(spec, a, b):
    u, v = order_vector(spec, a), order_vector(spec, b)
    _d, s, _c = compare_from(u, v, 1, len(u))
    return s


# ---------------------------------------------------------------------------
# order vectors

def test_order_vector_closed_forms():
    assert order_vector(degrevlex(3), (1, 0, 2)) == (3, -2, 0)
    assert order_vector(lex(3), (1, 0, 2)) == (1, 0, 2)
    assert order_vector(deglex(3), (1, 0, 2)) == (3, 1, 0)
    assert order_vector(lex(3), (0, 0, 0)) == (0, 0, 0)
    A = matrix_order(standard_matrix("deglex", 3))
    assert order_vector(A, (1, 1, 0)) == (2, 1, 1)


def test_order_vector_with_permutation():
    spec = lex(3, (3, 1, 2))
    assert order_vector(spec, (1, 2, 5)) == (5, 1, 2)
    spec = degrevlex(3, (2, 3, 1))
    # entries: (deg, -a_{i_3}, -a_{i_2}) = (deg, -a_1, -a_3)
    assert order_vector(spec, (1, 0, 2)) == (3, -1, -2)
    spec = deglex(4, (3, 1, 4, 2))
    # entries: (deg, a_{i_1}, a_{i_2}, a_{i_3}) = (deg, a_3, a_1, a_4)
    assert order_vector(spec, (1, 2, 3, 4)) == (10, 3, 1, 4)
    variables, _deltas, _cost, make = children(spec)
    kids = dict(zip(variables, make((10, 3, 1, 4))))
    assert kids[2] == (11, 3, 1, 4) and kids[3] == (11, 4, 1, 4)


def test_permuted_standard_matrices():
    assert lex(3, (3, 1, 2)).matrix == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert deglex(3, (2, 3, 1)).matrix == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
    assert degrevlex(3, (2, 3, 1)).matrix == ((1, 1, 1), (-1, 0, 0), (0, 0, -1))


def test_children_examples():
    assert children(lex(3))[:3] == ((3, 2, 1), [2, 1], 3)
    assert children(lex(3))[3]((1, 0, 2)) == [(1, 0, 3), (1, 1, 2), (2, 0, 2)]
    A = matrix_order(standard_matrix("degrevlex", 3))
    assert children(A)[:3] == ((3, 2, 1), [2, 3], 5)
    assert children(A)[3]((3, -2, 0)) == [(4, -3, 0), (4, -2, -1), (4, -2, 0)]


@pytest.mark.parametrize("kind", ["lex", "deglex", "degrevlex", "matrix"])
def test_children_are_the_order_vectors_of_x_i_t(kind):
    # under random permutations and matrices, the children of a random t are
    # the order vectors of x_i*t, ascending; their deltas and the entries
    # compare_from reads to find them are those children() gives once
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(1, 6)
        perm = rng.sample(range(1, n + 1), n)
        spec = random_matrix_order(rng, n) if kind == "matrix" else OrderSpec(n, kind, perm)
        variables, deltas, cost, make = children(spec)
        assert sorted(variables) == list(range(1, n + 1))
        for _ in range(20):
            t = random_monomial(rng, n, max_deg=12)
            kids = make(order_vector(spec, t))
            assert kids == [order_vector(spec, monomial_mul_var(t, i)) for i in variables]
            got = [compare_from(u, w, 1, n) for u, w in zip(kids, kids[1:])]
            assert [d for d, _s, _c in got] == deltas
            assert sum(c for _d, _s, c in got) == cost
            assert all(s < 0 for _d, s, _c in got)


@settings(max_examples=200)
@given(m=monomials3)
def test_step_composes_to_order_vector(m):
    for spec in (
        lex(3, (2, 3, 1)),
        deglex(3),
        degrevlex(3, (3, 1, 2)),
        matrix_order([[1, 2, 0], [0, 1, 1], [1, 0, 0]]),
    ):
        variables, _deltas, _cost, make = children(spec)
        ov = order_vector(spec, (0, 0, 0))
        for i in (1, 2, 3):
            for _ in range(m[i - 1]):
                ov = dict(zip(variables, make(ov)))[i]
        assert ov == order_vector(spec, m)


@settings(max_examples=150)
@given(a=monomials3, b=monomials3, c=monomials3)
def test_multiplicative_compatibility(a, b, c):
    for spec in (lex(3), deglex(3), degrevlex(3), matrix_order([[2, 1, 1], [0, 1, 0], [0, 0, 1]])):
        ac, bc = (tuple(map(add, x, c)) for x in (a, b))
        assert sign_of(spec, a, b) == sign_of(spec, ac, bc)


@given(a=monomials3)
def test_unit_is_minimal(a):
    for spec in (lex(3), deglex(3), degrevlex(3)):
        s = sign_of(spec, (0, 0, 0), a)
        assert s == (0 if a == (0, 0, 0) else -1)


def test_compare_examples():
    d, s, _ = compare_from((1, 0, 2, 2, 0), (1, 0, 3, 0, 0), 1, 5)
    assert (s, d) == (-1, 3)
    d, s, _ = compare_from((2, 1, 0, 1, 1), (2, 1, 0, 0, 1), 1, 5)
    assert (s, d) == (1, 4)
    d, s, c = compare_from((1, 2, 3), (1, 2, 3), 1, 3)
    assert (s, d, c) == (0, 4, 3)


# ---------------------------------------------------------------------------
# validation and parsing

def test_validate_matrix_orders():
    matrix_order(standard_matrix("degrevlex", 3))
    matrix_order([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # identity = lex
    with pytest.raises(SingularMatrix):
        matrix_order([[1, 1, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrix):
        matrix_order([[0, 0], [0, 0]])
    with pytest.raises(NonAdmissibleColumn):
        matrix_order([[1, 0], [0, -1]])
    with pytest.raises(OrderError):
        lex(3, (1, 1, 2))


def test_order_spec_checked_when_built():
    with pytest.raises(OrderError):
        OrderSpec(3, "lex", (1, 1, 2))
    with pytest.raises(NonAdmissibleColumn):
        OrderSpec(2, "matrix", matrix=((1, 0), (0, -1)))
    # n = 0, the empty ring, is a spec
    assert str(OrderSpec(0, "lex")) == "lex:" and str(OrderSpec(0, "matrix", matrix=())) == "matrix:"


@pytest.mark.parametrize("kind, entries, named", [
    # a float that equals an int would compare equal to (2, 1) and print as lex:2.0,1.0
    ("lex", (2.0, 1.0), r"perm entry 1 is 2\.0, not an int"),
    ("degrevlex", (2, True), r"perm entry 2 is True, not an int"),
    ("deglex", ("1", "2"), r"perm entry 1 is '1', not an int"),
    # int() would read 1.9 as 1 and an Arabic-Indic one as 1
    ("matrix", ((1, 0), (0, 1.9)), r"matrix row 2, entry 2 is 1\.9, not an int"),
    ("matrix", (("١", 0), (0, 1)), r"matrix row 1, entry 1 is '١', not an int"),
    ("matrix", ((1, 0), (False, 1)), r"matrix row 2, entry 1 is False, not an int"),
    # n itself: True once printed lex:1, 2.0 leaked a TypeError and -1 printed lex:
    ("n", True, r"n is True, not a non-negative int"),
    ("n", 2.0, r"n is 2\.0, not a non-negative int"),
    ("n", -1, r"n is -1, not a non-negative int"),
])
def test_order_spec_takes_only_int_entries(kind, entries, named):
    # each case is a valid spec once its entries are the ints they stand for;
    # an "n" case is the n of a lex order
    if kind == "n":
        args = {"n": entries, "kind": "lex"}
    else:
        args = {"n": 2, "kind": kind, "matrix" if kind == "matrix" else "perm": entries}
    with pytest.raises(OrderError, match=named):
        OrderSpec(**args)


def test_order_spec_is_a_value():
    a, b = lex(3), OrderSpec(3, "lex", (1, 2, 3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # columns, derived from the matrix, take no part in equality or hash
    b.columns = ()
    assert a == b and hash(a) == hash(b)
    assert "columns" not in repr(a)
    # the same matrix under another kind is another spec
    assert matrix_order(a.matrix) != a and matrix_order(a.matrix).matrix == a.matrix
    assert deglex(3, (2, 1, 3)) != deglex(3)
    assert matrix_order([[1, 1], [0, 1]]) == matrix_order(((1, 1), (0, 1)))
    assert hash(matrix_order([[1, 1], [0, 1]])) == hash(matrix_order(((1, 1), (0, 1))))


def test_parse_order(tmp_path):
    assert parse_order("lex", 3) == lex(3)
    assert parse_order("deglex:2,1,3", 3) == deglex(3, (2, 1, 3))
    path = tmp_path / "A.txt"
    path.write_text("1 1 1\n1 0 0\n0 1 0\n")
    spec = parse_order(f"matrix:{path}", 3)
    assert spec.matrix == standard_matrix("deglex", 3)
    with pytest.raises(OrderError):
        parse_order("grevlex", 3)
    with pytest.raises(OrderError):
        parse_order("lex:1,2", 3)


def test_order_spec_text_round_trip(tmp_path):
    spec = degrevlex(4, (2, 1, 4, 3))
    assert parse_order(str(spec), 4) == spec


# ---------------------------------------------------------------------------
# varord and restriction

def test_varord():
    assert varord(matrix_order(standard_matrix("degrevlex", 3))) == (1, 2, 3)
    assert varord(matrix_order([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, 2, 3)
    assert varord(deglex(3, (3, 1, 2))) == (3, 1, 2)
    assert varord(lex(4, (4, 2, 3, 1))) == (4, 2, 3, 1)
    assert varord(degrevlex(4, (2, 4, 1, 3))) == (2, 4, 1, 3)


def test_varord_sorted_property():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        spec = random_matrix_order(rng, n)
        vo = varord(spec)
        for a, b in zip(vo, vo[1:]):
            ea = tuple(1 if k == a - 1 else 0 for k in range(n))
            eb = tuple(1 if k == b - 1 else 0 for k in range(n))
            assert sign_of(spec, ea, eb) == 1


def test_restrict_standard():
    spec = restrict(lex(5), (3, 5))
    assert spec.kind == "lex" and spec.n == 2 and spec.perm == (1, 2)
    spec = restrict(degrevlex(6), (1, 4, 6))
    assert spec.kind == "degrevlex" and spec.n == 3


def _restriction_agrees(spec, sub, ess, max_deg, rng, samples=300):
    n = spec.n
    for _ in range(samples):
        a_sub = tuple(rng.randint(0, max_deg) for _ in ess)
        b_sub = tuple(rng.randint(0, max_deg) for _ in ess)
        a = [0] * n
        b = [0] * n
        for e, i in zip(a_sub, ess):
            a[i - 1] = e
        for e, i in zip(b_sub, ess):
            b[i - 1] = e
        full = sign_of(spec, tuple(a), tuple(b))
        small = sign_of(sub, a_sub, b_sub)
        assert full == small, (a_sub, b_sub)


def _independent_cut_rows(spec, ess):
    """The rows of spec.matrix cut to the ess columns that raise the rank of the rows before them."""
    rows = [[row[j - 1] for j in ess] for row in spec.matrix]
    ranks = [0] + [sympy.Matrix(rows[: i + 1]).rank() for i in range(len(rows))]
    return tuple(tuple(row) for row, r0, r1 in zip(rows, ranks, ranks[1:]) if r1 > r0)


def test_restrict_matrix_agrees_with_original():
    rng = random.Random(11)
    A = matrix_order(standard_matrix("deglex", 3))
    sub = restrict(A, (1, 3))
    assert sub.matrix == ((1, 1), (1, 0))
    _restriction_agrees(A, sub, (1, 3), 6, rng)
    for _ in range(10):
        n = rng.randint(2, 5)
        spec = random_matrix_order(rng, n)
        vo = varord(spec)
        k = rng.randint(1, n)
        ess = tuple(sorted(rng.sample(range(1, n + 1), k), key=vo.index))
        sub = restrict(spec, ess)
        # the order's own rows, not residuals of them
        assert sub.n == k and sub.matrix == _independent_cut_rows(spec, ess)
        _restriction_agrees(spec, sub, ess, 4, rng, samples=120)


def test_restrict_to_all_variables():
    spec = matrix_order([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    sub = restrict(spec, varord(spec))
    rng = random.Random(3)
    _restriction_agrees(spec, sub, varord(spec), 5, rng)


# ---------------------------------------------------------------------------
# monomial utilities

def test_monomial_helpers():
    assert monomial_mul_var((1, 2), 2) == (1, 3)
    assert monomial_mul_var((1, 2), 1) == (2, 2)


def test_standard_matrices_shape():
    assert standard_matrix("lex", 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert standard_matrix("deglex", 3) == ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    assert standard_matrix("degrevlex", 3) == ((1, 1, 1), (0, 0, -1), (0, -1, 0))
