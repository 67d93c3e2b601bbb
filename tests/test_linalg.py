import contextlib
import io
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stratakit import linalg
from stratakit.algebra import Algebra
from stratakit.cli import main
from stratakit.linalg import GF2, GF3, QQ, Field, InconsistentSystem, Matrix, Subspace, Value
from stratakit.modules import RightModule, projective_module, regular_module
from stratakit.specfile import build_algebra

from oracles import (
    ReferenceField,
    independent_rows_by_growing_span,
    reference_apply_row,
    reference_kron,
    reference_left_kernel,
    reference_matmul,
    reference_rref,
    reference_solve_left,
    two_path_matmul,
    two_path_rref,
)
from support import fixture_algebras, full, load_fixture, span, subspace_sum


def mat(field, rows, cols=None):
    return Matrix.from_rows(field, rows, cols=cols)


def test_field_validation():
    with pytest.raises(ValueError):
        Field.gf(4)
    with pytest.raises(ValueError):
        Field("GF")
    assert Field.gf(2) == GF2
    assert QQ.of("3/4") == Fraction(3, 4)
    assert GF3.of("5") == 2
    assert GF3.of(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3


def test_rref_identity_gf2():
    m = Matrix.identity(GF2, 2)
    r, rank, piv = m.rref()
    assert r == m and rank == 2 and piv == (0, 1)


def test_rref_zero():
    m = Matrix.zero(GF2, 3, 3)
    r, rank, piv = m.rref()
    assert r == m and rank == 0 and piv == ()


def test_rref_rational_rank_one():
    m = mat(QQ, [[1, 2], [2, 4]])
    r, rank, _ = m.rref()
    assert rank == 1
    assert r == mat(QQ, [[1, 2], [0, 0]])


def test_solve_identity():
    a = Matrix.identity(GF3, 3)
    b = mat(GF3, [[1, 2, 0]])
    part, ker = a.solve_left(b), a.left_kernel()
    assert part == b
    assert ker.dim == 0


def test_solve_inconsistent():
    a = Matrix.zero(GF2, 2, 2)
    b = mat(GF2, [[1, 0]])
    with pytest.raises(InconsistentSystem, match="target row 0"):
        a.solve_left(b)


def test_solve_underdetermined_gf2():
    # x @ [[1],[1]] = [0]: solutions (0,0) and (1,1)
    a = mat(GF2, [[1], [1]])
    b = mat(GF2, [[0]])
    part, ker = a.solve_left(b), a.left_kernel()
    assert part.row(0) in {(0, 0), (1, 1)}
    assert ker.dim == 1
    assert ker.basis.row(0) == (1, 1)


def intersection(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v: the kernel of the stacked bases pairs each vector of the
    intersection, as a combination of u's basis, with minus the same vector
    in v's."""
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.field, u.ambient)
    ker = u.basis.stack(v.basis).left_kernel()
    coeffs = tuple(x for i in range(ker.dim) for x in ker.basis.row(i)[: u.dim])
    return Subspace.from_matrix(Matrix(u.field, ker.dim, u.dim, coeffs) @ u.basis)


def test_subspace_whole_and_zero():
    u = full(GF2, 3)
    v = Subspace.zero(GF2, 3)
    assert subspace_sum(u, v) == u
    assert intersection(u, v) == v
    w = span(GF2, [(1, 1, 0)], 3)
    assert subspace_sum(w, w) == w and intersection(w, w) == w


def test_subspace_three_dim_example():
    u = span(GF2, [(1, 0, 0), (0, 1, 0)], 3)
    v = span(GF2, [(0, 1, 0), (0, 0, 1)], 3)
    inter = intersection(u, v)
    assert inter == span(GF2, [(0, 1, 0)], 3)
    assert subspace_sum(u, v) == full(GF2, 3)


def test_quotient_with_section():
    u = span(GF2, [(1, 1, 0)], 3)
    proj, sec = u.quotient_maps()
    assert proj.rows == 3 and proj.cols == 2
    assert (sec @ proj) == Matrix.identity(GF2, 2)
    # the subspace itself dies in the quotient
    assert (u.basis @ proj).is_zero


def test_ambient_mismatch():
    u = Subspace.zero(GF2, 2)
    v = Subspace.zero(GF2, 3)
    with pytest.raises(ValueError):
        subspace_sum(u, v)


# ---------------------------------------------------------------------------
# property tests


def matrices(field, max_dim=4):
    if field.kind == "GF":
        elt = st.integers(min_value=0, max_value=field.p - 1)
    else:
        elt = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(elt, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(field, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF2, GF3, QQ]).flatmap(matrices))
def test_rref_idempotent(m):
    r1, _, _ = m.rref()
    r2, _, _ = r1.rref()
    assert r1 == r2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF2, GF3, QQ]).flatmap(matrices))
def test_rank_nullity(m):
    # rows of m live in k^cols; rank-nullity for v |-> v @ m over k^rows
    assert m.rank() + m.left_kernel().dim == m.rows


def subspace_pairs(field, ambient):
    elt = st.integers(min_value=0, max_value=field.p - 1)
    vec = st.lists(elt, min_size=ambient, max_size=ambient)
    vecs = st.lists(vec, min_size=0, max_size=ambient + 1)
    spc = vecs.map(lambda vs: span(field, [tuple(v) for v in vs], ambient))
    return st.tuples(spc, spc)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([GF2, GF3]).flatmap(
        lambda F: st.integers(1, 4).flatmap(lambda n: subspace_pairs(F, n))
    )
)
def test_dimension_formula(pair):
    u, v = pair
    assert u.dim + v.dim == subspace_sum(u, v).dim + intersection(u, v).dim


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([GF2, GF3]).flatmap(lambda F: matrices(F, 3)), st.data())
def test_solve_matches_enumeration(a, data):
    """Over small finite fields, solve agrees with brute-force enumeration."""
    F = a.field
    if a.rows > 4 or a.cols > 4:
        return
    target = data.draw(st.lists(st.integers(0, F.p - 1), min_size=a.cols, max_size=a.cols))
    b = Matrix.from_rows(F, [target])
    expected = [
        v
        for v in itertools.product(range(F.p), repeat=a.rows)
        if a.apply_row(v) == tuple(F.of(x) for x in target)
    ]
    try:
        part = a.solve_left(b)
    except InconsistentSystem:
        assert expected == []
    else:
        ker = a.left_kernel()
        assert part.row(0) in expected
        assert len(expected) == F.p ** ker.dim
        for v in expected:
            diff = tuple(F.norm(x - y) for x, y in zip(v, part.row(0)))
            assert ker.contains(diff)


# ---------------------------------------------------------------------------
# the kernel's own structure: pivots, closed-form quotient maps, kron


def elements(field):
    if field.kind == "GF":
        return st.integers(min_value=0, max_value=field.p - 1)
    return st.integers(min_value=-3, max_value=3).map(Fraction)


def subspace_and_vector(field):
    """A subspace of k^n and a vector of k^n, for n in 1..4."""
    def build(n):
        vec = st.lists(elements(field), min_size=n, max_size=n).map(tuple)
        spc = st.lists(vec, max_size=n + 1).map(lambda vs: span(field, vs, n))
        return st.tuples(spc, vec)

    return st.integers(1, 4).flatmap(build)


FIELDS = st.sampled_from([GF2, GF3, QQ])


@settings(max_examples=60, deadline=None)
@given(FIELDS.flatmap(subspace_and_vector))
def test_quotient_maps_split_the_quotient(uv):
    u, _ = uv
    proj, sec = u.quotient_maps()
    q = u.ambient - u.dim
    assert (proj.rows, proj.cols, sec.rows, sec.cols) == (u.ambient, q, q, u.ambient)
    assert sec @ proj == Matrix.identity(u.field, q)
    assert (u.basis @ proj).is_zero
    assert proj.left_kernel() == u


@settings(max_examples=60, deadline=None)
@given(FIELDS.flatmap(subspace_and_vector))
def test_contains_iff_projection_vanishes(uv):
    u, v = uv
    proj, _ = u.quotient_maps()
    assert u.contains(v) == all(x == 0 for x in proj.apply_row(v))
    # a combination of the basis rows is inside, and projects to zero
    w = u.basis.apply_row(v[: u.dim])
    assert u.contains(w) and all(x == 0 for x in proj.apply_row(w))


@settings(max_examples=60, deadline=None)
@given(FIELDS.flatmap(matrices))
def test_pivots_are_the_rref_pivots(m):
    _, rank, piv = m.rref()
    s = Subspace.from_matrix(m)
    assert s.pivots == piv and s.dim == rank
    assert all(s.basis[r, pc] == 1 for r, pc in enumerate(s.pivots))


def candidate_matrices(field):
    """Matrices of 0-6 rows in k^0 .. k^4 whose rows are often zero or a
    repeat of an earlier row."""
    def build(cols):
        fresh = st.lists(elements(field), min_size=cols, max_size=cols).map(tuple)
        draw = st.one_of(fresh, st.just(None), st.integers(0, 5))  # None: zero, int: a repeat

        def assemble(draws):
            rows = []
            for d in draws:
                if d is None or (isinstance(d, int) and not rows):
                    d = (0,) * cols
                elif isinstance(d, int):
                    d = rows[d % len(rows)]
                rows.append(d)
            return Matrix.from_rows(field, rows, cols=cols)

        return st.lists(draw, max_size=6).map(assemble)

    return st.integers(0, 4).flatmap(build)


@settings(max_examples=100, deadline=None)
@given(FIELDS.flatmap(candidate_matrices))
def test_independent_rows_match_the_growing_span(m):
    """One elimination of the transpose keeps the rows that growing a span
    one kept row at a time keeps, from every start."""
    for start in range(m.rows + 1):
        assert m.independent_rows(start) == independent_rows_by_growing_span(m, start)


def test_independent_rows_of_empty_matrices():
    for F in (GF2, GF3, QQ):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            m = Matrix.zero(F, rows, cols)
            for start in range(rows + 1):
                assert m.independent_rows(start) == independent_rows_by_growing_span(m, start) == []


def kron_operands(field):
    def build(shape):
        r, c, p, q, k = shape
        def mats(rows, cols):
            return st.lists(elements(field), min_size=rows * cols, max_size=rows * cols).map(
                lambda e: Matrix.from_rows(field, [e[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols))
        # A is r x c, B is p x q, C is c x k, D is q x (k + 1)
        return st.tuples(mats(r, c), mats(p, q), mats(c, k), mats(q, k + 1))

    return st.tuples(*[st.integers(1, 3)] * 5).flatmap(build)


@settings(max_examples=60, deadline=None)
@given(FIELDS.flatmap(kron_operands))
def test_kron_entries_and_mixed_product(ops):
    a, b, c, d = ops
    F = a.field
    k = a.kron(b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    for i, j, i2, j2 in itertools.product(range(a.rows), range(b.rows), range(a.cols), range(b.cols)):
        assert k[i * b.rows + j, i2 * b.cols + j2] == F.norm(a[i, i2] * b[j, j2])
    assert (a @ c).kron(b @ d) == a.kron(b) @ c.kron(d)


def test_kron_with_empty_factors():
    row = mat(GF3, [[1, 2]])
    assert Matrix.identity(GF3, 0).kron(row) == Matrix.zero(GF3, 0, 0)
    assert row.kron(Matrix.zero(GF3, 1, 0)) == Matrix.zero(GF3, 1, 0)
    assert Matrix.identity(GF3, 2).kron(row) == mat(GF3, [[1, 2, 0, 0], [0, 0, 1, 2]])


def test_field_rejects_inexact_numbers():
    for F in (GF3, QQ):
        for bad in (0.5, 1.0, True, None):
            with pytest.raises(TypeError):
                F.of(bad)
        with pytest.raises(ValueError):
            F.of("abc")
    assert QQ.of("0.1") == Fraction(1, 10)
    assert GF3.of("1/2") == 2
    with pytest.raises(ZeroDivisionError):
        GF3.of("1/3")


# ---------------------------------------------------------------------------
# the value types hash once


def _field_hash(x):
    """The hash of the tuple of the fields, what a frozen dataclass's
    ``__hash__`` returns."""
    return hash(tuple(getattr(x, name) for name in type(x)._fields))


def _values(name):
    a = build_algebra(load_fixture(name))
    m = regular_module(a)
    return [m.block(a.dim - 1), a.radical, a, m]


def test_hash_is_the_dataclass_hash_and_equal_values_hash_alike():
    first, second = _values("FIX-NAK"), _values("FIX-NAK")
    # fill the second algebra's cache before anything of it is hashed
    algebra = second[2]
    algebra.mul_vec(algebra.unit, algebra.unit)
    projective_module(algebra, algebra.vertex_names[0])
    assert "sparse" in algebra.cache
    for x, y in zip(first, second):
        assert x == y and x is not y
        assert hash(x) == hash(y) == _field_hash(x) == _field_hash(y)


def test_field_names_are_recorded_when_the_class_is_created():
    class Pair(Value):
        left: int
        right: int = 0
        note = "a class attribute, no field"

    # on the class itself, before any instance exists
    assert Pair.__dict__["_fields"] == ("left", "right")
    assert Pair(1) == Pair(left=1, right=0) != Pair(1, 2)
    assert [hash(Pair(i, -i)) for i in range(3)] == [hash((i, -i)) for i in range(3)]
    assert repr(Pair(1, 2)).endswith(".Pair(left=1, right=2)")
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"note": 2})]:
        with pytest.raises(TypeError, match="takes the fields left, right"):
            Pair(*args, **kwargs)


def test_a_replaced_value_is_validated_and_a_mutable_one_is_unhashable():
    class Interval(Value):
        low: int
        high: int

        def __post_init__(self):
            if self.low > self.high:
                raise ValueError("empty interval")

    class Box(Value, frozen=False):
        content: list

    i = Interval(1, 3)
    assert i._replace(high=2) == Interval(1, 2) and i == Interval(1, 3)
    with pytest.raises(ValueError, match="empty interval"):
        i._replace(low=4)
    box = Box([1])
    box.content = [2]
    assert box == Box([2]) != ([2],)
    with pytest.raises(TypeError, match="unhashable"):
        hash(box)


class CountingInt(int):
    """An int that counts the calls of its ``__hash__``."""

    calls = 0

    def __hash__(self):
        CountingInt.calls += 1
        return int.__hash__(self)


def test_entries_are_hashed_once():
    one, zero = CountingInt(1), CountingInt(0)
    m = Matrix(GF2, 2, 2, (one, zero, zero, one))
    u = Subspace(2, m, (0, 1))
    a = Algebra(GF2, ("e",), (((one,),),), (one,), (0,), ("v",), Subspace(1, Matrix(GF2, 0, 1, ()), ()))
    CountingInt.calls = 0
    # a is one-dimensional: its one block is m.  Building the module looks
    # its action up in a's table of modules, which hashes m there
    mod = RightModule(a, 2, m)
    for _ in range(3):
        hash(m), hash(u), hash(a), hash(mod)
        {m: 0, u: 0, a: 0, mod: 0}
    # the four entries of m (also the action of mod) and the two of a (its
    # table and its unit), each once per instance
    assert CountingInt.calls == 4 + 2


# ---------------------------------------------------------------------------
# a matrix is eliminated once


def count_row_operations(monkeypatch) -> list:
    """Every elimination step from here on: one per row that a pivot row
    is subtracted from."""
    calls = []
    step = linalg._eliminate

    def counting_step(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting_step)
    return calls


def test_second_rank_runs_no_elimination(monkeypatch):
    ops = count_row_operations(monkeypatch)
    m = mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2 and (first := len(ops)) > 0
    assert m.rank() == 2 and len(ops) == first
    # the RREF it returned is reduced already, and says so without eliminating
    R, rank, piv = m.rref()
    assert R.rref() == (R, 2, piv) and R.rref()[0] is R and len(ops) == first
    # an equal matrix built afresh is eliminated on its own
    assert mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]).rank() == 2 and len(ops) == 2 * first


def test_a_reduced_matrix_is_its_own_rref():
    for m in (mat(GF3, [[1, 0, 2], [0, 1, 1]]), Matrix.identity(QQ, 3), Matrix(GF2, 0, 2, ()),
              mat(QQ, [[0, 1], [0, 0]])):
        R, rank, piv = m.rref()
        assert R is m and vars(m)["_rref"] == (None, rank, piv)
    # a swap, a scaling or an elimination makes a new matrix
    for rows in ([[0, 1], [1, 0]], [[2, 0], [0, 1]], [[1, 1], [0, 1]]):
        m = mat(GF3, rows)
        assert m.rref()[0] is not m


def test_kept_rank_is_no_part_of_equality_or_hash():
    reduced, fresh = mat(GF3, [[1, 2], [2, 1]]), mat(GF3, [[1, 2], [2, 1]])
    reduced.rank()
    assert "_rref" in vars(reduced) and "_rref" not in vars(fresh)
    assert reduced == fresh and hash(reduced) == hash(fresh) == _field_hash(fresh)
    assert Matrix._fields == ("field", "rows", "cols", "entries")


# ---------------------------------------------------------------------------
# the matrix value contract, whichever way its constructor stores the fields


def test_matrix_rejects_a_wrong_entry_count():
    with pytest.raises(ValueError) as err:
        Matrix(GF3, 2, 3, (1, 2, 0, 1, 1))
    assert str(err.value) == "2x3 matrix needs 6 entries, got 5"
    with pytest.raises(ValueError) as err:
        Matrix(QQ, rows=0, cols=2, entries=(1,))
    assert str(err.value) == "0x2 matrix needs 0 entries, got 1"


def test_matrix_is_frozen():
    m = Matrix(GF3, 1, 2, (1, 2))
    for name in ("rows", "entries", "unknown"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(m, name, 0)
    with pytest.raises(AttributeError, match="^cannot delete field 'rows'$"):
        del m.rows
    assert (m.field, m.rows, m.cols, m.entries) == (GF3, 1, 2, (1, 2))


def test_matrix_repr_equality_and_fields():
    m = Matrix(GF3, 1, 2, (1, 2))
    assert repr(m) == "Matrix(field=GF(3), rows=1, cols=2, entries=(1, 2))"
    assert repr(Matrix(QQ, 0, 0, ())) == "Matrix(field=Q, rows=0, cols=0, entries=())"
    assert m == Matrix(field=GF3, rows=1, cols=2, entries=(1, 2)) == mat(GF3, [[1, 2]])
    assert m != Matrix(GF3, 2, 1, (1, 2)) and m != Matrix(QQ, 1, 2, (1, 2))
    assert m != (GF3, 1, 2, (1, 2))
    assert Matrix._fields == ("field", "rows", "cols", "entries")


def test_matrix_keeps_hash_and_rank_on_the_instance():
    m = mat(GF3, [[1, 2], [2, 1]])
    assert set(vars(m)) == {"field", "rows", "cols", "entries"}
    hash(m), m.rank()
    assert set(vars(m)) == {"field", "rows", "cols", "entries", "_hash", "_rref"}
    R, rank, piv = vars(m)["_rref"]
    assert vars(m)["_hash"] == _field_hash(m) and (R.entries, rank, piv) == ((1, 2, 0, 0), 1, (0,))
    # the RREF keeps its rank and pivots, and no reference back
    assert vars(R)["_rref"] == (None, 1, (0,))


def matrix_and_vector(field):
    """A rows x cols matrix, 0 <= cols, and a mostly-zero vector of length rows."""
    def build(rows, cols):
        m = st.lists(elements(field), min_size=rows * cols, max_size=rows * cols).map(
            lambda ent: Matrix(field, rows, cols, tuple(field.of(x) for x in ent)))
        v = st.lists(st.one_of(st.just(0), elements(field)), min_size=rows, max_size=rows).map(
            lambda xs: tuple(field.of(x) for x in xs))
        return st.tuples(m, v)

    return st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(lambda rc: build(*rc))


@settings(max_examples=80, deadline=None)
@given(FIELDS.flatmap(matrix_and_vector))
def test_apply_row_is_the_row_matrix_product(mv):
    m, v = mv
    assert m.apply_row(v) == (Matrix(m.field, 1, m.rows, v) @ m).row(0)
    assert m.apply_row((m.field.zero,) * m.rows) == (m.field.zero,) * m.cols


# ---------------------------------------------------------------------------
# over Q a whole number is an int: the kernels agree with all-Fraction
# reference arithmetic and never leave a Fraction with denominator 1


def rationals():
    """Mostly small integers, some proper fractions and some whole ones such as 4/2."""
    return st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


def q_matrix(rows, cols):
    return st.lists(rationals(), min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix.from_rows(QQ, [e[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols))


def q_operands():
    """A (r x c), B (c x k), a vector of length r and a target in A's row space."""
    def build(r, c, k):
        vec = st.lists(rationals(), min_size=r, max_size=r).map(lambda xs: tuple(QQ.of(x) for x in xs))
        return st.tuples(q_matrix(r, c), q_matrix(c, k), vec, vec)

    return st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)).flatmap(lambda s: build(*s))


def canonical(values) -> bool:
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)


def fractions(m: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]


def ref_matmul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(len(b[0]))]
            for row in a]


def ref_rref(rows, p=None):
    """Textbook Gauss-Jordan on Fractions, or on ints mod a prime ``p``:
    (rref rows, pivot columns)."""
    norm = (lambda x: x % p) if p else (lambda x: x)
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [norm(x * inv) for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [norm(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def ref_left_kernel(a):
    """The RREF basis of {v : v @ a = 0}, from the null space of a^T."""
    n = len(a)
    rt, piv = ref_rref([list(col) for col in zip(*a)])
    vecs = []
    for fc in (j for j in range(n) if j not in piv):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -rt[r][fc]
        vecs.append(v)
    return ref_rref(vecs)[0] if vecs else []


def ref_solve_left(a, target, p=None, cols=None):
    """X with X @ a = target, read off the RREF of [a | I] as ``solve_left``
    does, over Q or GF(p); ``cols`` is needed when ``a`` has no rows.
    Raises ``ValueError(t)`` at the first target row t outside the row space."""
    n, m = len(a), len(a[0]) if a else cols
    unit = Fraction if p is None else int
    r, piv = ref_rref([row + [unit(int(i == j)) for j in range(n)] for i, row in enumerate(a)], p)
    out = []
    for t, row in enumerate(target):
        v = list(row) + [unit(0)] * n
        for k, pc in enumerate(piv):
            if pc < m and v[pc] != 0:
                f = v[pc]
                v = [(x - f * y) % p if p else x - f * y for x, y in zip(v, r[k])]
        if any(x != 0 for x in v[:m]):
            raise ValueError(t)
        out.append([(-x) % p if p else -x for x in v[m:]])
    return out


@settings(max_examples=80, deadline=None)
@given(q_operands())
def test_q_kernels_match_fraction_arithmetic(ops):
    a, b, v, w = ops
    fa, fb = fractions(a), fractions(b)
    assert canonical(a.entries) and canonical(b.entries) and canonical(v)
    product = a @ b
    assert fractions(product) == ref_matmul(fa, fb) and canonical(product.entries)
    r, rank, piv = a.rref()
    ref_r, ref_piv = ref_rref(fa)
    assert fractions(r) == ref_r and (rank, list(piv)) == (len(ref_piv), ref_piv)
    assert canonical(r.entries)
    applied = a.apply_row(v)
    assert list(applied) == ref_matmul([list(v)], fa)[0] and canonical(applied)
    ker = a.left_kernel().basis
    assert fractions(ker) == ref_left_kernel(fa) and canonical(ker.entries)
    target = Matrix(QQ, 1, a.cols, a.apply_row(w))
    x = a.solve_left(target)
    assert fractions(x) == ref_solve_left(fa, fractions(target)) and canonical(x.entries)
    k = a.kron(b)
    assert canonical(k.entries)
    for i, j, i2, j2 in itertools.product(range(a.rows), range(b.rows), range(a.cols), range(b.cols)):
        assert k[i * b.rows + j, i2 * b.cols + j2] == fa[i][i2] * fb[j][j2]


def reduced_full_rank_and_targets(field):
    """An r x c matrix in RREF with full row rank, 0 <= r <= c <= 4, and up to
    three targets: each a combination of its rows, or any vector of k^c."""
    def build(c, pivots):
        r = len(pivots)
        free = st.lists(elements(field), min_size=r * c, max_size=r * c)

        def reduced(xs):
            ent = []
            for i, pc in enumerate(pivots):
                for j in range(c):
                    if j <= pc or j in pivots:
                        ent.append(field.of(int(j == pc)))
                    else:
                        ent.append(field.of(xs[i * c + j]))
            return Matrix(field, r, c, tuple(ent))

        vec = lambda n: st.lists(elements(field), min_size=n, max_size=n).map(
            lambda xs: tuple(field.of(x) for x in xs))
        row = lambda a: st.one_of(vec(r).map(a.apply_row), vec(c))
        return free.map(reduced).flatmap(
            lambda a: st.tuples(st.just(a), st.lists(row(a), max_size=3)))

    return st.integers(0, 4).flatmap(lambda c: st.lists(st.booleans(), min_size=c, max_size=c).flatmap(
        lambda is_pivot: build(c, [j for j, b in enumerate(is_pivot) if b])))


@settings(max_examples=120, deadline=None)
@given(FIELDS.flatmap(lambda F: st.tuples(st.just(F), reduced_full_rank_and_targets(F))))
def test_solve_against_a_reduced_basis_reads_its_pivots(case):
    """The pivot route (``self`` its own RREF with full row rank) gives the
    solution of the [A | I] reference, and fails on the same target row
    with the same message."""
    field, (a, rows) = case
    R, rank, _ = a.rref()
    assert R is a and rank == a.rows
    target = Matrix(field, len(rows), a.cols, tuple(x for row in rows for x in row))
    p = field.p
    lift = (lambda x: x) if p else Fraction
    try:
        want = ref_solve_left([[lift(x) for x in a.row(i)] for i in range(a.rows)],
                              [[lift(x) for x in row] for row in rows], p, a.cols)
    except ValueError as bad:
        with pytest.raises(InconsistentSystem) as err:
            a.solve_left(target)
        assert str(err.value) == (
            f"target row {bad.args[0]} is not in the row space of a {a.rows} x {a.cols} matrix")
    else:
        x = a.solve_left(target)
        assert (x.rows, x.cols) == (len(rows), a.rows)
        assert [list(x.row(t)) for t in range(x.rows)] == want and canonical(x.entries)


# ---------------------------------------------------------------------------
# one arithmetic path for both fields: the kernel against the two-path
# kernel it replaced (``reference_*``), value for value


def kernel_values(field):
    """Field elements, zero about half the time; over Q also proper fractions."""
    if field.is_finite:
        x = st.integers(1, field.p - 1)
    else:
        x = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(2, 4)))
    return st.one_of(st.just(0), x).map(field.of)


def kernel_matrices(field, rows, cols):
    """rows x cols; each row drawn at random, zero or a unit vector."""
    kinds = [st.lists(kernel_values(field), min_size=cols, max_size=cols), st.just([0] * cols)]
    if cols:
        kinds.append(st.integers(0, cols - 1).map(lambda i: [int(j == i) for j in range(cols)]))
    return st.lists(st.one_of(*kinds), min_size=rows, max_size=rows).map(
        lambda rs: Matrix(field, rows, cols, tuple(x for r in rs for x in r)))


def kernel_operands(field):
    """A (r x c), B (c x k), C (p x q), X (t x r) and a row of length c, each size in 0..4."""
    def build(r, c, k, p, q, t):
        return st.tuples(kernel_matrices(field, r, c), kernel_matrices(field, c, k),
                         kernel_matrices(field, p, q), kernel_matrices(field, t, r),
                         kernel_matrices(field, 1, c))

    return st.tuples(*[st.integers(0, 4)] * 5, st.integers(0, 3)).flatmap(lambda s: build(*s))


def normalized(field, values) -> bool:
    """Every value in its one representation: an int in range(p), or over Q
    an int or a Fraction that is not whole."""
    if field.is_finite:
        return all(type(x) is int and 0 <= x < field.p for x in values)
    return canonical(values)


def same_solve(m, target):
    """``m.solve_left(target)`` gives the reference's solution, or both raise."""
    try:
        want = reference_solve_left(m, target)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            m.solve_left(target)
    else:
        got = m.solve_left(target)
        assert got.entries == want and normalized(m.field, got.entries)


KERNEL_FIELDS = st.sampled_from([GF2, GF3, Field.gf(5), Field.gf(7), QQ])


@settings(max_examples=100, deadline=None)
@given(KERNEL_FIELDS.flatmap(kernel_operands))
def test_kernel_matches_the_two_path_reference(ops):
    a, b, c, x, extra = ops
    F, ref = a.field, ReferenceField(a.field)
    results = []
    product = a @ b
    assert product.entries == two_path_matmul(a, b)
    results.append(product.entries)
    for v in x.row_list():
        results.append(a.apply_row(v))
        assert results[-1] == reference_apply_row(a, v)
    R, rank, piv = a.rref()
    assert (R.entries, rank, piv) == two_path_rref(a)
    ker = a.left_kernel().basis
    assert ker.entries == reference_left_kernel(a)
    k = a.kron(c)
    assert k.entries == reference_kron(a, c)
    results += [R.entries, ker.entries, k.entries]
    # entrywise arithmetic
    s = F.of(3)
    for got, want in (((a + a).entries, map(ref.add, a.entries, a.entries)),
                      ((a - R).entries, map(ref.sub, a.entries, R.entries)),
                      ((-a).entries, map(ref.neg, a.entries)),
                      (a.scale(3).entries, (ref.mul(s, y) for y in a.entries))):
        assert got == tuple(want)
        results.append(got)
    assert all(normalized(F, r) for r in results)
    # both solve routes, on a target in the row space and on one perhaps outside it
    for target in (x @ a, (x @ a).stack(extra)):
        same_solve(a, target)
        same_solve(a.row_space().basis, target)


# ---------------------------------------------------------------------------
# finished work recognised: the kernel against its own loops run on every
# input (``reference_matmul``, ``reference_rref``)

FAST_PATH_FIELDS = st.sampled_from([GF3, QQ])


def selections(field, rows, cols):
    """rows x cols, each row zero or a unit vector, repeats allowed."""
    pick = st.one_of(st.none(), st.integers(0, cols - 1)) if cols else st.none()
    return st.lists(pick, min_size=rows, max_size=rows).map(lambda picks: Matrix(
        field, rows, cols, tuple(field.of(int(p == j)) for p in picks for j in range(cols))))


def product_operands(field):
    """A @ B, each size 0..4: A an identity, a row selection or any matrix,
    B an identity or any matrix."""
    def build(n, m, k, left, right_identity):
        a = {"identity": st.just(Matrix.identity(field, m)), "selection": selections(field, n, m),
             "any": kernel_matrices(field, n, m)}[left]
        b = st.just(Matrix.identity(field, m)) if right_identity else kernel_matrices(field, m, k)
        return st.tuples(a, b)

    size = st.integers(0, 4)
    return st.tuples(size, size, size, st.sampled_from(["identity", "selection", "any"]),
                     st.booleans()).flatmap(lambda s: build(*s))


@settings(max_examples=150, deadline=None)
@given(FAST_PATH_FIELDS.flatmap(product_operands))
def test_products_with_identities_and_row_selections_match_the_loop(ab):
    a, b = ab
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == reference_matmul(a, b) and normalized(a.field, product.entries)
    if a.is_identity or b.is_identity:
        assert product is (b if a.is_identity else a)


def reduced_matrices(field):
    """r x c in RREF, 0 <= r, c <= 4 (0 x c and r x 0 too), of any rank up
    to min(r, c), its zero rows last and any entries right of a pivot
    outside the pivot columns."""
    def build(r, c):
        def write(pivots, xs):
            ent = [0] * (r * c)
            for i, pc in enumerate(pivots):
                for j in range(pc, c):
                    ent[i * c + j] = 1 if j == pc else 0 if j in pivots else xs[i * c + j]
            return Matrix(field, r, c, tuple(ent))

        pivots = st.lists(st.integers(0, c - 1), unique=True, max_size=min(r, c)).map(sorted) if c else st.just([])
        return st.builds(write, pivots, st.lists(kernel_values(field), min_size=r * c, max_size=r * c))

    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda s: build(*s))


def near_misses(field):
    """A reduced matrix spoiled in one place, where it has room: its last
    pivot made 2, a nonzero above that pivot, or its first zero row moved
    above its last nonzero row."""
    def spoil(a, how, x):
        _, rank, piv = reference_rref(a)
        ent, c = list(a.entries), a.cols
        if how == "pivot" and rank:
            ent[(rank - 1) * c + piv[-1]] = field.of(2)
        elif how == "above" and rank > 1:
            ent[piv[-1]] = x
        elif how == "middle" and 0 < rank < a.rows:
            at, zero = (rank - 1) * c, rank * c
            ent = ent[:at] + ent[zero:zero + c] + ent[at:zero] + ent[zero + c:]
        return Matrix(field, a.rows, c, tuple(ent))

    return st.builds(spoil, reduced_matrices(field), st.sampled_from(["pivot", "above", "middle"]),
                     kernel_values(field).filter(bool))


@settings(max_examples=200, deadline=None)
@given(FAST_PATH_FIELDS.flatmap(lambda F: st.one_of(reduced_matrices(F), near_misses(F))))
def test_rref_recognises_a_reduced_matrix_and_nothing_else(a):
    """A matrix in RREF is its own elimination and keeps only rank and
    pivots; a near miss is eliminated as before."""
    want = reference_rref(a)
    R, rank, piv = a.rref()
    assert (R.entries, rank, piv) == want
    assert (R is a) == (want[0] == a.entries)
    if R is a:
        assert a.__dict__["_rref"] == (None, rank, piv)


def test_corpus_run_matches_the_loops(monkeypatch):
    """Every product and elimination of ``corpus --seed 11``, the program's
    own traffic, equals the loops' result, and the run takes every fast
    path: identity factors, unscaled row copies and reduced matrices."""
    matmul, rref = Matrix.__matmul__, Matrix.rref
    wrong, taken = [], {"identity": 0, "row copy": 0, "reduced": 0}

    def checked_matmul(a, b):
        out = matmul(a, b)
        if (out.rows, out.cols, out.entries) != (a.rows, b.cols, reference_matmul(a, b)):
            wrong.append(("product", a, b))
        taken["identity"] += out is a or out is b
        taken["row copy"] += any(a.row(i).count(1) == 1 and a.row(i).count(0) == a.cols - 1
                                 for i in range(a.rows))
        return out

    def checked_rref(m):
        fresh = "_rref" not in m.__dict__
        R, rank, piv = rref(m)
        if (R.entries, rank, piv) != reference_rref(m):
            wrong.append(("rref", m))
        taken["reduced"] += fresh and R is m
        return R, rank, piv

    monkeypatch.setattr(Matrix, "__matmul__", checked_matmul)
    monkeypatch.setattr(Matrix, "rref", checked_rref)
    monkeypatch.delenv("STRATAKIT_SEED", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["corpus", "--seed", "11"])
    assert code == 0 and out.getvalue() == (Path(__file__).parent / "golden" / "corpus.seed11.json").read_text()
    assert wrong == []
    assert all(taken.values()), taken


def algebra_operands(a):
    """Two vectors of ``a`` and a few (c, i, j) terms for ``sum_of_products``."""
    vec = st.lists(kernel_values(a.field), min_size=a.dim, max_size=a.dim).map(tuple)
    index = st.integers(0, a.dim - 1)
    return st.tuples(st.just(a), vec, vec, st.lists(st.tuples(kernel_values(a.field), index, index), max_size=6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(fixture_algebras()).flatmap(algebra_operands))
def test_algebra_products_match_the_reference(ops):
    """``mul_vec`` and ``sum_of_products`` sum in plain arithmetic and
    normalize each coordinate: over GF(2) and GF(3) sums reach p."""
    a, x, y, terms = ops
    ref = ReferenceField(a.field)

    def reference_sum(triples):
        out = [0] * a.dim
        for c, i, j in triples:
            for k, m in enumerate(a.mult[i][j]):
                out[k] = ref.add(out[k], ref.mul(c, m))
        return tuple(out)

    pairs = [(ref.mul(xi, yj), i, j) for i, xi in enumerate(x) for j, yj in enumerate(y)]
    for got, want in ((a.mul_vec(x, y), reference_sum(pairs)), (a.sum_of_products(terms), reference_sum(terms))):
        assert got == want and normalized(a.field, got)


Q_ALGEBRAS = [build_algebra(load_fixture(name)._replace(field=QQ))
              for name in ("FIX-A3", "FIX-NAK", "FIX-KRO")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(Q_ALGEBRAS).flatmap(
    lambda a: st.tuples(st.just(a), *[st.lists(rationals(), min_size=a.dim, max_size=a.dim)] * 2)))
def test_q_mul_vec_matches_fraction_arithmetic(axy):
    a, x, y = axy
    x, y = tuple(QQ.of(c) for c in x), tuple(QQ.of(c) for c in y)
    got = a.mul_vec(x, y)
    want = [Fraction(0)] * a.dim
    for i, j in itertools.product(range(a.dim), repeat=2):
        for k, c in enumerate(a.mult[i][j]):
            want[k] += Fraction(x[i]) * Fraction(y[j]) * Fraction(c)
    assert list(got) == want and canonical(got)
    assert canonical(e for row in a.mult for prod in row for e in prod) and canonical(a.unit)


def test_q_values_are_ints_when_whole():
    assert QQ.of("4/2") == 2 and type(QQ.of("4/2")) is int
    assert QQ.of(Fraction(6, 3)) == 2 and type(QQ.of(Fraction(6, 3))) is int
    assert QQ.of("0.5") == Fraction(1, 2)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.norm(Fraction(1, 2) + Fraction(1, 2))) is int
    assert type(QQ.norm(Fraction(2, 3) * 3)) is int
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    for bad in (0.5, 2.0, True, False):
        with pytest.raises(TypeError):
            QQ.of(bad)
