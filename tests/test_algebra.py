import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stratakit import algebra as algebra_module
from stratakit.algebra import (
    Algebra,
    AlgebraError,
    NonAdmissibleError,
    PossiblyInfiniteError,
    Presentation,
    Quiver,
    build_bound_quiver_algebra,
    corner_algebra,
    opposite,
    validate_algebra,
)
from stratakit.linalg import GF2, GF3, QQ, Matrix, Subspace
from stratakit.specfile import build_algebra, parse_spec

from oracles import algebra_issues_by_mul_vec, reference_corner_algebra, reference_quotient_by_idempotent_ideal
from support import auslander_algebra, fixture_algebras, full, generated_specs, load_fixture, quotient_of, span


@pytest.fixture(scope="module")
def a2():
    return build_algebra(load_fixture("FIX-A2"))


@pytest.fixture(scope="module")
def nak():
    return build_algebra(load_fixture("FIX-NAK"))


def test_a2_build(a2):
    assert a2.dim == 3
    assert a2.basis_labels == ("e_1", "e_2", "a")
    assert a2.radical.dim == 1


def test_dual_numbers():
    q = Quiver(("1",), (("x", "1", "1"),))
    pres = Presentation.from_names(q, [[(1, ["x", "x"])]])
    a = build_bound_quiver_algebra(pres, GF2)
    assert a.dim == 2
    x = a.basis_vec(1)
    assert a.mul_vec(x, x) == a.zero_vec()


def test_free_loop_possibly_infinite():
    q = Quiver(("1",), (("x", "1", "1"),))
    pres = Presentation.from_names(q, [])
    with pytest.raises(PossiblyInfiniteError):
        build_bound_quiver_algebra(pres, GF2)


def test_non_admissible_relation():
    q = Quiver(("1", "2"), (("a", "1", "2"),))
    pres = Presentation.from_names(q, [[(1, ["a"])]])
    with pytest.raises(NonAdmissibleError):
        build_bound_quiver_algebra(pres, GF2)


def test_validate_passes_on_fixtures(a2, nak):
    for a in (a2, nak):
        assert validate_algebra(a).ok


def test_validate_catches_broken_associativity(a2):
    # corrupt the table: make a*a = e_1 (a is nilpotent in the path algebra)
    mult = [list(row) for row in a2.mult]
    mult[2] = list(mult[2])
    mult[2][2] = a2.basis_vec(0)
    bad = Algebra(
        field=a2.field,
        basis_labels=a2.basis_labels,
        mult=tuple(tuple(r) for r in mult),
        unit=a2.unit,
        idempotent_indices=a2.idempotent_indices,
        vertex_names=a2.vertex_names,
        radical=a2.radical,
    )
    rep = validate_algebra(bad)
    assert not rep.ok
    assert any(name in ("associativity", "radical-ideal", "radical-nilpotent") for name, _ in rep.issues)


def test_validate_catches_bad_radical(a2):
    bad = Algebra(
        field=a2.field,
        basis_labels=a2.basis_labels,
        mult=a2.mult,
        unit=a2.unit,
        idempotent_indices=a2.idempotent_indices,
        vertex_names=a2.vertex_names,
        radical=span(GF2, [(0, 1, 0)], 3),  # span{e_2}: not an ideal complementary story
    )
    rep = validate_algebra(bad)
    assert not rep.ok


def test_corner_unit_is_whole_algebra(a2):
    c = corner_algebra(a2, ["1", "2"])
    assert c.algebra.dim == a2.dim
    assert validate_algebra(c.algebra).ok


def test_corner_a2_at_vertex2(a2):
    c = corner_algebra(a2, ["2"])
    assert c.algebra.dim == 1
    assert c.algebra.vertex_names == ("2",)
    assert c.algebra.radical.dim == 0


def test_corner_nak_at_vertex2(nak):
    c = corner_algebra(nak, ["2"])
    assert c.algebra.dim == 1  # b*a is killed by the relations
    assert c.algebra.radical.dim == 0


def test_quotient_by_unit_is_zero(a2):
    q = quotient_of(a2, ["1", "2"])
    assert q.algebra.dim == 0


@pytest.mark.parametrize("fix", ["FIX-A3", "FIX-KRO", "FIX-LOOP", "FIX-NAK"])
def test_zero_corner_and_quotient_by_every_vertex_are_the_zero_algebra(fix):
    """e = 0 and e = 1 need no special case: eAe for e = 0 and A/AeA for
    e = 1 are both the zero algebra, and it passes validation."""
    a = build_algebra(load_fixture(fix))
    zero = Algebra(field=a.field, basis_labels=(), mult=(), unit=(), idempotent_indices=(),
                   vertex_names=(), radical=Subspace.zero(a.field, 0))
    corner = corner_algebra(a, [])
    quotient = quotient_of(a, a.vertex_names)
    assert corner.algebra == zero
    assert quotient.algebra == zero
    assert (corner.embed.rows, corner.embed.cols) == (0, a.dim)
    assert validate_algebra(corner.algebra).ok
    assert validate_algebra(quotient.algebra).ok


def _derived_inputs():
    """(algebra, vertex subset): every subset for the fixture algebras and
    the golden inputs; each single vertex and its complement for 60
    generated inputs and the Auslander algebras of k[x]/(x^n), n = 2..4,
    over GF(3) and Q."""
    golden = sorted((Path(__file__).parent / "golden").glob("*.input.json"))
    for a in [*fixture_algebras(), *(build_algebra(parse_spec(json.loads(p.read_text()))) for p in golden)]:
        for k in range(len(a.vertex_names) + 1):
            for vs in itertools.combinations(a.vertex_names, k):
                yield a, vs
    for a in [*(build_algebra(parse_spec(data)) for data in generated_specs(101, 60)),
              *(build_bound_quiver_algebra(auslander_algebra(n), F) for n in (2, 3, 4) for F in (GF3, QQ))]:
        for v in a.vertex_names:
            yield a, (v,)
            yield a, tuple(w for w in a.vertex_names if w != v)


def test_corner_and_quotient_match_the_references():
    """One writer for both tables gives the corner and the quotient, embed,
    projection and section included, that their own assemblies gave, and
    each passes the full validation that the certificate stands in for."""
    cases = 0
    for a, vs in _derived_inputs():
        corner, quotient = corner_algebra(a, vs), quotient_of(a, vs)
        assert corner == reference_corner_algebra(a, vs), (a.basis_labels, vs)
        assert quotient == reference_quotient_by_idempotent_ideal(a, vs), (a.basis_labels, vs)
        assert validate_algebra(corner.algebra).ok and validate_algebra(quotient.algebra).ok, (a.basis_labels, vs)
        cases += 1
    assert cases > 450


def _transposed(sol: Matrix, n: int) -> Matrix:
    """The coordinates with the products' block read as the transposed table."""
    rows = sol.row_list()
    rows[:n * n] = [rows[j * n + i] for i in range(n) for j in range(n)]
    return Matrix(sol.field, sol.rows, sol.cols, tuple(x for r in rows for x in r))


def _last_product_off(sol: Matrix, n: int) -> Matrix:
    """The coordinates with the first entry of the last product moved by one."""
    ent = list(sol.entries)
    k = (n * n - 1) * sol.cols
    ent[k] = sol.field.norm(ent[k] + 1)
    return Matrix(sol.field, sol.rows, sol.cols, tuple(ent))


@pytest.mark.parametrize("mutate,build,vs", [
    (_transposed, corner_algebra, ["1", "2"]),
    (_transposed, quotient_of, ["3"]),
    (_last_product_off, quotient_of, ["3"]),
    (_last_product_off, corner_algebra, ["1", "3"]),
], ids=["transposed-corner", "transposed-quotient", "wrong-quotient-product", "wrong-corner-product"])
def test_the_certificate_refuses_a_miswritten_table(monkeypatch, mutate, build, vs):
    """A coordinate map that writes the table transposed, or one product
    wrong, gives a corner or quotient of FIX-A3 that the certificate against
    A refuses, with ``validate_algebra`` out of reach."""
    a = build_algebra(load_fixture("FIX-A3"))
    real = algebra_module._derived_algebra

    def miswritten(a, labels, vertices, vectors, coords, what, certify):
        return real(a, labels, vertices, vectors, lambda t: mutate(coords(t), len(labels)), what, certify)

    monkeypatch.setattr(algebra_module, "_derived_algebra", miswritten)
    monkeypatch.setattr(algebra_module, "validate_algebra", lambda b: pytest.fail("validated afresh"))
    what = "corner" if build is corner_algebra else "quotient"
    with pytest.raises(AlgebraError, match=f"^{what} algebra failed validation: "):
        build(a, vs)


def test_quotient_a2(a2):
    q = quotient_of(a2, ["2"])
    assert q.algebra.dim == 1  # AeA = span{e_2, a}
    assert q.algebra.vertex_names == ("1",)


def test_quotient_nak(nak):
    q = quotient_of(nak, ["2"])
    assert q.algebra.dim == 1  # AeA = span{e_2, a, b}
    assert q.algebra.vertex_names == ("1",)


def test_opposite_involution(a2):
    assert opposite(opposite(a2)) == a2


def test_opposite_is_built_once_per_algebra(nak):
    from stratakit.modules import regular_module

    op = opposite(nak)
    assert opposite(nak) is op
    assert opposite(op) is nak
    assert opposite(opposite(nak)) is nak
    assert regular_module(opposite(opposite(nak))) is regular_module(nak)


def test_opposite_of_a2_is_reversed_quiver(a2):
    rev = Quiver(("1", "2"), (("a", "2", "1"),))
    b = build_bound_quiver_algebra(Presentation.from_names(rev, []), GF2)
    # same labels and same multiplication table after the canonical relabeling
    op = opposite(a2)
    assert op.basis_labels == b.basis_labels
    assert op.mult == b.mult
    assert op.unit == b.unit


def test_opposite_commutative_is_same():
    q = Quiver(("1",), (("x", "1", "1"),))
    a = build_bound_quiver_algebra(Presentation.from_names(q, [[(1, ["x", "x"])]]), GF2)
    assert opposite(a) == a


def test_dim_is_sum_of_corner_dims(a2, nak):
    for a in (a2, nak):
        total = 0
        for v in a.vertex_names:
            for w in a.vertex_names:
                ev, ew = a.idempotent_vec(v), a.idempotent_vec(w)
                vecs = [a.mul_vec(a.mul_vec(ev, a.basis_vec(i)), ew) for i in range(a.dim)]
                total += span(a.field, vecs, a.dim).dim
        assert total == a.dim


def test_build_deterministic():
    s1 = build_algebra(load_fixture("FIX-KRO"))
    s2 = build_algebra(load_fixture("FIX-KRO"))
    assert s1 == s2


FIXTURE_ALGEBRAS = fixture_algebras()


def _vector(F, n):
    # mostly zeros, so both sparse skips are exercised
    values = [0, 0, 0, 1, 2, -1] + ([] if F.is_finite else [Fraction(1, 2)])
    return st.lists(st.sampled_from(values).map(F.of), min_size=n, max_size=n).map(tuple)


def _algebra_and_vectors(i):
    a = FIXTURE_ALGEBRAS[i]
    return st.tuples(st.just(i), _vector(a.field, a.dim), _vector(a.field, a.dim))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(FIXTURE_ALGEBRAS) - 1).flatmap(_algebra_and_vectors))
def test_mul_vec_is_the_dense_sum(ixy):
    i, x, y = ixy
    a = FIXTURE_ALGEBRAS[i]
    dense = tuple(
        a.field.of(sum(x[i] * y[j] * a.mult[i][j][k] for i in range(a.dim) for j in range(a.dim)))
        for k in range(a.dim))
    assert a.mul_vec(x, y) == dense


def _generated(a):
    """The span of a's generating vectors closed under products."""
    gens = a.generating_vectors()
    space = span(a.field, gens, a.dim)
    while True:
        rows = space.basis.row_list()
        grown = span(a.field, rows + [a.mul_vec(x, g) for x in rows for g in gens], a.dim)
        if grown == space:
            return space
        space = grown


def test_generating_vectors_generate():
    """The vertex idempotents and a complement of rad^2 in rad generate each
    fixture algebra, its vertex corners and its quotients by one vertex; on
    a bound quiver algebra they are the vertex idempotents and the arrows."""
    for a in FIXTURE_ALGEBRAS:
        arrows = [j for j, label in enumerate(a.basis_labels)
                  if "*" not in label and j not in a.idempotent_indices]
        gens = a.generating_vectors()
        assert len(gens) == len(a.vertex_names) + len(arrows)
        assert set(gens) == {a.basis_vec(j) for j in a.idempotent_indices + tuple(arrows)}
        derived = ([corner_algebra(a, [v]).algebra for v in a.vertex_names]
                   + [quotient_of(a, [v]).algebra for v in a.vertex_names])
        for b in [a] + derived:
            assert _generated(b) == full(b.field, b.dim), b.basis_labels


def test_fixture_algebras_cover_every_field():
    assert {a.field for a in FIXTURE_ALGEBRAS} == {GF2, GF3, QQ}


@pytest.mark.parametrize("name", ["FIX-A2", "FIX-A3", "FIX-KRO", "FIX-NAK"])
def test_validate_sees_a_zero_structure_constant_made_nonzero(name):
    """Set a * a = a for an arrow a: v -> w with v != w (so a * a = 0).
    Then (a * e_w) * a = a but a * (e_w * a) = 0.  The algebra was validated
    when it was built, so its sparse table is cached: the replaced algebra
    must multiply with the table it is given, not that one."""
    a = build_algebra(load_fixture(name))
    assert "sparse" in a.cache

    def ends(i):
        b = a.basis_vec(i)
        return ({v for v in a.vertex_names if a.mul_vec(a.idempotent_vec(v), b) == b},
                {w for w in a.vertex_names if a.mul_vec(b, a.idempotent_vec(w)) == b})

    i = next(i for i, label in enumerate(a.basis_labels)
             if "*" not in label and not label.startswith("e_") and ends(i)[0] != ends(i)[1])
    assert a.mul_vec(a.basis_vec(i), a.basis_vec(i)) == a.zero_vec()
    mult = [list(row) for row in a.mult]
    mult[i][i] = a.basis_vec(i)
    bad = a._replace(mult=tuple(tuple(row) for row in mult))
    assert "sparse" not in bad.cache
    assert bad.mul_vec(a.basis_vec(i), a.basis_vec(i)) == a.basis_vec(i)
    rep = validate_algebra(bad)
    assert [name for name, _ in rep.issues][:1] == ["associativity"]


def test_validate_matches_the_mul_vec_reference():
    """Reading products off the structure table reports what the dense
    products report: nothing on every fixture algebra, its vertex corners
    and its quotients by a vertex."""
    for a in FIXTURE_ALGEBRAS:
        derived = ([corner_algebra(a, [v]).algebra for v in a.vertex_names]
                   + [quotient_of(a, [v]).algebra for v in a.vertex_names])
        for b in [a] + derived:
            assert validate_algebra(b).issues == algebra_issues_by_mul_vec(b) == ()


def _corruption(i):
    a = FIXTURE_ALGEBRAS[i]
    values = [0, 1, 2, -1] + ([] if a.field.is_finite else [Fraction(1, 2), 3])
    index = st.integers(0, a.dim - 1)
    return st.tuples(st.just(i), index, index, index, st.sampled_from(values).map(a.field.of))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(FIXTURE_ALGEBRAS) - 1).flatmap(_corruption))
def test_validate_matches_the_mul_vec_reference_on_corrupted_tables(corruption):
    """One structure constant b_i * b_j at b_k set to c: the same issues, in
    the same order and with the same witnesses, as the dense reference."""
    n, i, j, k, c = corruption
    a = FIXTURE_ALGEBRAS[n]
    mult = [[list(prod) for prod in row] for row in a.mult]
    mult[i][j][k] = c
    bad = a._replace(mult=tuple(tuple(tuple(prod) for prod in row) for row in mult))
    assert validate_algebra(bad).issues == algebra_issues_by_mul_vec(bad)


def _with_radical(a, vectors):
    return a._replace(radical=span(a.field, vectors, a.dim))


def test_validate_sees_a_radical_that_misses_an_arrow():
    """Without arrow x: v -> w the radical still is a nilpotent ideal here,
    but x survives in A/rad, so e_v (A/rad) e_w is too big."""
    for a in FIXTURE_ALGEBRAS:
        rad = a.radical.basis.row_list()
        arrows = [j for j, label in enumerate(a.basis_labels)
                  if "*" not in label and j not in a.idempotent_indices]
        for j in arrows:
            bad = _with_radical(a, [r for r in rad if r != a.basis_vec(j)])
            assert bad.radical.dim == len(rad) - 1
            assert "split-semisimple" in [name for name, _ in validate_algebra(bad).issues], a.basis_labels[j]


def test_validate_sees_a_radical_that_holds_a_vertex_idempotent():
    """rad + k e_v is never nilpotent, since e_v is idempotent."""
    for a in FIXTURE_ALGEBRAS:
        for i in a.idempotent_indices:
            bad = _with_radical(a, a.radical.basis.row_list() + [a.basis_vec(i)])
            names = [name for name, _ in validate_algebra(bad).issues]
            assert "radical-nilpotent" in names and "split-semisimple" in names, a.basis_labels[i]


@pytest.mark.parametrize("name, witnesses", [
    ("FIX-A3", ["dim e_1(A/rad)e_2 = 1, expected 0", "dim e_1(A/rad)e_3 = 1, expected 0",
                "dim e_2(A/rad)e_3 = 1, expected 0"]),
    ("FIX-KRO", ["dim e_1(A/rad)e_1 = 2, expected 1", "dim e_1(A/rad)e_2 = 2, expected 0",
                 "dim e_2(A/rad)e_1 = 1, expected 0"]),
])
def test_validate_names_each_wrong_block_of_a_radical_that_is_too_small(name, witnesses):
    """Radical 0 is a nilpotent two-sided ideal, so every check before the
    split-semisimple one passes, but dim A - dim rad exceeds the number of
    vertices: the pair loop runs and names each block of A/rad = A of the
    wrong dimension, as the dense reference does."""
    a = build_algebra(load_fixture(name))
    bad = _with_radical(a, [])
    issues = validate_algebra(bad).issues
    assert issues == tuple(("split-semisimple", w) for w in witnesses) == algebra_issues_by_mul_vec(bad)
