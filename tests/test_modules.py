import functools
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path

import pytest

from stratakit.algebra import build_bound_quiver_algebra, corner_algebra, opposite
from stratakit.category import ModuleCategory, is_isomorphic
from stratakit.corpus import corpus_index
from stratakit.linalg import GF2, GF3, QQ, Matrix
from stratakit.modules import (
    ModuleMap,
    RightModule,
    annihilator,
    cokernel,
    direct_sum,
    dual_module,
    element_map_from_projective,
    hom_basis,
    hom_combinations,
    identity_map,
    image,
    injective_envelope,
    injective_module,
    kernel,
    projective_cover,
    projective_module,
    quotient_module,
    regular_module,
    restrict_scalars,
    simple_module,
    submodule,
    times,
    top,
    zero_map,
)
from stratakit.specfile import build_algebra, parse_spec

from oracles import (
    reference_action_of,
    reference_annihilator,
    reference_direct_sum,
    reference_dual_module,
    reference_element_map_from_projective,
    reference_quotient_module,
    reference_restrict_scalars,
    reference_submodule,
    reference_times,
)
from support import auslander_algebra, fixture_algebras, full, generated_specs, load_fixture, quotient_of, span


@pytest.fixture(scope="module")
def a2():
    return build_algebra(load_fixture("FIX-A2"))


@pytest.fixture(scope="module")
def a3():
    return build_algebra(load_fixture("FIX-A3"))


@pytest.fixture(scope="module")
def nak():
    return build_algebra(load_fixture("FIX-NAK"))


@pytest.fixture(scope="module")
def dual():
    return build_algebra(load_fixture("FIX-DUAL"))


def test_cell_dimensions_a2(a2):
    assert projective_module(a2, "1")[0].dim == 2
    assert projective_module(a2, "2")[0].dim == 1
    assert injective_module(a2, "1").dim == 1
    assert injective_module(a2, "2").dim == 2
    assert simple_module(a2, "1").dim == 1
    assert simple_module(a2, "2").dim == 1


def test_cell_dimensions_nak(nak):
    for v in ("1", "2"):
        assert projective_module(nak, v)[0].dim == 2
        assert injective_module(nak, v).dim == 2


def test_cell_dimensions_a3(a3):
    dims_p = [projective_module(a3, v)[0].dim for v in ("1", "2", "3")]
    dims_i = [injective_module(a3, v).dim for v in ("1", "2", "3")]
    assert dims_p == [3, 2, 1]
    assert dims_i == [1, 2, 3]


def test_semisimple_cells():
    from stratakit.specfile import parse_spec

    data = {
        "field": {"kind": "GF", "p": 2},
        "quiver": {"vertices": ["1", "2"], "arrows": []},
    }
    a = build_algebra(parse_spec(data))
    for v in ("1", "2"):
        p, _ = projective_module(a, v)
        assert p.dim == 1
        assert injective_module(a, v).dim == 1
        assert simple_module(a, v).dim == 1


def test_yoneda_hom_dims(a2):
    p1, _ = projective_module(a2, "1")
    p2, _ = projective_module(a2, "2")
    s1 = simple_module(a2, "1")
    s2 = simple_module(a2, "2")
    assert len(hom_basis(p1, p1)) == 1
    assert len(hom_basis(p2, p1)) == 1  # P(1)e_2 = span{a}
    assert len(hom_basis(p1, p2)) == 0
    assert len(hom_basis(s1, s2)) == 0


def test_yoneda_random_modules(a2):
    # dim Hom(P(v), M) = dim M e_v for assorted M
    mods = [
        regular_module(a2),
        projective_module(a2, "1")[0],
        injective_module(a2, "2"),
        simple_module(a2, "1"),
    ]
    for v, idx in zip(a2.vertex_names, a2.idempotent_indices):
        p, _ = projective_module(a2, v)
        for m in mods:
            assert len(hom_basis(p, m)) == m.block(idx).rank()


def test_ksproj_dimension_pattern(a2, nak, a3):
    for a in (a2, nak, a3):
        for v in a.vertex_names:
            p, _ = projective_module(a, v)
            for w in a.vertex_names:
                s = simple_module(a, w)
                assert len(hom_basis(p, s)) == (1 if v == w else 0)


def test_kernel_image_identity(a2):
    reg = regular_module(a2)
    ident = identity_map(reg)
    k, _ = kernel(ident)
    assert k.dim == 0
    img, epi, mono = image(ident)
    assert img.dim == reg.dim
    z = zero_map(reg, reg)
    kz, _ = kernel(z)
    assert kz.dim == reg.dim
    imz, _, _ = image(z)
    assert imz.dim == 0


def test_nonzero_map_p2_to_p1(a2):
    p1, _ = projective_module(a2, "1")
    p2, _ = projective_module(a2, "2")
    maps = hom_basis(p2, p1)
    assert len(maps) == 1
    f = maps[0]
    img, _, _ = image(f)
    assert img.dim == 1
    # the image is the socle copy of S(2) inside P(1)
    s2 = simple_module(a2, "2")
    assert is_isomorphic(ModuleCategory(a2), img, s2).isomorphic
    coker, _ = cokernel(f)
    assert is_isomorphic(ModuleCategory(a2), coker, simple_module(a2, "1")).isomorphic


def test_structural_series_a2(a2):
    p1, _ = projective_module(a2, "1")
    rad = a2.radical.basis
    assert times(p1, rad).dim == 1
    assert is_isomorphic(ModuleCategory(a2), top(p1)[0], simple_module(a2, "1")).isomorphic
    soc, _ = submodule(p1, annihilator(p1, rad))
    assert is_isomorphic(ModuleCategory(a2), soc, simple_module(a2, "2")).isomorphic


def test_structural_series_semisimple(a2):
    s1 = simple_module(a2, "1")
    rad = a2.radical.basis
    assert times(s1, rad).dim == 0
    assert top(s1)[0].dim == 1
    assert annihilator(s1, rad).dim == 1


def test_structural_series_dual_numbers(dual):
    reg = regular_module(dual)
    rad = dual.radical.basis
    assert times(reg, rad).dim == 1
    assert annihilator(reg, rad).dim == 1
    assert times(reg, rad) == annihilator(reg, rad)


def test_projective_cover_of_projective(a2):
    p1, _ = projective_module(a2, "1")
    cov = projective_cover(p1)
    assert cov.summands == (("1", 1),)
    assert cov.cover_map.is_isomorphism()


def test_projective_cover_of_simple(a2):
    s1 = simple_module(a2, "1")
    cov = projective_cover(s1)
    assert cov.summands == (("1", 1),)
    k, _ = kernel(cov.cover_map)
    assert is_isomorphic(ModuleCategory(a2), k, simple_module(a2, "2")).isomorphic


def test_projective_cover_additive(a2):
    s1 = simple_module(a2, "1")
    s2 = simple_module(a2, "2")
    both, _, _ = direct_sum([s1, s2])
    cov = projective_cover(both)
    assert dict(cov.summands) == {"1": 1, "2": 1}
    assert cov.projective.dim == 3


def test_simples_and_injectives_are_built_once_per_algebra(a2):
    for v in a2.vertex_names:
        assert simple_module(a2, v) is simple_module(a2, v)
        assert injective_module(a2, v) is injective_module(a2, v)
    fresh = a2._replace()
    assert fresh == a2 and a2.cache and fresh.cache == {}
    assert simple_module(fresh, "1") == simple_module(a2, "1")
    assert simple_module(fresh, "1") is not simple_module(a2, "1")


def test_the_dual_of_an_injective_is_the_projective_over_the_opposite():
    """D I(b) is P(b) over A^op, the same object, so the injective flag side
    is the projective flag side over A^op."""
    count = 0
    for a in fixture_algebras():
        for b in a.vertex_names:
            assert dual_module(injective_module(a, b)) is projective_module(opposite(a), b)[0]
            count += 1
    assert count == 48


def test_equal_modules_over_one_algebra_are_one_object():
    """A module is found by its action in its algebra's weak table: S(v) is
    the kept top of P(v), a dual's dual is the module, and a module that no
    caller holds leaves the table.  An equal algebra instance keeps its own
    table, and a kept hom basis is a tuple no caller can change."""
    for a in fixture_algebras():
        for v in a.vertex_names:
            pv = projective_module(a, v)[0]
            assert simple_module(a, v) is top(pv)[0]
            assert RightModule(a, pv.dim, Matrix(a.field, pv.action.rows, pv.dim, pv.action.entries)) is pv
            for m in (pv, injective_module(a, v), simple_module(a, v)):
                assert dual_module(dual_module(m)) is m
    a = build_algebra(load_fixture("FIX-A2"))
    both = direct_sum([simple_module(a, "1"), simple_module(a, "2")])[0]
    projective_cover(both)  # kept on both, with maps back to it: a cycle
    table = a.cache["modules"]
    alive, key = weakref.ref(both), both.action
    assert table[key] is both
    del both
    gc.collect()
    assert alive() is None and key not in table
    fresh = a._replace()
    p1, q1 = projective_module(a, "1")[0], projective_module(fresh, "1")[0]
    assert p1 == q1 and p1 is not q1 and fresh.cache["modules"] is not table
    basis = hom_basis(projective_module(a, "2")[0], p1)
    assert isinstance(basis, tuple) and len(basis) == 1
    assert hom_basis(projective_module(a, "2")[0], p1) is basis
    with pytest.raises(AttributeError):
        basis.append(basis[0])


PIN_COUNTS = """
import contextlib, io, json, weakref
import pytest
from stratakit import modules
from stratakit.cli import main
from support import count_calls
with pytest.MonkeyPatch.context() as mp:
    counts = [count_calls(mp, modules.RightModule, "__init__"),
              count_calls(mp, weakref.WeakValueDictionary, "__setitem__"),
              count_calls(mp, modules, "intertwiner_basis"),
              count_calls(mp, modules, "_projective_cover"),
              count_calls(mp, modules, "_top")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["corpus", "--seed", "11"])
print(json.dumps([code, *map(len, counts)]))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_corpus_builds_each_module_value_once(hash_seed):
    """Work counters of ``corpus --seed 11``, in a fresh interpreter per
    hash seed: 1,741 module constructions give 397 module objects (each
    enters its algebra's table once), which solve 148 hom systems and build
    48 projective covers and 83 tops.  While every construction made a new
    object, 1,939 constructions solved 237 hom systems and built 87 covers
    and 224 tops."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    res = subprocess.run([sys.executable, "-c", PIN_COUNTS], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, 1741, 397, 148, 48, 83]


def test_injective_envelope(a2):
    i2 = injective_module(a2, "2")
    env = injective_envelope(i2)
    assert env.envelope_map.is_isomorphism()
    s2 = simple_module(a2, "2")
    env2 = injective_envelope(s2)
    assert env2.injective.dim == 2
    assert is_isomorphic(ModuleCategory(a2), env2.injective, i2).isomorphic
    s1 = simple_module(a2, "1")
    env1 = injective_envelope(s1)
    assert env1.injective.dim == 1  # vertex 1 is a source


def test_is_isomorphic_basics(a2):
    p1, _ = projective_module(a2, "1")
    res = is_isomorphic(ModuleCategory(a2), p1, p1)
    assert res.isomorphic and res.certificate.is_isomorphism()
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    res = is_isomorphic(ModuleCategory(a2), s1, s2)
    assert not res.isomorphic and "dimension vectors" in res.reason


def test_is_isomorphic_distinguishes_extensions(nak):
    # P(1) and S(1) + S(2) have the same dimension vector but are not isomorphic
    p1, _ = projective_module(nak, "1")
    ss, _, _ = direct_sum([simple_module(nak, "1"), simple_module(nak, "2")])
    res = is_isomorphic(ModuleCategory(nak), p1, ss)
    assert not res.isomorphic


def test_dual_module_roundtrip(a2):
    p1, _ = projective_module(a2, "1")
    assert dual_module(dual_module(p1)) == p1


def test_quotient_and_submodule_consistency(a2):
    reg = regular_module(a2)
    rad = times(reg, a2.radical.basis)
    sub, incl = submodule(reg, rad)
    quo, proj = quotient_module(reg, rad)
    assert sub.dim + quo.dim == reg.dim
    assert incl.then(proj).is_zero


def test_submodule_of_a_non_closed_subspace_is_rejected(a2):
    # the unit spans a line, but its multiples fill the whole algebra
    reg = regular_module(a2)
    with pytest.raises(ValueError, match="subspace not closed under the action"):
        submodule(reg, span(a2.field, [a2.unit], reg.dim))


def test_sum_of_maps_with_different_ends_is_rejected(a2):
    p1, _ = projective_module(a2, "1")
    p2, _ = projective_module(a2, "2")
    f, g = identity_map(p1), zero_map(p1, p2)
    for op in (lambda: f + g, lambda: g - f):
        with pytest.raises(ValueError, match="different sources or targets"):
            op()
    assert (f - f).is_zero and (g + g) == g


def test_action_of_sums_only_the_nonzero_terms(a2):
    """A unit vector gives its action matrix itself, not a scaled copy, and
    a combination the same matrix as the dense sum."""
    reg = regular_module(a2)
    F = a2.field
    for k in range(a2.dim):
        assert reg.action_of(a2.basis_vec(k)) is reg.block(k)
    assert reg.action_of(a2.zero_vec()) == Matrix.zero(F, reg.dim, reg.dim)
    assert reg.action_of(a2.unit) == reg.block(0) + reg.block(1) == Matrix.identity(F, reg.dim)


def test_universal_property_probes(a2):
    """Kernel/cokernel universal properties against random competing maps."""
    rng = random.Random(7)
    F = a2.field
    p1, _ = projective_module(a2, "1")
    reg = regular_module(a2)
    mods = [p1, reg, injective_module(a2, "2"), simple_module(a2, "1")]
    for _ in range(25):
        m = rng.choice(mods)
        n = rng.choice(mods)
        hb = hom_basis(m, n)
        if not hb:
            continue
        f = hb[0]
        for h in hb[1:]:
            if rng.random() < 0.5:
                f = f + h
        k, k_incl = kernel(f)
        # every g: T -> m with g;f = 0 factors uniquely through the kernel
        t = rng.choice(mods)
        for g in hom_basis(t, m):
            if g.then(f).is_zero:
                sol = k_incl.mat.solve_left(g.mat)
                assert sol is not None
                assert ModuleMap(t, k, sol).then(k_incl).mat == g.mat
        c, c_proj = cokernel(f)
        for g in hom_basis(n, t):
            if f.then(g).is_zero:
                sol = c_proj.mat.transpose().solve_left(g.mat.transpose())
                assert sol is not None
                assert c_proj.then(ModuleMap(c, t, sol.transpose())).mat == g.mat


@dataclass(frozen=True)
class Cells:
    """The distinguished modules of an algebra in vertex order."""

    regular: RightModule
    projectives: tuple[RightModule, ...]
    simples: tuple[RightModule, ...]
    injectives: tuple[RightModule, ...]


def cells(algebra) -> Cells:
    """Regular module plus all P(v), S(v), I(v).

    Indecomposability of each P(v) is certified by the hom-dimension
    pattern dim Hom(P(v), S(w)) = [v = w].
    """
    projs = []
    simps = []
    injs = []
    for v in algebra.vertex_names:
        projs.append(projective_module(algebra, v)[0])
        simps.append(simple_module(algebra, v))
        injs.append(injective_module(algebra, v))
    for v, p in zip(algebra.vertex_names, projs):
        for w, s in zip(algebra.vertex_names, simps):
            want = 1 if v == w else 0
            got = len(hom_basis(p, s))
            if got != want:
                raise ValueError(
                    f"cover pattern broken: dim Hom(P({v}), S({w})) = {got}, expected {want}"
                )
    return Cells(
        regular=regular_module(algebra),
        projectives=tuple(projs),
        simples=tuple(simps),
        injectives=tuple(injs),
    )


def test_cells_bundle(a2, nak):
    for alg in (a2, nak):
        c = cells(alg)
        assert len(c.projectives) == len(c.simples) == len(c.injectives) == len(alg.vertex_names)
        assert c.regular.dim == alg.dim
        assert sum(p.dim for p in c.projectives) == alg.dim


def test_composition_associative(a2):
    rng = random.Random(5)
    mods = [
        regular_module(a2),
        projective_module(a2, "1")[0],
        injective_module(a2, "2"),
        simple_module(a2, "2"),
    ]
    checked = 0
    for _ in range(200):
        w, x, y, z = (rng.choice(mods) for _ in range(4))
        fs, gs, hs = hom_basis(w, x), hom_basis(x, y), hom_basis(y, z)
        if not (fs and gs and hs):
            continue
        f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
        assert f.then(g).then(h).mat == f.then(g.then(h)).mat
        checked += 1
    assert checked > 20


def unit_hom_basis(field: dict) -> list[ModuleMap]:
    """The basis of Hom(S, S^3) over the one-vertex algebra: the maps whose
    1 x 3 matrices are the unit rows, so a combination's matrix entries are
    its coefficients."""
    a = build_algebra(parse_spec({"field": field, "quiver": {"vertices": ["1"], "arrows": []},
                                  "relations": []}))
    s = simple_module(a, "1")
    basis = hom_basis(s, direct_sum([s, s, s])[0])
    assert [h.mat.entries for h in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return basis


# the candidate sequences of the search these replace, on the basis above
HEURISTIC = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
EXHAUSTIVE_GF3 = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 0, 1), (1, 0, 2),
                  (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2)]


@pytest.mark.parametrize("field", [{"kind": "GF", "p": 3}, {"kind": "Q"}], ids=["GF3", "Q"])
def test_hom_combinations_heuristic_order(field):
    basis = unit_hom_basis(field)
    got = [h.mat.entries for h in hom_combinations(basis, basis[0].mat.field, False)]
    n = len(basis)
    assert got == HEURISTIC and len(got) == n + n * (n - 1) // 2


def test_hom_combinations_exhaustive_order_gf3():
    basis = unit_hom_basis({"kind": "GF", "p": 3})
    got = [h.mat.entries for h in hom_combinations(basis, basis[0].mat.field, True)]
    # every nonzero coefficient tuple up to scalar, first nonzero entry 1
    assert got == EXHAUSTIVE_GF3 and len(got) == (3 ** 3 - 1) // (3 - 1)
    assert all(next(c for c in t if c) == 1 for t in got)


def test_hom_combinations_exhaustive_over_q_raises():
    basis = unit_hom_basis({"kind": "Q"})
    with pytest.raises(ValueError):
        list(hom_combinations(basis, basis[0].mat.field, True))


def test_restrict_scalars_along_quotient_projection(a3):
    """Each simple, projective and injective of A/AeA, restricted along the
    projection A ->> A/AeA, is an A-module that e kills."""
    F = a3.field
    for k in range(len(a3.vertex_names) + 1):
        for vs in itertools.combinations(a3.vertex_names, k):
            quot = quotient_of(a3, vs)
            q = quot.algebra
            e = a3.idempotent_sum(vs)
            for v in q.vertex_names:
                for x in (simple_module(q, v), projective_module(q, v)[0], injective_module(q, v)):
                    m = restrict_scalars(x, a3, quot.projection)
                    assert m.algebra == a3 and m.dim == x.dim
                    assert m.action_of(e).is_zero
                    assert m.action_of(a3.unit) == Matrix.identity(F, m.dim)
                    for i in range(a3.dim):
                        for j in range(a3.dim):
                            assert m.block(i) @ m.block(j) == m.action_of(a3.mult[i][j])


def _rule_cases():
    """(algebra, fixture modules) for each fixture algebra over GF(2), GF(3)
    and Q, its vertex corners and its quotients by one vertex: the
    projectives, injectives and simples of each."""
    for a in fixture_algebras():
        derived = ([corner_algebra(a, [v]).algebra for v in a.vertex_names]
                   + [quotient_of(a, [v]).algebra for v in a.vertex_names])
        for b in [a] + derived:
            mods = []
            for v in b.vertex_names:
                mods += [projective_module(b, v)[0], injective_module(b, v), simple_module(b, v)]
            yield b, mods


def _stacked(mats, side_by_side):
    out = mats[0]
    for x in mats[1:]:
        out = out.hstack(x) if side_by_side else out.stack(x)
    return out


def test_times_and_annihilator_follow_their_definitions():
    fields = set()
    for b, mods in _rule_cases():
        fields.add(b.field)
        element_sets = [b.radical.basis]
        for v in b.vertex_names:
            e = b.idempotent_vec(v)
            element_sets += [Matrix(b.field, 1, b.dim, e), b.left_mult_matrix(e).row_space().basis,
                             b.right_mult_matrix(e).row_space().basis]
        for m in mods:
            F = m.algebra.field
            assert times(m, Matrix(F, 0, b.dim, ())) == span(F, [], m.dim)
            assert annihilator(m, Matrix(F, 0, b.dim, ())) == full(F, m.dim)
            for elements in element_sets:
                if not elements.rows or m.dim == 0:
                    continue
                acts = [m.action_of(s) for s in elements.row_list()]
                # M·S: every v·s, for v a basis vector, and nothing more
                products = _stacked(acts, side_by_side=False)
                assert times(m, elements) == span(F, products.row_list(), m.dim)
                # {v : v·s = 0 for all s}: killed by each s, and as large as the rank allows
                ann = annihilator(m, elements)
                assert all(act.apply_row(v) == (F.zero,) * m.dim
                           for v in ann.basis.row_list() for act in acts)
                assert ann.dim == m.dim - _stacked(acts, side_by_side=True).rank()
    assert fields == {GF2, GF3, QQ}


def test_the_recollement_spaces_are_the_two_rules():
    """M e A is M·(a basis of eA) and {v : v A e = 0} the annihilator of a
    basis of Ae, as ``make_idempotent_recollement`` and ``porism_check``
    compute them."""
    for b, mods in _rule_cases():
        for v in b.vertex_names:
            e = b.idempotent_vec(v)
            e_a = b.left_mult_matrix(e).row_space().basis
            a_e = b.right_mult_matrix(e).row_space().basis
            for m in mods:
                if m.dim == 0:
                    continue
                act_e = m.action_of(e)
                blocks = [m.block(k) for k in range(b.dim)]
                trace = _stacked([act_e @ x for x in blocks], side_by_side=False).row_space()
                assert times(m, e_a) == trace
                assert times(m, b.left_mult_matrix(e)) == trace
                killed = _stacked([x @ act_e for x in blocks], side_by_side=True).left_kernel()
                assert annihilator(m, a_e) == killed


def test_top_and_simples_compute_no_socle(monkeypatch):
    """The top is a quotient by M rad A: building it, or a simple module,
    solves no kernel, so no socle is computed on the way."""
    kernels = []
    real = Matrix.left_kernel

    def counted(self):
        kernels.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "left_kernel", counted)
    for a in fixture_algebras():
        for v in a.vertex_names:
            s = simple_module(a, v)
            for m in (projective_module(a, v)[0], injective_module(a, v), s):
                head, proj = top(m)
                assert proj.source == m and proj.target == head and proj.is_surjective()
    assert kernels == []


# -- the one action matrix against the per-element references -----------------


def _differential_algebras():
    """Every bundled fixture and golden input, 60 generated inputs and the
    Auslander algebras Λ_2..Λ_4, each over GF(3) and over Q where it is
    admissible and finite-dimensional there."""
    golden = sorted((Path(__file__).parent / "golden").glob("*.input.json"))
    presentations = ([load_fixture(e.name).presentation for e in corpus_index() if e.expect_error is None]
                     + [parse_spec(json.loads(p.read_text())).presentation for p in golden]
                     + [parse_spec(data).presentation for data in generated_specs(101, 60)]
                     + [auslander_algebra(n) for n in (2, 3, 4)])
    for pres in presentations:
        for F in (GF3, QQ):
            try:
                yield build_bound_quiver_algebra(pres, F)
            except ValueError:
                continue


def _differential_modules(a):
    """The standard samples, their tops, and the kernel and image of the
    sum of the hom basis P(v) -> I(v) at each vertex."""
    samples = [x for _, x in ModuleCategory(a).standard_samples()]
    mods = samples + [top(x)[0] for x in samples]
    for v in a.vertex_names:
        basis = hom_basis(projective_module(a, v)[0], injective_module(a, v))
        f = functools.reduce(ModuleMap.__add__, basis)
        mods += [kernel(f)[0], image(f)[0]]
    return list(dict.fromkeys(mods))


def _same_outcome(new, ref):
    """Both calls return equal values, or both raise ``ValueError``."""
    try:
        want = ref()
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return
    assert new() == want


def test_constructors_match_the_per_element_references():
    """Differential: every constructor that writes the one action matrix
    gives the modules, maps and subspaces that computing one block per
    algebra basis element gave (the references in oracles.py)."""
    algebras = modules_checked = 0
    for a in _differential_algebras():
        algebras += 1
        F = a.field
        # eAe and A/AeA at the last vertex: restricting along the corner's
        # embedding and the quotient's section
        last = a.vertex_names[-1:]
        along = [(d.algebra, d.embed) for d in [corner_algebra(a, last)]]
        along += [(d.algebra, d.section) for d in [quotient_of(a, last)]]
        e = a.idempotent_sum(last)
        element_sets = [a.radical.basis, Matrix(F, 0, a.dim, ()), Matrix(F, 1, a.dim, e),
                        a.left_mult_matrix(e).row_space().basis, a.right_mult_matrix(e).row_space().basis]
        mods = _differential_modules(a)
        for m in mods:
            modules_checked += 1
            assert m.action_of(a.unit) == reference_action_of(m, a.unit)
            assert dual_module(m) == reference_dual_module(m)
            spaces = []
            for elements in element_sets:
                spaces += [times(m, elements), annihilator(m, elements)]
                assert spaces[-2:] == [reference_times(m, elements), reference_annihilator(m, elements)]
            # the radical and the socle, M e (not closed in general), M e A and {v : v A e = 0}
            for space in (spaces[0], spaces[1], spaces[4], spaces[6], spaces[9]):
                _same_outcome(lambda: submodule(m, space), lambda: reference_submodule(m, space))
                _same_outcome(lambda: quotient_module(m, space), lambda: reference_quotient_module(m, space))
            for b, rows in along:
                assert restrict_scalars(m, b, rows) == reference_restrict_scalars(m, b, rows)
            for v in a.vertex_names:
                pv, incl = projective_module(a, v)
                for u in m.action_of(a.idempotent_vec(v)).row_list():
                    assert (element_map_from_projective(pv, incl.mat, m, u)
                            == reference_element_map_from_projective(pv, incl.mat, m, u))
        assert direct_sum(mods) == reference_direct_sum(mods)
        assert direct_sum(mods[:2]) == reference_direct_sum(mods[:2])
    assert algebras > 100 and modules_checked > 1000


def test_a_quotient_is_one_product_and_a_submodule_two(monkeypatch):
    """Whatever the algebra's dimension, ``quotient_module`` makes one
    product (the non-pivot rows of every block times the projection) and
    ``submodule`` two (the basis times the blocks side by side, and
    ``solve_left``'s check), not one or two per algebra basis element."""
    products = []
    real = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda x, y: products.append(None) or real(x, y))
    dims = set()
    for a in [*fixture_algebras(), *(build_bound_quiver_algebra(auslander_algebra(n), GF3) for n in (3, 4))]:
        dims.add(a.dim)
        for m in [regular_module(a)] + [projective_module(a, v)[0] for v in a.vertex_names]:
            rad = times(m, a.radical.basis)
            products.clear()
            quotient_module(m, rad)
            assert len(products) == 1
            products.clear()
            submodule(m, rad)
            assert len(products) == 2
    assert max(dims) >= 20 and len(dims) >= 5
