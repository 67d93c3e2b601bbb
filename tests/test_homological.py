import contextlib
import io
import json
from pathlib import Path

import pytest

from stratakit.algebra import Presentation, Quiver, build_bound_quiver_algebra
from stratakit.category import ModuleCategory, is_isomorphic
from stratakit import analyze, homological, modules, strat
from stratakit.cli import main
from stratakit.corpus import corpus_index
from stratakit.homological import (
    ExtClass,
    _connecting_map,
    _pushout_extension,
    ext,
    projective_resolution,
    reduce_cocycle,
    universal_extension,
)
from stratakit.linalg import GF3, QQ, InvariantError, Matrix
from stratakit.modules import (
    combine,
    hom_basis,
    identity_map,
    injective_module,
    kernel,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    times,
    zero_map,
)
from stratakit.specfile import build_algebra, parse_spec

from oracles import ext1_dimension_by_enumeration, pushout_extension_along_kernel, reference_projective_resolution
from support import auslander_algebra, count_calls, is_injective, load_fixture


@pytest.fixture(scope="module")
def a2():
    return build_algebra(load_fixture("FIX-A2"))


@pytest.fixture(scope="module")
def nak():
    return build_algebra(load_fixture("FIX-NAK"))


@pytest.fixture(scope="module")
def dual():
    return build_algebra(load_fixture("FIX-DUAL"))


def test_resolution_of_projective_stops(a2):
    p1, _ = projective_module(a2, "1")
    res = projective_resolution(p1, 5)
    assert len(res.terms) == 1
    assert res.augmentation.is_isomorphism()


def test_resolution_of_s1_a2(a2):
    s1 = simple_module(a2, "1")
    res = projective_resolution(s1, 5)
    assert len(res.terms) == 2
    assert res.terms[0].dim == 2  # P(1)
    assert res.terms[1].dim == 1  # P(2)
    assert is_injective(res.differentials[0])


def test_resolution_periodic_nak(nak):
    s1 = simple_module(nak, "1")
    res = projective_resolution(s1, 4)
    dims = [t.dim for t in res.terms]
    assert dims == [2, 2, 2, 2, 2]
    # alternating covers P(1), P(2), P(1), ...
    from stratakit.modules import top

    tops = [top(t)[0].vertex_dims() for t in res.terms]
    assert tops[0] != tops[1] and tops[0] == tops[2]


def test_a_shorter_resolution_is_the_prefix_of_the_kept_one():
    """After degree 3 is built, degree 1 (and 0) is what a resolution built
    from scratch for that length is."""
    s1 = simple_module(build_algebra(load_fixture("FIX-NAK")), "1")
    assert projective_resolution(s1, 3) == reference_projective_resolution(s1, 3)
    for length in (1, 0, 3):
        assert projective_resolution(s1, length) == reference_projective_resolution(s1, length)


def test_a_longer_resolution_grows_the_kept_one(monkeypatch):
    """Asking for degree 1 and then 3 computes each cover once: the second
    call extends the first resolution from its last cover."""
    covers = count_calls(monkeypatch, homological, "projective_cover")
    s1 = simple_module(build_algebra(load_fixture("FIX-NAK")), "1")
    projective_resolution(s1, 1)
    assert len(covers) == 2
    res = projective_resolution(s1, 3)
    assert len(covers) == len(res.terms) == 4
    assert res == reference_projective_resolution(s1, 3)


def test_a_resolution_that_stopped_is_complete_for_any_length(monkeypatch):
    """S(1) over A_2 has projective dimension 1: once its zero kernel is
    seen, every longer request gets the whole resolution and no cover."""
    covers = count_calls(monkeypatch, homological, "projective_cover")
    s1 = simple_module(build_algebra(load_fixture("FIX-A2")), "1")
    assert len(projective_resolution(s1, 2).terms) == 2
    built = len(covers)
    for length in (5, 9):
        assert projective_resolution(s1, length) == reference_projective_resolution(s1, length)
    assert len(covers) == built == 2


def test_homological_check_on_c3_over_q_is_counter_gated(tmp_path, monkeypatch):
    """The k-homological check asks Ext in degrees 0, 1 and 2 of each
    module: one resolution per module grown to the longest, so 9 projective
    covers in all where a resolution per degree built 32."""
    covers = [count_calls(monkeypatch, m, "projective_cover") for m in (modules, homological, analyze, strat)]
    golden = Path(__file__).parent / "golden"
    path = tmp_path / "c3_q.json"  # the report names the input by its file stem
    path.write_bytes((golden / "c3_q.input.json").read_bytes())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", str(path), "--mode", "homological", "--seed", "0"])
    assert out.getvalue() == (golden / "c3_q.homological.json").read_text()
    assert sum(map(len, covers)) <= 10


def test_minimality_differentials_in_radical(a2, nak):
    for alg, v in [(a2, "1"), (nak, "1"), (nak, "2")]:
        s = simple_module(alg, v)
        res = projective_resolution(s, 3)
        for i, d in enumerate(res.differentials, start=1):
            rad = times(res.terms[i - 1], alg.radical.basis)
            assert rad.contains_space(d.mat.row_space())


def test_ext_projective_source_vanishes(a2):
    p1, _ = projective_module(a2, "1")
    for n_mod in (simple_module(a2, "1"), simple_module(a2, "2"), regular_module(a2)):
        assert ext(p1, n_mod, 1).dim == 0


def test_ext_degree0_is_hom(a2, nak):
    for alg in (a2, nak):
        for v in alg.vertex_names:
            for w in alg.vertex_names:
                m = simple_module(alg, v)
                n = simple_module(alg, w)
                assert ext(m, n, 0).dim == len(hom_basis(m, n))


def test_ext_values_a2(a2):
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    assert ext(s1, s2, 1).dim == 1
    assert ext(s2, s1, 1).dim == 0
    assert ext(s1, s2, 2).dim == 0


def test_ext_values_nak(nak):
    s1, s2 = simple_module(nak, "1"), simple_module(nak, "2")
    assert ext(s1, s2, 1).dim == 1
    assert ext(s2, s1, 1).dim == 1
    assert ext(s1, s1, 2).dim == 1
    assert ext(s1, s2, 2).dim == 0


def test_ext_values_dual(dual):
    s = simple_module(dual, "1")
    for n in range(4):
        assert ext(s, s, n).dim == 1  # periodic resolution of the dual numbers


@pytest.mark.parametrize("n, F", [(n, GF3) for n in (2, 3, 4, 5)] + [(n, QQ) for n in (2, 3, 4)], ids=str)
def test_ext_between_simples_of_the_auslander_algebra(n, F):
    """Lambda_n, the Auslander algebra of k[x]/(x^n), vertex i the module
    k[x]/(x^i), has global dimension 2 (M. Auslander, "Representation
    dimension of Artin algebras", 1971).  The almost split sequences
    0 -> M_j -> M_(j-1) + M_(j+1) -> M_j -> 0 give pd S_j = 2 for j < n, and
    rad M_n = M_(n-1) gives pd S_n = 1: Ext^1 between neighbours, Ext^2(S_j,
    S_j) for j < n, nothing in degree 3."""
    a = build_bound_quiver_algebra(auslander_algebra(n), F)
    simples = [simple_module(a, str(i)) for i in range(1, n + 1)]
    for u, su in enumerate(simples, 1):
        for v, sv in enumerate(simples, 1):
            want = (int(u == v), int(abs(u - v) == 1), int(u == v < n), 0)
            assert tuple(ext(su, sv, d).dim for d in range(4)) == want, (u, v)


def realize_ext1(cls):
    """Short exact sequence with connecting class equal to ``cls``."""
    if cls.degree != 1:
        raise ValueError("only degree-1 classes are realizable as extensions")
    return _pushout_extension(projective_resolution(cls.source, 2), cls.cocycle)


def extract_ext1(ses):
    """Connecting class of 0 -> N -> E -> M -> 0 in Ext^1(M, N)."""
    m, n = ses.quotient, ses.sub
    res = projective_resolution(m, 2)
    space = ext(m, n, 1)
    coords = reduce_cocycle(space, _connecting_map(ses, res))
    return make_class(space, coords)


def make_class(space, coords):
    p_n = projective_resolution(space.source, space.degree + 1).term(space.degree)
    cocycle = combine(coords, [cls.cocycle for cls in space.classes], zero_map(p_n, space.target))
    return ExtClass(space.degree, space.source, space.target, cocycle)


def classes_equal(space, a, b) -> bool:
    return reduce_cocycle(space, a.cocycle) == reduce_cocycle(space, b.cocycle)


def test_realize_zero_class_splits(a2):
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    space = ext(s2, s1, 1)
    assert space.dim == 0  # nothing to realize; build the split case by hand
    from stratakit.modules import direct_sum

    space10 = ext(s1, s2, 1)
    assert space10.dim == 1
    zero_cls = make_class(space10, (0,))
    ses = realize_ext1(zero_cls)
    split, _, _ = direct_sum([s2, s1])
    assert ses.middle.dim == 2
    assert is_isomorphic(ModuleCategory(a2), ses.middle, split).isomorphic


def test_realize_generator_gives_p1(a2):
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    space = ext(s1, s2, 1)
    assert space.dim == 1
    ses = realize_ext1(space.classes[0])
    p1, _ = projective_module(a2, "1")
    assert is_isomorphic(ModuleCategory(a2), ses.middle, p1).isomorphic


def test_realize_extract_roundtrip(a2, nak):
    for alg in (a2, nak):
        for v in alg.vertex_names:
            for w in alg.vertex_names:
                m, n = simple_module(alg, v), simple_module(alg, w)
                space = ext(m, n, 1)
                for cls in space.classes:
                    ses = realize_ext1(cls)
                    assert ses.verify()
                    assert ses.middle.dim == m.dim + n.dim
                    back = extract_ext1(ses)
                    assert classes_equal(space, cls, back)


def fixture_and_golden_algebras():
    """Every bundled fixture and golden input rebuilt over GF(3) and Q,
    where it is admissible and finite-dimensional there."""
    golden = Path(__file__).parent / "golden"
    presentations = [load_fixture(e.name).presentation for e in corpus_index() if e.expect_error is None]
    presentations += [parse_spec(json.loads(p.read_text()), name=p.name).presentation
                      for p in sorted(golden.glob("*.input.json"))]
    out = []
    for pres in presentations:
        for F in (GF3, QQ):
            try:
                out.append(build_bound_quiver_algebra(pres, F))
            except ValueError:
                continue
    return out


def test_pushout_along_d1_is_the_pushout_along_the_kernel():
    """The extension of a class built as the cokernel of (f, -d_1) on P_1
    is, by value, the pushout along K = ker(aug) -> P_0: d_1 maps P_1 onto
    K, so both quotient T + P_0 by the same canonical subspace.  Every
    degree-1 class between simples of every fixture and golden input."""
    compared = 0
    for alg in fixture_and_golden_algebras():
        for v in alg.vertex_names:
            m = simple_module(alg, v)
            res = projective_resolution(m, 2)
            for w in alg.vertex_names:
                for cls in ext(m, simple_module(alg, w), 1).classes:
                    assert _pushout_extension(res, cls.cocycle) == pushout_extension_along_kernel(res, cls.cocycle)
                    compared += 1
    assert compared >= 50


def test_pushout_requires_the_augmentation_to_vanish_on_the_relations(a2):
    """E -> M is read through the cokernel's section only after (0, aug)
    is checked to vanish on the image of (f, -d_1)."""
    s1 = simple_module(a2, "1")
    cls = ext(s1, simple_module(a2, "2"), 1).classes[0]
    res = projective_resolution(s1, 2)
    p0 = res.term(0)
    broken = res._replace(module=p0, augmentation=identity_map(p0))
    with pytest.raises(InvariantError, match="does not vanish"):
        _pushout_extension(broken, cls.cocycle)


def test_reduce_cocycle_reads_the_kept_class_basis(a2, nak, monkeypatch):
    """The kept class basis is the classes' reductions, so each class
    reduces to its unit coordinates, and reducing eliminates no matrix:
    every ``rref`` it asks for is already kept."""
    spaces = [ext(simple_module(alg, v), simple_module(alg, w), 1)
              for alg in (a2, nak) for v in alg.vertex_names for w in alg.vertex_names]
    kept = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: kept.append("_rref" in self.__dict__) or rref(self))
    for space in spaces:
        assert space.class_basis.dim == space.dim
        for i, cls in enumerate(space.classes):
            assert reduce_cocycle(space, cls.cocycle) == tuple(int(j == i) for j in range(space.dim))
    assert kept and all(kept)


def test_universal_extension_trivial(a2):
    s2 = simple_module(a2, "2")
    ue = universal_extension(s2, [simple_module(a2, "1"), s2])
    assert ue.multiplicities == (0, 0)
    assert ue.middle == s2


def test_universal_extension_a2(a2):
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    ue = universal_extension(s1, [s2])
    assert ue.multiplicities == (1,)
    p1, _ = projective_module(a2, "1")
    assert is_isomorphic(ModuleCategory(a2), ue.middle, p1).isomorphic


def test_universal_extension_nak(nak):
    s1, s2 = simple_module(nak, "1"), simple_module(nak, "2")
    ue = universal_extension(s1, [s2])
    p1, _ = projective_module(nak, "1")
    assert is_isomorphic(ModuleCategory(nak), ue.middle, p1).isomorphic
    # the middle still has self-extensions upstairs; the construction only
    # kills Ext^1 against the listed targets one step at a time
    assert ext(ue.middle, s2, 1).dim == 0


def test_ext1_oracle_agreement(a2, nak, dual):
    """dim Ext^1 from minimal resolutions == exhaustive enumeration count."""
    for alg in (a2, nak, dual):
        for v in alg.vertex_names:
            for w in alg.vertex_names:
                m, n = simple_module(alg, v), simple_module(alg, w)
                assert ext(m, n, 1).dim == ext1_dimension_by_enumeration(m, n)


def test_ext1_oracle_bigger_modules(a2):
    p1, _ = projective_module(a2, "1")
    s2 = simple_module(a2, "2")
    # projective source: zero on both routes
    assert ext1_dimension_by_enumeration(p1, s2) == ext(p1, s2, 1).dim == 0
    i2_dual = simple_module(a2, "1")
    from stratakit.modules import injective_module

    i2 = injective_module(a2, "2")
    assert ext1_dimension_by_enumeration(i2_dual, i2) == ext(i2_dual, i2, 1).dim


def test_ext_cocycles_are_a_kernel_not_a_basis_filter():
    """1 => 2 -> 3 with a*c = b*c over GF(3): d_2 ; h can vanish on a
    combination of hom-basis maps h that each survive it.  Degree 0 is the
    hom space, and degree 1 follows from 0 -> Hom(M, N) -> Hom(P_0, N) ->
    Hom(Omega M, N) -> Ext^1(M, N) -> 0."""
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")))
    alg = build_bound_quiver_algebra(Presentation.from_names(q, [[(1, ["a", "c"]), (-1, ["b", "c"])]]), GF3)
    samples = [f(alg, v) for f in (simple_module, lambda a, v: projective_module(a, v)[0], injective_module)
               for v in alg.vertex_names]
    for m in samples:
        cov = projective_cover(m)
        omega, _ = kernel(cov.cover_map)
        for n in samples:
            hom = len(hom_basis(m, n))
            assert ext(m, n, 0).dim == hom
            shift = len(hom_basis(omega, n)) - len(hom_basis(cov.projective, n)) + hom
            assert ext(m, n, 1).dim == shift
