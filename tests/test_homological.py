import pytest

from stratakit.algebra import Presentation, Quiver, build_bound_quiver_algebra
from stratakit.category import ModuleCategory, is_isomorphic
from stratakit.homological import (
    ExtClass,
    _cocycle_to_kernel_map,
    _connecting_map,
    _kernel_epi,
    _pushout_extension,
    ext,
    ext_dim,
    projective_resolution,
    reduce_cocycle,
    universal_extension,
)
from stratakit.linalg import GF3
from stratakit.modules import (
    combine,
    hom_basis,
    injective_module,
    kernel,
    projective_cover,
    projective_module,
    regular_module,
    simple_module,
    times,
    zero_map,
)
from stratakit.specfile import build_algebra

from oracles import ext1_dimension_by_enumeration
from support import is_injective, load_fixture


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


def test_minimality_differentials_in_radical(a2, nak):
    for alg, v in [(a2, "1"), (nak, "1"), (nak, "2")]:
        s = simple_module(alg, v)
        res = projective_resolution(s, 3)
        for i, d in enumerate(res.differentials, start=1):
            rad = times(res.terms[i - 1], alg.radical.basis.row_list())
            assert rad.contains_space(d.mat.row_space())


def test_ext_projective_source_vanishes(a2):
    p1, _ = projective_module(a2, "1")
    for n_mod in (simple_module(a2, "1"), simple_module(a2, "2"), regular_module(a2)):
        assert ext_dim(p1, n_mod, 1) == 0


def test_ext_degree0_is_hom(a2, nak):
    for alg in (a2, nak):
        for v in alg.vertex_names:
            for w in alg.vertex_names:
                m = simple_module(alg, v)
                n = simple_module(alg, w)
                assert ext(m, n, 0).dim == len(hom_basis(m, n))


def test_ext_values_a2(a2):
    s1, s2 = simple_module(a2, "1"), simple_module(a2, "2")
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(s2, s1, 1) == 0
    assert ext_dim(s1, s2, 2) == 0


def test_ext_values_nak(nak):
    s1, s2 = simple_module(nak, "1"), simple_module(nak, "2")
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim(s2, s1, 1) == 1
    assert ext_dim(s1, s1, 2) == 1
    assert ext_dim(s1, s2, 2) == 0


def test_ext_values_dual(dual):
    s = simple_module(dual, "1")
    for n in range(4):
        assert ext_dim(s, s, n) == 1  # periodic resolution of the dual numbers


def realize_ext1(cls):
    """Short exact sequence with connecting class equal to ``cls``."""
    if cls.degree != 1:
        raise ValueError("only degree-1 classes are realizable as extensions")
    res = projective_resolution(cls.source, 2)
    epi, ker_incl = _kernel_epi(res)
    fbar = _cocycle_to_kernel_map(epi, cls.cocycle)
    return _pushout_extension(res, fbar, ker_incl)


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
    assert ext_dim(ue.middle, s2, 1) == 0


def test_ext1_oracle_agreement(a2, nak, dual):
    """dim Ext^1 from minimal resolutions == exhaustive enumeration count."""
    for alg in (a2, nak, dual):
        for v in alg.vertex_names:
            for w in alg.vertex_names:
                m, n = simple_module(alg, v), simple_module(alg, w)
                assert ext_dim(m, n, 1) == ext1_dimension_by_enumeration(m, n)


def test_ext1_oracle_bigger_modules(a2):
    p1, _ = projective_module(a2, "1")
    s2 = simple_module(a2, "2")
    # projective source: zero on both routes
    assert ext1_dimension_by_enumeration(p1, s2) == ext_dim(p1, s2, 1) == 0
    i2_dual = simple_module(a2, "1")
    from stratakit.modules import injective_module

    i2 = injective_module(a2, "2")
    assert ext1_dimension_by_enumeration(i2_dual, i2) == ext_dim(i2_dual, i2, 1)


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
