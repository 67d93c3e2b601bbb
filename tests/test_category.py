"""The rank predicates and ``exact_at`` against the object route they
replace, and ``is_isomorphic`` against the search it replaces.

Mono, epi and exactness (at the ends too) are read off ranks and
dimensions; the oracle here builds the kernel, cokernel and image objects
and reads their dimensions, in mod-A on the fixtures' standard samples and
in the Macpherson-Vilonen glued category on the samples the CLI checks.
Isomorphism is decided by one pass over a hom basis where a side has a
local endomorphism ring; ``oracles.reference_is_isomorphic`` is the
pairwise, exhaustive and pseudorandom search it replaced.
"""

import json

import pytest

from stratakit.algebra import Presentation, Quiver, build_bound_quiver_algebra
from stratakit.category import IsoResult, ModuleCategory, ShortExactSequence, exact_at, is_isomorphic
from stratakit.cli import _mv_samples
from stratakit.corpus import corpus_index, fixture_bytes
from stratakit.linalg import GF2, GF3, QQ, Matrix, UndecidedIsomorphism
from stratakit.modules import direct_sum, projective_module, quotient_module, times
from stratakit.mv import MVCategory, mv_data_from_spec, mv_recollement
from stratakit.specfile import build_algebra, parse_spec
from stratakit.strat import Poset, Stratification, StratificationError

from oracles import module_from_blocks, reference_blocks, reference_is_isomorphic
from support import generated_specs, is_injective, load_fixture

MODULE_FIXTURES = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]
MV_FIXTURES = ["FIX-MV-ID", "FIX-MV-ZERO", "FIX-MV-PROD", "FIX-MV-PAIR"]


def module_case(fix):
    cat = ModuleCategory(build_algebra(load_fixture(fix)))
    return cat, [x for _, x in cat.standard_samples()]


def mv_case(fix):
    spec = load_fixture(fix)
    data = mv_data_from_spec(spec.mv, spec.field)
    r = mv_recollement(data)
    return r.cat_c, [x for _, x in _mv_samples(r, data)]


def cases():
    return [pytest.param(module_case, fix, id=fix) for fix in MODULE_FIXTURES] + [
        pytest.param(mv_case, fix, id=fix) for fix in MV_FIXTURES]


def morphisms(cat, samples):
    """Between each pair of samples: the zero morphism, each hom-basis
    morphism, and the sum of the basis."""
    out = []
    for x in samples:
        for y in samples:
            basis = cat.hom_basis(x, y)
            out.append(cat.zero_mor(x, y))
            out.extend(basis)
            if len(basis) > 1:
                out.append(sum(basis[1:], basis[0]))
    return out


def oracle_exact(cat, f, g):
    return f.then(g).is_zero and cat.image(f)[0].dim == cat.kernel(g)[0].dim


@pytest.mark.parametrize("build, fix", cases())
def test_rank_predicates_match_kernel_and_cokernel(build, fix):
    cat, samples = build(fix)
    maps = morphisms(cat, samples)
    seen = set()
    for f in maps:
        ker, incl = cat.kernel(f)
        coker, proj = cat.cokernel(f)
        assert is_injective(f) == (ker.dim == 0)
        assert f.is_surjective() == (coker.dim == 0)
        assert f.is_isomorphism() == (ker.dim == 0 and coker.dim == 0)
        seen.add((is_injective(f), f.is_surjective()))
        for a, b in ((incl, f), (f, proj)):
            assert exact_at(a, b) and oracle_exact(cat, a, b)
        assert ShortExactSequence(incl, cat.image(f)[1]).verify()
    assert {(False, False), (True, True)} <= seen


@pytest.mark.parametrize("build, fix", cases())
def test_exact_at_matches_image_and_kernel(build, fix):
    """Composable pairs of sample morphisms: exact, zero but not exact, and
    nonzero composites; with ``mono``/``epi``, also exact at the ends."""
    cat, samples = build(fix)
    maps = morphisms(cat, samples)
    mono = [cat.kernel(f)[0].dim == 0 for f in maps]
    epi = [cat.cokernel(g)[0].dim == 0 for g in maps]
    verdicts = set()
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            if g.source != f.target:
                continue
            got = exact_at(f, g)
            assert got == oracle_exact(cat, f, g)
            assert exact_at(f, g, mono=True) == (got and mono[i])
            assert exact_at(f, g, epi=True) == (got and epi[j])
            assert exact_at(f, g, mono=True, epi=True) == (got and mono[i] and epi[j])
            verdicts.add((got, f.then(g).is_zero))
    assert verdicts == {(True, True), (False, True), (False, False)}


def p1_mod(a, arrow):
    """P(1) / (arrow)A over the algebra ``a``."""
    p = projective_module(a, "1")[0]
    return quotient_module(p, times(p, Matrix.from_rows(a.field, [a.basis_vec(a.basis_labels.index(arrow))])))[0]


def radical_square_zero_two_loops(field):
    """k<x, y>/(x, y)^2 over ``field`` and its two quotients M = P(1)/(y)
    and N = P(1)/(x): both have a simple top, dimension 2 and a
    1-dimensional Hom either way, and they are not isomorphic."""
    pres = Presentation.from_names(Quiver(("1",), (("x", "1", "1"), ("y", "1", "1"))),
                                   [[(1, [a, b])] for a in "xy" for b in "xy"])
    a = build_bound_quiver_algebra(pres, field)
    return ModuleCategory(a), p1_mod(a, "y"), p1_mod(a, "x")


@pytest.mark.parametrize("field", [QQ, GF3], ids=["Q", "GF3"])
def test_a_local_side_makes_no_invertible_basis_element_a_no(field):
    """The search this replaced answered NO over GF(3) only by exhausting
    Hom(M, N), and over Q it could only give up."""
    cat, m, n = radical_square_zero_two_loops(field)
    assert (m.dim, n.dim, len(cat.hom_basis(m, n)), len(cat.hom_basis(n, m))) == (2, 2, 1, 1)
    assert cat.local(m) and cat.local(n)
    res = is_isomorphic(cat, m, n)
    assert not res.isomorphic and res.certificate is None
    assert res.reason.startswith("a side has a local End")
    if field is GF3:
        assert reference_is_isomorphic(cat, m, n).reason.startswith("exhaustive search")
    else:
        with pytest.raises(UndecidedIsomorphism):
            reference_is_isomorphic(cat, m, n)


def test_an_empty_hom_basis_is_a_no_without_a_local_side():
    """Over the Kronecker algebra R_a = P(1)/(a) and R_b = P(1)/(b) admit
    no map R_a -> R_b; their squares have equal dimension vectors, and
    neither has a simple top or a simple socle."""
    pres = Presentation.from_names(Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))), [])
    a = build_bound_quiver_algebra(pres, GF3)
    r_a, r_b = p1_mod(a, "a"), p1_mod(a, "b")
    cat = ModuleCategory(a)
    x, y = direct_sum([r_a, r_a])[0], direct_sum([r_b, r_b])[0]
    assert cat.invariant(x) == cat.invariant(y) and not (cat.local(x) or cat.local(y))
    assert is_isomorphic(cat, x, y) == IsoResult(False, None, "Hom(m,n) = 0")


def conjugate(x, g):
    """x on the basis given by the rows of the invertible g: an isomorphic
    module that is not an equal representation."""
    g_inv = g.solve_left(Matrix.identity(g.field, g.rows))
    return module_from_blocks(x.algebra, x.dim, [g @ b @ g_inv for b in reference_blocks(x)])


@pytest.mark.parametrize("fix", MODULE_FIXTURES)
def test_every_yes_certificate_is_an_isomorphism_x_to_y(fix):
    """Each standard sample against every sample and against its conjugate
    by a unitriangular matrix: a YES carries an isomorphism x -> y, and a
    conjugate is always found by a basis element."""
    cat, samples = module_case(fix)
    F = cat.field
    conjugates = []
    for x in samples:
        g = Matrix.from_rows(F, [[int(j >= i) for j in range(x.dim)] for i in range(x.dim)])
        y = conjugate(x, g)
        conjugates.append(y)
        res = is_isomorphic(cat, x, y)
        assert res.isomorphic and res.reason in ("basis element", "equal representations", "zero modules")
    found = 0
    for x in samples:
        for y in samples + conjugates:
            res = is_isomorphic(cat, x, y)
            if res.isomorphic:
                assert res.certificate.is_isomorphism()
                assert (res.certificate.source, res.certificate.target) == (x, y)
                found += res.reason == "basis element"
    assert found > 0


def differential_cases():
    """(category, objects) to compare on: S(v), P(v) and I(v) of every
    fixture algebra over GF(2), GF(3) and Q, with the four standard families
    wherever the fixture's stratification passes its checks over that
    field, and the same for the stratifications of ``generated_specs(101,
    30)`` that pass theirs."""
    specs = []
    for entry in corpus_index():
        if entry.expect_error is None:
            raw = json.loads(fixture_bytes(entry.file))
            specs += [dict(raw, field=f) for f in ({"kind": "GF", "p": 2}, {"kind": "GF", "p": 3}, {"kind": "Q"})]
    specs += generated_specs(101, 30)
    for raw in specs:
        spec = parse_spec(raw)
        try:
            a = build_algebra(spec)
        except ValueError:
            continue
        cat = ModuleCategory(a)
        objects = [x for _, x in cat.standard_samples()]
        ss = spec.stratification
        if ss is not None:
            try:
                s = Stratification(a, Poset.from_pairs(ss.poset.elements, ss.poset.leq), ss.rho, ss.epsilon)
                objects += [m for f in s.standard_objects().values()
                            for m in (f.std, f.costd, f.proper_std, f.proper_costd)]
            except StratificationError:
                pass
        yield cat, objects


def test_one_pass_agrees_with_the_search_it_replaced():
    """Wherever the pairwise, exhaustive and pseudorandom search answered,
    the one pass answers the same, on every ordered pair with equal
    dimension vectors; where the search gave up (48 of 3442 pairs, all
    over Q), the one pass decides."""
    fields, pairs, decided = set(), 0, 0
    for cat, objects in differential_cases():
        fields.add(cat.field)
        for x in objects:
            for y in objects:
                if cat.invariant(x) != cat.invariant(y):
                    continue
                pairs += 1
                got = is_isomorphic(cat, x, y)
                try:
                    want = reference_is_isomorphic(cat, x, y)
                except UndecidedIsomorphism:
                    decided += 1
                    continue
                assert got.isomorphic == want.isomorphic, (x, y, got.reason, want.reason)
    assert fields == {GF2, GF3, QQ}
    assert (pairs, decided) == (3442, 48)
