import dataclasses
import gc
import itertools
import random
import subprocess
import sys
import weakref

import pytest

from stratakit import recollement
from stratakit.algebra import opposite
from stratakit.category import ModuleCategory, ShortExactSequence, is_isomorphic, solve_in_hom
from stratakit.linalg import InconsistentSystem, InvariantError
from stratakit.modules import (
    hom_basis,
    identity_map,
    injective_module,
    projective_cover,
    projective_module,
    simple_module,
    submodule,
    validate_bimodule,
    zero_map,
)
from stratakit.recollement import (
    idempotent_recollement_data,
    intermediate_extension,
    make_idempotent_recollement,
    verify_recollement,
)
from stratakit.specfile import build_algebra

from support import is_injective, load_fixture, span

FIXTURES = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]


def algebra(fix):
    return build_algebra(load_fixture(fix))


@pytest.mark.parametrize("fix", ["FIX-A3", "FIX-NAK", "FIX-KRO"])
def test_corner_bimodules_are_bimodules(fix):
    """For every vertex subset, eA is a (eAe, A)-bimodule and Ae an
    (A, eAe)-bimodule: sum e_v A and sum A e_v, of the dimensions of the
    projectives and injectives at the subset."""
    a = algebra(fix)
    for k in range(len(a.vertex_names) + 1):
        for vs in itertools.combinations(a.vertex_names, k):
            data = idempotent_recollement_data(a, vs)
            validate_bimodule(data.ea)
            validate_bimodule(data.ae)
            gamma = data.ea.left_algebra
            assert gamma.vertex_names == vs
            assert (data.ea.right_algebra, data.ae.left_algebra, data.ae.right_algebra) == (a, a, gamma)
            assert data.ea.dim == sum(projective_module(a, v)[0].dim for v in vs)
            assert data.ae.dim == sum(injective_module(a, v).dim for v in vs)


@pytest.mark.parametrize("fix", FIXTURES)
def test_axiom_suite_all_vertex_idempotents(fix):
    a = algebra(fix)
    samples = ModuleCategory(a).standard_samples()
    for v in a.vertex_names:
        r = make_idempotent_recollement(a, [v])
        rep = verify_recollement(r, samples)
        assert rep.ok, (fix, v, rep.failures()[:3])


def test_degenerate_idempotents():
    a = algebra("FIX-A2")
    samples = ModuleCategory(a).standard_samples()
    r0 = make_idempotent_recollement(a, [])
    assert r0.degenerate == "zero-U"
    assert verify_recollement(r0, samples).ok
    r1 = make_idempotent_recollement(a, ["1", "2"])
    assert r1.degenerate == "zero-Z"
    assert verify_recollement(r1, samples).ok


def test_corrupted_functor_is_reported():
    """A package whose unit is zero fails the triangle and the exact
    sequence that read it; one whose maps do not even compose is a program
    fault, which leaves the verifier as it was raised (the command line
    reports it as INTERNAL-ERROR)."""
    a = algebra("FIX-A2")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, ["2"])
    rep = verify_recollement(r._replace(unit_jr=lambda x: r.unit_jr(x).scale(0)), samples)
    assert not rep.ok and {f.axiom for f in rep.failures()} == {
        "R1:j_restrict-|j_roof", "R4:0->ir->X->jr", "R4:K' in image(i_embed)"}
    with pytest.raises(ValueError, match="^maps not composable$"):
        verify_recollement(r._replace(j_roof=r.j_lower), samples)


UNITS_AND_COUNITS = ("unit_quot", "counit_quot", "unit_sub", "counit_sub",
                     "unit_jl", "counit_jl", "unit_jr", "counit_jr")


def test_units_and_counits_are_computed_once_per_object():
    """Several axioms read the same unit or counit component: one
    verification computes each once per distinct object, and reports what
    it reports on a package without the counters."""
    a = algebra("FIX-A3")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, ["2"])
    args = {name: [] for name in UNITS_AND_COUNITS}

    def counted(name):
        component = getattr(r, name)

        def call(x):
            args[name].append(x)
            return component(x)

        return call

    rep = verify_recollement(r._replace(**{n: counted(n) for n in UNITS_AND_COUNITS}), samples)
    assert rep == verify_recollement(make_idempotent_recollement(a, ["2"]), samples)
    assert rep.ok
    for name, xs in args.items():
        assert xs and len(xs) == len(set(xs)), (name, len(xs), len(set(xs)))


def test_each_axiom_runs_once_per_distinct_sample(monkeypatch):
    """The 9 standard samples of FIX-A3 are 7 distinct modules (S(3) = P(3)
    and S(1) = I(1)): each exactness row of (R4) is computed once per
    distinct module, and every sample keeps its own rows, in order."""
    a = algebra("FIX-A3")
    samples = ModuleCategory(a).standard_samples()
    assert len({x for _, x in samples}) == 7
    calls = []
    real = recollement.exact_at
    monkeypatch.setattr(recollement, "exact_at", lambda *args, **kw: calls.append(None) or real(*args, **kw))
    rep = verify_recollement(make_idempotent_recollement(a, ["2"]), samples)
    assert rep.ok
    assert len(calls) == 2 * 7
    r4 = [(res.axiom, res.subject) for res in rep.results if res.axiom.startswith("R4")]
    assert r4 == [(axiom, n) for n, _ in samples for axiom in (
        "R4:jl->X->il->0", "R4:K in image(i_embed)", "R4:0->ir->X->jr", "R4:K' in image(i_embed)")]


@pytest.mark.parametrize("vertices", [[], ["1", "2"]], ids=["e=0", "e=1"])
def test_each_sample_list_runs_its_own_checks(vertices, monkeypatch):
    """When e is 0 (or 1), i_left (or j_restrict) keeps every sample's
    value, so a Z (or U) sample equals a C sample; a triangle identity on
    Z or U is still a different check from the C one of the same name, and
    runs on its own: 4 per distinct C object, 2 per distinct Z or U one."""
    a = algebra("FIX-A2")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, vertices)
    sides = [{x for _, x in samples}, {r.i_left(x) for _, x in samples}, {r.j_restrict(x) for _, x in samples}]
    assert sides[0] in sides[1:]
    calls = []
    real = recollement._is_identity_on
    monkeypatch.setattr(recollement, "_is_identity_on", lambda f, x: calls.append(None) or real(f, x))
    assert verify_recollement(r, samples).ok
    assert len(calls) == 4 * len(sides[0]) + 2 * len(sides[1]) + 2 * len(sides[2])


def test_a_replaced_package_is_verified_afresh():
    """A recollement is built once per vertex tuple while it is in use and
    keeps its reports.  A ``_replace`` copy starts with none, so
    a corrupted copy of a verified package is never served its report, and
    the algebra does not keep a recollement that nothing else holds."""
    a = algebra("FIX-A2")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, ["2"])
    assert make_idempotent_recollement(a, ["2"]) is r
    rep = r.verify(samples)
    assert rep.ok and r.verify(samples) is rep
    assert not r._replace(unit_jr=lambda x: r.unit_jr(x).scale(0)).verify(samples).ok
    assert r.verify(samples) is rep
    kept = weakref.ref(r)
    del r
    gc.collect()
    assert kept() is None


def test_negated_unit_fails_every_triangle_it_reaches():
    """A sign flip in the unit X -> j_roof j_restrict X breaks both triangle
    identities of (j_restrict -| j_roof) on every sample with X e != 0.
    Exactness and cokernels do not see a sign, so the R4 rows pass."""
    a = algebra("FIX-A3")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, ["2"])
    rep = verify_recollement(r._replace(unit_jr=lambda x: r.unit_jr(x).scale(-1)), samples)
    reached = [n for n, x in samples if r.j_restrict(x).dim]
    assert len(reached) == 5
    assert [(f.axiom, f.subject) for f in rep.failures()] == (
        [("R1:j_restrict-|j_roof", n) for n in reached]
        + [("R1:j_restrict-|j_roof", f"j_restrict({n})") for n in reached])


def test_a_raising_unit_leaves_the_verifier():
    """A component that raises is a program fault, not a failed axiom: the
    exception leaves ``verify_recollement`` as it was raised, and the
    command line reports it as INTERNAL-ERROR."""
    a = algebra("FIX-A3")
    samples = ModuleCategory(a).standard_samples()
    r = make_idempotent_recollement(a, ["2"])
    seen = []

    def broken(x):
        seen.append(x)
        raise InvariantError("seeded defect")

    with pytest.raises(InvariantError, match="^seeded defect$"):
        verify_recollement(r._replace(unit_jr=broken), samples)
    assert seen == [samples[0][1]]


def test_functor_formulas_on_a2():
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    p1, _ = projective_module(a, "1")
    assert r.j_restrict(p1).dim == 1
    il = r.i_left(p1)
    assert il.dim == 1
    assert r.i_right(p1).dim == 0
    gamma = r.data.corner.algebra
    k = simple_module(gamma, "2")
    assert r.j_lower(k).dim == 1
    assert r.j_roof(k).dim == 2
    assert is_isomorphic(ModuleCategory(a), r.j_lower(k), simple_module(a, "2")).isomorphic


def test_annihilated_module_is_fixed_by_both_adjoints():
    # any M with Me = 0: i_embed(i_right(M)) = M = i_embed(i_left(M))
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    s1 = simple_module(a, "1")  # S(1)e_2 = 0
    up = r.i_embed(r.i_left(s1))
    down = r.i_embed(r.i_right(s1))
    assert is_isomorphic(ModuleCategory(a), up, s1).isomorphic
    assert is_isomorphic(ModuleCategory(a), down, s1).isomorphic


def test_largest_quotient_characterization():
    """i_embed(i_left X) is the quotient by M e A, the smallest submodule with
    e-annihilated quotient; every e-annihilated quotient factors through it."""
    a = algebra("FIX-NAK")
    r = make_idempotent_recollement(a, ["2"])
    data = r.data
    for v in a.vertex_names:
        m, _ = projective_module(a, v)
        eta = r.unit_quot(m)
        # quotient is annihilated by e
        tgt = eta.target
        assert tgt.action_of(data.e).is_zero
        # any other quotient of m annihilated by e: its kernel contains MeA
        mea = eta.mat.left_kernel()
        act_e = m.action_of(data.e)
        for k in range(m.dim):
            row_space = act_e @ m.block(k)
            assert mea.contains_space(row_space.row_space())


def test_smallest_submodule_with_killed_quotient():
    """A quotient of M is killed by e iff its kernel contains M e A, so the
    unit target really is the largest killed quotient.  Checked against an
    exhaustive enumeration of submodules over GF(2)."""
    import itertools

    a = algebra("FIX-NAK")
    r = make_idempotent_recollement(a, ["2"])
    data = r.data
    for v in a.vertex_names:
        m, _ = projective_module(a, v)
        act_e = m.action_of(data.e)
        mea_vecs = []
        for k in range(a.dim):
            mea_vecs.extend((act_e @ m.block(k)).row_list())
        mea = span(a.field, mea_vecs, m.dim)
        # enumerate all submodules of m (dim 2 over GF(2): tiny)
        for rows in itertools.product(itertools.product(range(2), repeat=m.dim), repeat=m.dim):
            space = span(a.field, list(rows), m.dim)
            closed = all(
                space.contains((space.basis @ m.block(k)).row(i))
                for k in range(a.dim)
                for i in range(space.dim)
            )
            if not closed:
                continue
            quo, _ = quotient_from(m, space)
            killed = quo.action_of(data.e).is_zero
            assert killed == space.contains_space(mea), (v, rows)
        # dual statement: a submodule is killed by e iff it sits inside i_right
        sub_space = r.counit_sub(m).mat.row_space()
        for rows in itertools.product(itertools.product(range(2), repeat=m.dim), repeat=m.dim):
            space = span(a.field, list(rows), m.dim)
            closed = all(
                space.contains((space.basis @ m.block(k)).row(i))
                for k in range(a.dim)
                for i in range(space.dim)
            )
            if not closed:
                continue
            sub, _ = submodule(m, space)
            killed = space.dim == 0 or sub.action_of(data.e).is_zero
            assert killed == sub_space.contains_space(space), (v, rows)


def quotient_from(m, space):
    from stratakit.modules import quotient_module

    return quotient_module(m, space)


def test_hom_bijection_between_sandwiched_objects():
    """For i_left X = 0 and i_right Y = 0, Hom(X, Y) has the same dimension
    as the hom space of the restrictions."""
    for fix in ("FIX-A2", "FIX-NAK", "FIX-LOOP"):
        a = algebra(fix)
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            cat_u = r.cat_u
            candidates = [m for _, m in ModuleCategory(a).standard_samples()]
            xs = [m for m in candidates if r.i_left(m).dim == 0]
            ys = [m for m in candidates if r.i_right(m).dim == 0]
            for x in xs:
                for y in ys:
                    lhs = len(hom_basis(x, y))
                    rhs = len(cat_u.hom_basis(r.j_restrict(x), r.j_restrict(y)))
                    assert lhs == rhs, (fix, v, x.dim, y.dim, lhs, rhs)


def test_intermediate_extension_contracts():
    for fix in FIXTURES:
        a = algebra(fix)
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            gamma = r.data.corner
            if gamma is None:
                continue
            for w in gamma.algebra.vertex_names:
                x = simple_module(gamma.algebra, w)
                ie = intermediate_extension(r, x)  # asserts the contracts
                assert ie.from_lower.is_surjective()
                assert is_injective(ie.into_roof)


def test_intermediate_extension_preserves_monos_epis():
    rng = random.Random(11)
    for fix in ("FIX-A2", "FIX-NAK", "FIX-KRO"):
        a = algebra(fix)
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            corner = r.data.corner
            if corner is None:
                continue
            cat_u = r.cat_u
            gens = ModuleCategory(corner.algebra).standard_samples()
            objs = [m for _, m in gens]
            tried = 0
            for _ in range(60):
                x, y = rng.choice(objs), rng.choice(objs)
                hb = cat_u.hom_basis(x, y)
                if not hb:
                    continue
                f = hb[0]
                for h in hb[1:]:
                    if rng.random() < 0.5:
                        f = f + h
                tried += 1
                ie_x = intermediate_extension(r, x)
                ie_y = intermediate_extension(r, y)
                # transport f through j_!*: epi_x ; j_!*(f) = j_lower(f) ; epi_y
                lifted = r.j_lower.map(f).then(ie_y.from_lower)
                jf = solve_in_hom(r.cat_c, ie_x.obj, ie_y.obj, lambda h: ie_x.from_lower.then(h), lifted)
                assert jf is not None
                assert (ie_x.from_lower.then(jf) - lifted).is_zero
                if is_injective(f):
                    assert is_injective(jf)
                if f.is_surjective():
                    assert jf.is_surjective()
            assert tried > 0


def test_simple_classification_single_recollement():
    """i_embed of Z-simples plus j_!* of U-simples lists each simple once."""
    for fix in FIXTURES:
        a = algebra(fix)
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            data = r.data
            built = []
            for w in data.quotient.algebra.vertex_names:
                built.append(r.i_embed(simple_module(data.quotient.algebra, w)))
            if data.corner is not None:
                for w in data.corner.algebra.vertex_names:
                    built.append(intermediate_extension(r, simple_module(data.corner.algebra, w)).obj)
            assert len(built) == len(a.vertex_names)
            actual = [simple_module(a, w) for w in a.vertex_names]
            # each built object matches exactly one actual simple
            matched = set()
            for b in built:
                hits = [i for i, s in enumerate(actual) if is_isomorphic(ModuleCategory(a), b, s).isomorphic]
                assert len(hits) == 1
                assert hits[0] not in matched
                matched.add(hits[0])


class SidePreconditionError(ValueError):
    """The object has a nonzero quotient/subobject on the Z side."""


def canonical_ses(r, m, side: str) -> ShortExactSequence:
    """The canonical short exact sequence around j_!* j_restrict m.

    side="no-Z-quotients"  (i_left m = 0):  0 -> i_embed i_right m -> m -> j_!* j^* m -> 0
    side="no-Z-subobjects" (i_right m = 0): 0 -> j_!* j^* m -> m -> i_embed i_left m -> 0
    """
    cat = r.cat_c
    ie = intermediate_extension(r, r.j_restrict(m))
    if side == "no-Z-quotients":
        bad = r.i_left(m)
        if bad.dim:
            raise SidePreconditionError(f"nonzero largest Z-quotient of dimension {bad.dim}")
        # factor the unit m -> j_roof j^* m through the image
        h = solve_in_hom(cat, m, ie.obj, lambda g: g.then(ie.into_roof), r.unit_jr(m))
        ses = ShortExactSequence(r.counit_sub(m), h)
    elif side == "no-Z-subobjects":
        bad = r.i_right(m)
        if bad.dim:
            raise SidePreconditionError(f"nonzero largest Z-subobject of dimension {bad.dim}")
        # counit_jl factors as (j_lower j^* m ->> j_!*) ; (j_!* -> m)
        h = solve_in_hom(cat, ie.obj, m, lambda g: ie.from_lower.then(g), r.counit_jl(m))
        ses = ShortExactSequence(h, r.unit_quot(m))
    else:
        raise ValueError(f"unknown side {side!r}")
    assert ses.verify(), "canonical sequence is not short exact"
    return ses


@dataclasses.dataclass(frozen=True)
class CoverTransport:
    cover: object       # j_lower(p), projective in the center category
    cover_map: object   # j_lower(p) ->> j_!*(x)
    matches_direct: bool | None  # comparison with the directly computed cover


def cover_transport(r, x, p_cover) -> CoverTransport:
    """Transport a U-side projective cover p ->> x to a cover of j_!*(x).

    ``p_cover`` is the covering morphism in the U category.  j_lower is the
    left adjoint of the exact j_restrict, so it preserves projectives; the
    composite j_lower(p) -> j_lower(x) ->> j_!*(x) is an essential
    surjection.  When the center category supports direct covers (module
    categories), the result is cross-checked against one.
    """
    cat = r.cat_c
    ie = intermediate_extension(r, x)
    composite = r.j_lower.map(p_cover).then(ie.from_lower)
    assert composite.is_surjective(), "transported map is not surjective"
    matches = None
    if isinstance(cat, ModuleCategory):
        direct = projective_cover(ie.obj)
        matches = is_isomorphic(cat, direct.projective, composite.source).isomorphic
        assert matches, "transported cover disagrees with the direct projective cover"
    return CoverTransport(cover=composite.source, cover_map=composite, matches_direct=matches)


def test_canonical_ses_both_sides():
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    gamma = r.data.corner.algebra
    k = simple_module(gamma, "2")
    m = r.j_roof(k)  # dim 2, no Z subobjects
    ses = canonical_ses(r, m, "no-Z-subobjects")
    assert ses.sub.dim == 1 and ses.quotient.dim == 1
    assert is_isomorphic(ModuleCategory(a), ses.sub, simple_module(a, "2")).isomorphic
    m2 = r.j_lower(k)  # S(2): fine on both sides
    ses2 = canonical_ses(r, m2, "no-Z-quotients")
    assert ses2.sub.dim == 0 and ses2.quotient.dim == 1


def test_canonical_ses_precondition_violation():
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    z = r.i_embed(simple_module(r.data.quotient.algebra, "1"))
    with pytest.raises(SidePreconditionError):
        canonical_ses(r, z, "no-Z-quotients")
    with pytest.raises(SidePreconditionError):
        canonical_ses(r, z, "no-Z-subobjects")


def test_cover_transport_examples():
    # FIX-A2 e=2: j_lower(k) = S(2) = P(2) covers j_!*(k) = S(2)
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    gamma = r.data.corner.algebra
    k = simple_module(gamma, "2")
    ct = cover_transport(r, k, projective_cover(k).cover_map)
    assert ct.cover.dim == 1 and ct.matches_direct
    # FIX-NAK e=2: j_lower(k) = P(2) of dim 2 covers S(2)
    nak = algebra("FIX-NAK")
    rn = make_idempotent_recollement(nak, ["2"])
    gn = rn.data.corner.algebra
    kn = simple_module(gn, "2")
    ct = cover_transport(rn, kn, projective_cover(kn).cover_map)
    assert ct.cover.dim == 2 and ct.matches_direct


def test_transport_of_restricted_projective():
    # x = j_restrict(P) with i_left(P) = 0: the transported cover is P itself
    a = algebra("FIX-A2")
    r = make_idempotent_recollement(a, ["2"])
    p2, _ = projective_module(a, "2")
    assert r.i_left(p2).dim == 0
    x = r.j_restrict(p2)
    ct = cover_transport(r, x, projective_cover(x).cover_map)
    assert is_isomorphic(ModuleCategory(a), ct.cover, p2).isomorphic


def test_opposite_recollement_symmetry():
    """The axiom suite passes identically on the opposite algebra."""
    for fix in ("FIX-A2", "FIX-NAK", "FIX-KRO"):
        a = algebra(fix)
        aop = opposite(a)
        for v in a.vertex_names:
            r = make_idempotent_recollement(aop, [v])
            rep = verify_recollement(r, ModuleCategory(aop).standard_samples())
            assert rep.ok, (fix, v, rep.failures()[:3])


def test_invalid_idempotent_rejected():
    a = algebra("FIX-A2")
    with pytest.raises(ValueError):
        make_idempotent_recollement(a, ["weird"])
    with pytest.raises(ValueError):
        make_idempotent_recollement(a, ["1", "1"])


def test_solve_in_hom_raises_without_a_solution():
    a = algebra("FIX-A2")
    cat = ModuleCategory(a)
    p1, _ = projective_module(a, "1")
    p2, _ = projective_module(a, "2")
    ident = identity_map(p1)
    # Hom(P1, P1) is nonzero, but h ; 0 is never the identity
    with pytest.raises(InconsistentSystem):
        solve_in_hom(cat, p1, p1, lambda h: h.then(zero_map(p1, p1)), ident)
    # Hom(P1, P2) = 0: no h reaches a nonzero goal, and h = 0 reaches the zero goal
    (f,) = hom_basis(p2, p1)
    assert not hom_basis(p1, p2)
    with pytest.raises(InconsistentSystem):
        solve_in_hom(cat, p1, p2, lambda h: h.then(f), ident)
    h = solve_in_hom(cat, p1, p2, lambda h: h.then(f), zero_map(p1, p1))
    assert (h.source, h.target) == (p1, p2) and h.is_zero


NOT_A_MORPHISM = """
import json

from stratakit.corpus import fixture_bytes
from stratakit.linalg import InconsistentSystem, Matrix
from stratakit.modules import ModuleMap, projective_module
from stratakit.recollement import make_idempotent_recollement
from stratakit.specfile import build_algebra, parse_spec

a = build_algebra(parse_spec(json.loads(fixture_bytes("fix_a3.json"))))
r = make_idempotent_recollement(a, ["2"])
p1, p2 = projective_module(a, "1")[0], projective_module(a, "2")[0]
ones = Matrix.from_rows(a.field, [[1] * p1.dim] * p2.dim, cols=p1.dim)
try:
    r.j_restrict.map(ModuleMap(p2, p1, ones))
except InconsistentSystem:
    print("raised", __debug__)
"""


def test_failed_solve_raises_under_optimize():
    """A linear map that is not a module map has no image under j_restrict;
    the failed solve raises, with asserts stripped too."""
    res = subprocess.run([sys.executable, "-O", "-c", NOT_A_MORPHISM], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised False\n"
