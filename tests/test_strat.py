import json
from pathlib import Path

import pytest

from stratakit import homological, strat
from stratakit.category import ModuleCategory, is_isomorphic
from stratakit.linalg import InvariantError
from stratakit.modules import (
    ModuleMap,
    annihilator,
    injective_envelope,
    injective_module,
    projective_cover,
    projective_module,
    quotient_module,
    regular_module,
    restrict_scalars,
    simple_module,
    submodule,
)
from stratakit.recollement import CheckResult, Recollement, RecollementReport, intermediate_extension
from stratakit.specfile import build_algebra, load_spec, parse_spec
from stratakit.strat import (
    Poset,
    PosetError,
    Stratification,
    StratificationError,
    filtration_search,
    porism_check,
    synthesize_projective_cover,
)

from oracles import stratum_independent_by_algebra_map, verify_filtration_certificate
from support import generated_specs, is_injective, load_fixture, stratification_of

ALL = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]
GOLDEN = Path(__file__).parent / "golden"


def strat_of(fix, check=True):
    return stratification_of(load_fixture(fix), check)


@pytest.fixture(scope="module")
def strats():
    return {fix: strat_of(fix) for fix in ALL}


def test_poset_validation():
    with pytest.raises(PosetError):
        Poset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(PosetError):
        Poset.from_pairs([], [])
    p = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")  # transitivity closed
    assert p.lower_sets() == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"a", "b"}),
        frozenset({"a", "b", "c"}),
    ]
    assert p.linear_extension() == ("a", "b", "c")


def test_antichain_lower_sets():
    p = Poset.from_pairs(["a", "b"], [])
    assert len(p.lower_sets()) == 4
    assert p.maximal_in(frozenset({"a", "b"})) == ["a", "b"]


def test_structure_checks_pass(strats):
    for fix, s in strats.items():
        notes = s.run_structure_checks()
        assert any(tag == "S3" for tag, _ in notes), fix


def cycle_on_antichain(isolated: int) -> dict:
    """The golden 2-cycle input over GF(3), a: 1 -> 2 and b: 2 -> 1 with
    ba = 0, with ``isolated`` vertices added and every vertex its own
    stratum s<vertex> of an antichain.  e_1 A e_1 holds the cycle ab, which
    the quotient A_{<=s1} = A / A e_2 A kills, so the stratum at s1 differs
    inside every lower set that holds s2."""
    spec = json.loads((GOLDEN / "cyc2_anti_gf3.input.json").read_text())
    vertices = [str(v) for v in range(1, 3 + isolated)]
    spec["quiver"]["vertices"] = vertices
    spec["stratification"] = {"poset": {"elements": [f"s{v}" for v in vertices], "leq": []},
                              "rho": {v: f"s{v}" for v in vertices}}
    return spec


def test_s3_fails_inside_the_full_set_of_a_seven_stratum_antichain():
    """(S3) is one count per stratum at every poset size: on seven strata
    the stratum at s1 is compared inside W_s1, here the full set."""
    with pytest.raises(StratificationError) as err:
        stratification_of(parse_spec(cycle_on_antichain(5)))
    everything = [f"s{v}" for v in range(1, 8)]
    assert str(err.value) == f"(S3): stratum at s1 differs when computed inside {everything}"


def test_s3_counts_at_the_widest_lower_set_where_the_stratum_is_maximal():
    """On the antichain s1, s2 the widest lower set with s1 on top is the
    full set, whose corner at 1 is k e_1 + k ab against the stratum k e_1."""
    s = stratification_of(parse_spec(cycle_on_antichain(0)), check=False)
    assert s._widest_lower("s1") == frozenset({"s1", "s2"})
    assert (s.stratum("s1").algebra.dim, s.stratum("s2").algebra.dim) == (1, 1)
    assert s.layer_recollement(frozenset({"s1", "s2"}), "s1").data.corner.algebra.dim == 2
    assert not s._stratum_independent("s1")
    assert s._stratum_independent("s2")  # ba = 0 leaves e_2 A e_2 = k e_2


def test_s3_agrees_with_the_algebra_map_over_every_lower_set():
    """A differential test on 60 generated inputs (1-4 vertices over GF(2),
    GF(3) and Q, monomial relations, loops, posets that need not be total),
    built without their structure checks: the dimension count at W_lam
    fails at exactly the strata at which the algebra map A_L -> A_{<=lam}
    fails to identify the corner of some lower set L with the stratum."""
    failing, fields, loops, partial = 0, set(), False, False
    for spec in generated_specs(0, 60):
        s = stratification_of(parse_spec(spec), check=False)
        by_map = {lam for _, lam in stratum_independent_by_algebra_map(s)}
        assert {lam for lam in s.poset.elements if not s._stratum_independent(lam)} == by_map, spec
        failing += bool(by_map)
        fields.add(s.algebra.field)
        loops = loops or any(a["from"] == a["to"] for a in spec["quiver"]["arrows"])
        partial = partial or any(not s.poset.leq(x, y) and not s.poset.leq(y, x)
                                 for x in s.poset.elements for y in s.poset.elements)
    assert failing >= 5
    assert len(fields) == 3 and loops and partial


def test_s2_failure_text_carries_each_failed_check_by_its_repr(monkeypatch):
    """``check`` reports this text in the INTERNAL-ERROR witness, so the
    records keep the ``Name(field=value, ...)`` repr of a dataclass.  A
    layer is an idempotent recollement, which satisfies the axioms by
    theorem, so a failed axiom is a program fault: ``InvariantError``."""
    failed = CheckResult("R1", "j_restrict(P(1))", False, "counit not iso")
    monkeypatch.setattr(Recollement, "verify", lambda self, samples: RecollementReport(
        "broken", (CheckResult("R0", "S(1)", True), failed)))
    with pytest.raises(InvariantError) as err:
        strat_of("FIX-A2")
    assert str(err.value) == ("(S2): recollement at x fails axioms: [CheckResult(axiom='R1', "
                              "subject='j_restrict(P(1))', ok=False, note='counit not iso')]")
    assert repr(CheckResult("R0", "S(1)", True)) == "CheckResult(axiom='R0', subject='S(1)', ok=True, note='')"


def test_single_stratum_is_whole_algebra():
    spec = load_fixture("FIX-DUAL")
    a = build_algebra(spec)
    s = strat_of("FIX-DUAL")
    assert s.lower_algebra(frozenset({"l"})).algebra == a
    assert s.stratum("l").algebra.dim == a.dim


def test_strata_dimensions(strats):
    assert strats["FIX-A2"].stratum("x").algebra.dim == 1
    assert strats["FIX-A2"].stratum("y").algebra.dim == 1
    assert strats["FIX-NAK"].stratum("x").algebra.dim == 1
    assert strats["FIX-NAK"].stratum("y").algebra.dim == 1
    assert strats["FIX-KRO"].stratum("u").algebra.dim == 2  # dual numbers corner
    assert strats["FIX-KRO"].stratum("z").algebra.dim == 1
    assert strats["FIX-LOOP"].stratum("u").algebra.dim == 2


def test_rho_must_be_total_and_surjective():
    spec = load_fixture("FIX-A2")
    a = build_algebra(spec)
    poset = Poset.from_pairs(["x", "y"], [("x", "y")])
    with pytest.raises(StratificationError):
        Stratification(a, poset, {"1": "x"}, check=False)
    with pytest.raises(StratificationError):
        Stratification(a, poset, {"1": "x", "2": "x"}, check=False)


def test_classify_simples_all_fixtures(strats):
    for fix, s in strats.items():
        table = s.classify_simples()
        assert set(table) == set(s.algebra.vertex_names), fix
        for b, (lam, l_gamma) in table.items():
            assert lam == s.rho[b]
            assert l_gamma.dim == 1


def test_standard_objects_spec_values(strats):
    a2 = strats["FIX-A2"].standard_objects()
    assert a2["1"].std.dim == 1 and a2["1"].proper_std.dim == 1
    assert a2["2"].std.dim == 1 and a2["2"].costd.dim == 2 and a2["2"].proper_costd.dim == 2
    nak = strats["FIX-NAK"].standard_objects()
    assert nak["2"].std.dim == 2 and nak["2"].proper_std.dim == 2
    dual = strats["FIX-DUAL"].standard_objects()
    assert dual["1"].std.dim == 2 and dual["1"].proper_std.dim == 1


def canonical_maps(s, b):
    """std ->> proper_std ->> L(b) -> proper_costd -> costd, built in the
    principal recollement at rho(b) and lifted to the algebra."""
    lam = s.rho[b]
    r = s.principal_recollement(lam)
    lift = s.lower_algebra(s.poset.down(lam)).projection
    l_gamma = simple_module(s.stratum(lam).algebra, b)
    ie = intermediate_extension(r, l_gamma)
    maps = (r.j_lower.map(projective_cover(l_gamma).cover_map), ie.from_lower, ie.into_roof,
            r.j_roof.map(injective_envelope(l_gamma).envelope_map))
    return [ModuleMap(restrict_scalars(f.source, s.algebra, lift),
                      restrict_scalars(f.target, s.algebra, lift), f.mat) for f in maps]


def test_standard_canonical_maps(strats):
    for fix in ("FIX-A2", "FIX-KRO", "FIX-LOOP"):
        s = strats[fix]
        for b, fam in s.standard_objects().items():
            std_to_proper, proper_to_simple, simple_to_proper, proper_to_costd = canonical_maps(s, b)
            assert (std_to_proper.source, std_to_proper.target) == (fam.std, fam.proper_std)
            assert (proper_to_costd.source, proper_to_costd.target) == (fam.proper_costd, fam.costd)
            assert std_to_proper.is_surjective()
            assert proper_to_simple.is_surjective()
            assert proper_to_simple.target.dim == 1
            assert is_injective(simple_to_proper)
            assert is_injective(proper_to_costd)


def test_filtration_single_layer(strats):
    s = strats["FIX-A2"]
    fams = s.standard_objects()
    cert = filtration_search(fams["2"].std, [("std(2)", fams["2"].std)], "exact-layers")
    assert cert is not None and len(cert.layers) == 1


def test_filtration_a2_projective(strats):
    s = strats["FIX-A2"]
    fams = s.standard_objects()
    p1, _ = projective_module(s.algebra, "1")
    allowed = [("std(1)", fams["1"].std), ("std(2)", fams["2"].std)]
    cert = filtration_search(p1, allowed, "exact-layers")
    assert cert is not None
    assert [l.allowed_name for l in cert.layers] == ["std(2)", "std(1)"]
    # chain is strictly increasing and nested
    dims = [l.above.dim for l in cert.layers]
    assert dims == sorted(dims)
    for lower_layer, upper_layer in zip(cert.layers, cert.layers[1:]):
        assert upper_layer.above.contains_space(lower_layer.above)


def test_filtration_nak_fails_exact_mode(strats):
    s = strats["FIX-NAK"]
    fams = s.standard_objects()
    p1, _ = projective_module(s.algebra, "1")
    allowed = [("std(1)", fams["1"].std), ("std(2)", fams["2"].std)]
    assert filtration_search(p1, allowed, "exact-layers") is None


def test_filtration_search_computes_each_top_once(strats, monkeypatch):
    """The top projection of each allowed object is computed once per
    search, not once per search node."""
    a = strats["FIX-A3"].algebra
    p1, _ = projective_module(a, "1")
    allowed = [(f"L({v})", simple_module(a, v)) for v in a.vertex_names]
    tops = []
    real = strat.top
    monkeypatch.setattr(strat, "top", lambda m: tops.append(m) or real(m))
    cert = filtration_search(p1, allowed, "exact-layers")
    assert cert is not None and len(cert.layers) == p1.dim > 1
    assert tops == [obj for _, obj in allowed]


def test_filtration_rejects_bad_allowed(strats):
    s = strats["FIX-A2"]
    reg = regular_module(s.algebra)  # top is not simple
    with pytest.raises(ValueError):
        filtration_search(reg, [("A", reg)], "exact-layers")


def test_filtration_is_searched_once_per_question(monkeypatch):
    """``Stratification.filtration`` keeps each search by module, allowed
    (name, object) pairs and mode.  Asked again, it answers from the first
    search; under other names it searches again; a search that raises is
    not kept."""
    s = strat_of("FIX-A2")
    calls = []
    real = strat.filtration_search
    monkeypatch.setattr(strat, "filtration_search", lambda *args: calls.append(args) or real(*args))
    a = s.algebra
    p1, _ = projective_module(a, "1")
    allowed = [(f"L({v})", simple_module(a, v)) for v in a.vertex_names]
    cert = s.filtration(p1, allowed, "exact-layers")
    assert cert is not None
    assert s.filtration(p1, list(allowed), "exact-layers") is cert
    renamed = [(f"M({v})", x) for v, (_, x) in zip(a.vertex_names, allowed)]
    assert {l.allowed_name for l in s.filtration(p1, renamed, "exact-layers").layers} <= {"M(1)", "M(2)"}
    reg = regular_module(a)
    for _ in range(2):
        with pytest.raises(ValueError):
            s.filtration(reg, [("A", reg)], "exact-layers")
    assert len(calls) == 4


def test_lower_sets_and_layers_are_kept_in_the_one_memo():
    """Each lower-set algebra and layer recollement is built once and kept
    in ``Stratification.memo``; the algebra of a lower set is the closed
    side of the layer above it, so asking for one keeps every layer and
    lower set above it too.  A set that is not lower, or a label that is
    not maximal in it, raises before anything is kept: every caller in the
    package passes a lower set and a maximal label, so that is a program
    fault (``InvariantError``)."""
    s = strat_of("FIX-A3", check=False)
    with pytest.raises(InvariantError, match="not a lower set"):
        s.lower_algebra(frozenset({"y"}))
    with pytest.raises(InvariantError, match="not maximal"):
        s.layer_recollement(frozenset({"x", "y"}), "x")
    assert s._memo == {}
    xy = frozenset({"x", "y"})
    r = s.layer_recollement(xy, "y")
    assert s.layer_recollement({"x", "y"}, "y") is r
    assert s.lower_algebra({"x", "y"}) is s.lower_algebra(xy)
    xyz = frozenset({"x", "y", "z"})
    assert set(s._memo) == {("lower", xy), ("layer", xy, "y"), ("lower", xyz), ("layer", xyz, "z")}


@pytest.mark.parametrize("name", ["FIX-A3", "v_gf3"])
def test_each_lower_set_algebra_is_the_closed_side_of_the_layer_above(name):
    """Peeling z, y and x off the chain x < y < z (FIX-A3) or the V poset
    x < z > y, each lower set's algebra is the very object that the layer
    above it has as its closed side, so the two share modules, resolutions
    and simples; the full set's is A."""
    spec = load_fixture(name) if name.startswith("FIX") else load_spec(GOLDEN / f"{name}.input.json")[0]
    s = stratification_of(spec, check=False)
    assert s.lower_algebra(frozenset(s.poset.elements)).algebra is s.algebra
    for lower, lam in (({"x", "y", "z"}, "z"), ({"x", "y"}, "y"), ({"x"}, "x")):
        r = s.layer_recollement(frozenset(lower), lam)
        assert s.lower_algebra(frozenset(lower) - {lam}).algebra is r.cat_z.algebra


def test_porism_every_vertex(strats):
    for fix, s in strats.items():
        for b in s.algebra.vertex_names:
            res = porism_check(s, b)
            assert res.kernel_module.dim + s.standard_objects()[b].std.dim == \
                projective_module(s.algebra, b)[0].dim


def test_porism_nak_proper_quotient_layer(strats):
    """The porism kernel at vertex 1 is a proper quotient of std(2): the
    quotient-layers certificate exists even though the exact filtration does
    not (see test_filtration_nak_fails_exact_mode)."""
    s = strats["FIX-NAK"]
    res = porism_check(s, "1")
    assert res.kernel_module.dim == 1
    assert [l.allowed_name for l in res.certificate.layers] == ["std(2)"]
    assert s.standard_objects()["2"].std.dim == 2  # strictly bigger than the layer


def test_porism_maximal_vertex_trivial(strats):
    s = strats["FIX-A2"]
    res = porism_check(s, "2")
    assert res.kernel_module.dim == 0
    assert res.certificate.layers == ()


def test_synthesis_every_vertex(strats):
    for fix, s in strats.items():
        for t in s.algebra.vertex_names:
            res = synthesize_projective_cover(s, t)  # raises unless it is the direct cover
            direct, _ = projective_module(s.algebra, t)
            assert res.module.dim == direct.dim


def test_synthesis_audit_a2(strats):
    s = strats["FIX-A2"]
    res = synthesize_projective_cover(s, "1")
    assert [a.layer for a in res.audit] == ["x", "y"]
    assert res.audit[1].iterations == 1
    assert res.audit[1].multiplicities == (("2", 1),)


def test_synthesis_computes_ext1_once_per_layer_simple_and_iteration(strats, monkeypatch):
    """A work counter: each pass of a layer's loop computes Ext^1 against
    the layer simples once, inside the universal extension, whose
    multiplicities end the loop, and nothing else does: each layer is
    certified by a count, not by Ext^1 or an isomorphism test.  P(1) over
    FIX-A3 crosses layers x, y, z with one extension at y and at z: 0 + 2 +
    2 computations."""
    calls = []
    real = homological.ext
    monkeypatch.setattr(homological, "ext", lambda m, n, d: calls.append(d) or real(m, n, d))
    monkeypatch.setattr(strat, "is_isomorphic", lambda *args: pytest.fail("synthesis asked is_isomorphic"))
    synthesize_projective_cover(strats["FIX-A3"], "1")
    assert calls == [1] * 4 and not hasattr(strat, "ext")


def test_synthesis_refuses_a_layer_left_unextended(strats, monkeypatch):
    """A universal extension that returns its input and reports nothing to
    extend leaves P(1) over FIX-A3 one dimension short at layer y: the
    count against P(1) of the layer's algebra refuses it.  Synthesis
    rebuilds P(1) by construction, so the refusal is a program fault
    (``InvariantError``), not a verdict on the input."""
    monkeypatch.setattr(strat, "universal_extension", lambda m, targets: homological.UniversalExtension(
        multiplicities=(0,) * len(targets), middle=m))
    with pytest.raises(InvariantError, match=r"synthesized P\(1\) has dimension 1, not 2"):
        synthesize_projective_cover(strats["FIX-A3"], "1")


def test_synthesis_iteration_cap_raises_on_the_iteration_past_it(strats, monkeypatch):
    """The cap counts extensions: P(1) over FIX-A2 needs one at layer y, so
    a cap of 1 passes and a cap of 0 raises there."""
    s = strats["FIX-A2"]
    monkeypatch.setattr(strat, "SYNTHESIS_ITERATION_CAP", 1)
    assert synthesize_projective_cover(s, "1").audit[1].iterations == 1
    monkeypatch.setattr(strat, "SYNTHESIS_ITERATION_CAP", 0)
    with pytest.raises(strat.SynthesisNonTermination, match="bound 0 exceeded at layer y"):
        synthesize_projective_cover(s, "1")


def test_synthesis_maximal_vertex_no_extension(strats):
    s = strats["FIX-A3"]
    res = synthesize_projective_cover(s, "3")
    assert all(a.iterations == 0 for a in res.audit)
    assert res.module.dim == 1


def composition_profile(s, m):
    """Composition factors of m counted per stratum label.

    Computed by socle peeling (an explicit composition series: the socle is
    semisimple with one factor per unit of each vertex dimension).  A
    subquotient of j_!* of a stratum object may hide factors from lower
    strata, so there is no clean two-sequence recursion; this count is the
    honest series, and ``profile_consistency_checks`` triangulates it
    against the idempotent count and the top-layer restriction count.
    """
    out = {lam: 0 for lam in s.poset.elements}
    current = m
    while current.dim > 0:
        soc_space = annihilator(current, current.algebra.radical.basis)
        soc, _ = submodule(current, soc_space)
        for v, idx in zip(s.algebra.vertex_names, s.algebra.idempotent_indices):
            out[s.rho[v]] += soc.block(idx).rank()
        current, _ = quotient_module(current, soc_space)
    return out


def profile_consistency_checks(s, m):
    """Composition counts agree along three independent routes.

    (a) socle-peeling series, (b) per-vertex idempotent ranks, (c) for each
    maximal stratum, the corner dimension of the layer restriction (the
    Serre quotient kills exactly the lower factors and is exact).
    """
    prof = composition_profile(s, m)
    direct = {lam: 0 for lam in s.poset.elements}
    for v, idx in zip(s.algebra.vertex_names, s.algebra.idempotent_indices):
        direct[s.rho[v]] += m.block(idx).rank()
    if prof != direct:
        raise StratificationError(f"composition profiles disagree: {prof} vs {direct}")
    if sum(prof.values()) != m.dim:
        raise StratificationError("composition length does not equal the dimension")
    full = frozenset(s.poset.elements)
    for lam in s.poset.maximal_in(full):
        r = s.layer_recollement(full, lam)
        if r.j_restrict(m).dim != prof[lam]:
            raise StratificationError(
                f"layer restriction at {lam} disagrees with the composition count"
            )


def test_composition_profiles(strats):
    for fix, s in strats.items():
        mods = [regular_module(s.algebra)]
        for v in s.algebra.vertex_names:
            mods.append(projective_module(s.algebra, v)[0])
            mods.append(injective_module(s.algebra, v))
            mods.append(simple_module(s.algebra, v))
        for m in mods:
            profile_consistency_checks(s, m)


def test_duality_swaps_standard_sides(strats):
    """Over the opposite algebra, standards become the duals of costandards."""
    from stratakit.algebra import opposite
    from stratakit.modules import dual_module

    for fix in ALL:
        s = strats[fix]
        aop = opposite(s.algebra)
        sop = Stratification(aop, s.poset, s.rho, s.epsilon, check=False)
        fams = s.standard_objects()
        fams_op = sop.standard_objects()
        cat = ModuleCategory(aop)
        for b in s.algebra.vertex_names:
            assert is_isomorphic(cat, dual_module(fams[b].costd), fams_op[b].std).isomorphic
            assert is_isomorphic(cat, dual_module(fams[b].proper_costd), fams_op[b].proper_std).isomorphic
            assert is_isomorphic(cat, dual_module(fams[b].std), fams_op[b].costd).isomorphic
            assert is_isomorphic(cat, dual_module(fams[b].proper_std), fams_op[b].proper_costd).isomorphic


def test_certificates_verify_independently(strats):
    s = strats["FIX-A2"]
    fams = s.standard_objects()
    p1, _ = projective_module(s.algebra, "1")
    cert = filtration_search(
        p1, [("std(1)", fams["1"].std), ("std(2)", fams["2"].std)],
        "exact-layers",
    )
    assert verify_filtration_certificate(cert)
    for fix, st in strats.items():
        for b in st.algebra.vertex_names:
            res = porism_check(st, b)
            assert verify_filtration_certificate(res.certificate), (fix, b)


def test_rational_field_end_to_end():
    """The whole pipeline over the rationals (heuristic search mode)."""
    from stratakit.analyze import is_epsilon_stratified, is_highest_weight, sign_patterns
    from stratakit.corpus import fixture_bytes

    data = json.loads(fixture_bytes("fix_a2.json"))
    data["field"] = {"kind": "Q"}
    spec = parse_spec(data, name="a2-rational")
    a = build_algebra(spec)
    ss = spec.stratification
    poset = Poset.from_pairs(ss.poset.elements, ss.poset.leq)
    s = Stratification(a, poset, ss.rho, check=True)
    s.classify_simples()
    for b in a.vertex_names:
        synthesize_projective_cover(s, b)  # raises unless it is the direct cover
        assert porism_check(s, b).certificate is not None
    for eps in sign_patterns(poset):
        res = is_epsilon_stratified(s, eps)
        assert res.agreement and res.verdict
    hw = is_highest_weight(s)
    assert hw.verdict and hw.agreement
