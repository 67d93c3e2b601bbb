"""Acceptance criteria, one test per criterion.

Every criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them on success; pytest shows them on failure regardless).  All
tolerances are exact: the arithmetic is exact, so every assertion is an
equality or a boolean.
"""

import itertools
import json
import random

import pytest

from stratakit.analyze import (
    is_epsilon_stratified,
    is_highest_weight,
    sign_patterns,
)
from stratakit.category import ModuleCategory, is_isomorphic, solve_in_hom
from stratakit.cli import main as cli_main
from stratakit.homological import ext
from stratakit.modules import (
    projective_module,
    simple_module,
)
from stratakit.mv import mv_data_from_spec, mv_intermediate_table, mv_recollement
from stratakit.recollement import (
    intermediate_extension,
    make_idempotent_recollement,
    verify_recollement,
)
from stratakit.specfile import build_algebra
from stratakit.strat import (
    Poset,
    Stratification,
    filtration_search,
    porism_check,
    synthesize_projective_cover,
)

from oracles import ext1_dimension_by_enumeration
from support import bs_vanishing_table, is_injective, load_fixture, mv_direct_sum

STRAT_FIXTURES = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]
MV_FIXTURES = ["FIX-MV-ID", "FIX-MV-ZERO", "FIX-MV-PROD", "FIX-MV-PAIR"]


def strat_of(fix, check=False):
    spec = load_fixture(fix)
    a = build_algebra(spec)
    ss = spec.stratification
    poset = Poset.from_pairs(ss.poset.elements, ss.poset.leq)
    return Stratification(a, poset, ss.rho, ss.epsilon, check=check)


@pytest.fixture(scope="module")
def strats():
    return {fix: strat_of(fix) for fix in STRAT_FIXTURES}


def report(n, desc, ok):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok


def test_criterion_1_recollement_axiom_suite(strats):
    """Axioms hold for every fixture algebra and every vertex idempotent."""
    violations = []
    for fix in STRAT_FIXTURES:
        a = strats[fix].algebra
        samples = ModuleCategory(a).standard_samples()
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            rep = verify_recollement(r, samples)
            if not rep.ok:
                violations.append((fix, v, rep.failures()[:2]))
    report(1, f"recollement axioms on all fixtures/idempotents ({len(STRAT_FIXTURES)} algebras): "
              f"{len(violations)} violations", not violations)


def test_criterion_2_simple_classification(strats):
    ok = True
    for fix, s in strats.items():
        table = s.classify_simples()  # raises on mismatch/redundancy
        ok = ok and len(table) == len(s.algebra.vertex_names)
    report(2, "simple classification complete and irredundant on every fixture", ok)


def test_criterion_3_intermediate_extension_contracts(strats):
    rng = random.Random(2026)
    ok = True
    for fix, s in strats.items():
        a = s.algebra
        for v in a.vertex_names:
            r = make_idempotent_recollement(a, [v])
            corner = r.data.corner
            if corner is None:
                continue
            cat_u = r.cat_u
            gens = ModuleCategory(corner.algebra).standard_samples()
            objs = [m for _, m in gens if m.dim > 0]
            if not objs:
                continue
            # functor contracts on objects
            for x in objs:
                ie = intermediate_extension(r, x)  # asserts kills + recovery
            # mono/epi preservation on 50 randomized morphisms
            count = 0
            attempts = 0
            while count < 50 and attempts < 5000:
                attempts += 1
                x, y = rng.choice(objs), rng.choice(objs)
                hb = cat_u.hom_basis(x, y)
                if not hb:
                    continue
                f = hb[0]
                for h in hb[1:]:
                    if rng.random() < 0.5:
                        f = f + h
                ie_x = intermediate_extension(r, x)
                ie_y = intermediate_extension(r, y)
                lifted = r.j_lower.map(f).then(ie_y.from_lower)
                jf = solve_in_hom(r.cat_c, ie_x.obj, ie_y.obj, lambda h: ie_x.from_lower.then(h), lifted)
                if jf is None or not (ie_x.from_lower.then(jf) - lifted).is_zero:
                    ok = False
                    break
                if is_injective(f) and not is_injective(jf):
                    ok = False
                if f.is_surjective() and not jf.is_surjective():
                    ok = False
                count += 1
            ok = ok and count == 50
    report(3, "intermediate extension kills both closed-side adjoints, restricts to the "
              "identity, and preserves monos/epis on 50 random morphisms per fixture", ok)


def test_criterion_4_constructive_cover_synthesis(strats):
    for fix, s in strats.items():
        for t in s.algebra.vertex_names:
            # Steps 3-4 asserted inside; it raises unless the result is
            # isomorphic to the direct cover
            synthesize_projective_cover(s, t)
    report(4, "synthesized covers isomorphic to direct covers for every vertex", True)


def test_criterion_5_porism_suite(strats):
    ok = True
    for fix, s in strats.items():
        for b in s.algebra.vertex_names:
            porism_check(s, b)  # raises on failure
    # the gap case: FIX-NAK kernel is a proper quotient with no exact filtration
    s = strats["FIX-NAK"]
    fams = s.standard_objects()
    p1, _ = projective_module(s.algebra, "1")
    exact = filtration_search(
        p1, [(f"std({c})", fams[c].std) for c in s.algebra.vertex_names],
        mode="exact-layers",
    )
    res = porism_check(s, "1")
    ok = ok and exact is None and len(res.certificate.layers) == 1
    report(5, "porism certificates for every vertex; quotient-layers succeeds where "
              "the exact filtration fails on FIX-NAK", ok)


def test_criterion_6_headline_route_agreement(strats):
    expected = {
        "FIX-A2": lambda eps: True,
        "FIX-A3": lambda eps: True,
        "FIX-NAK": lambda eps: False,
        "FIX-DUAL": lambda eps: True,
        "FIX-KRO": lambda eps: False,
        "FIX-LOOP": lambda eps: eps["u"] == "+",
    }
    ok = True
    nak_witness_seen = False
    for fix, s in strats.items():
        assert len(s.poset.elements) <= 3
        for eps in sign_patterns(s.poset):
            res = is_epsilon_stratified(s, eps)
            ok = ok and res.agreement and res.verdict == expected[fix](eps)
            if fix == "FIX-NAK" and res.routes["theorem"].witness:
                w = res.routes["theorem"].witness.get("witness", {})
                if w.get("degree") == 2 and w.get("dims") == (0, 1):
                    nak_witness_seen = True
    ok = ok and nak_witness_seen
    report(6, "theorem route = direct standard route = direct costandard route on every "
              "fixture and sign pattern (oracle mode), with the degree-2 witness on FIX-NAK", ok)


def test_criterion_7_highest_weight(strats):
    ok = True
    # hereditary fixtures: YES under all total orders
    poset2 = Poset.from_pairs(["x", "y"], [("x", "y")])
    for rho in ({"1": "x", "2": "y"}, {"1": "y", "2": "x"}):
        res = is_highest_weight(Stratification(strats["FIX-A2"].algebra, poset2, rho))
        ok = ok and res.verdict and res.agreement
    poset3 = Poset.from_pairs(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    for perm in itertools.permutations(["x", "y", "z"]):
        res = is_highest_weight(
            Stratification(strats["FIX-A3"].algebra, poset3, dict(zip(("1", "2", "3"), perm))))
        ok = ok and res.verdict and res.agreement
    # FIX-DUAL and FIX-NAK: NO under every admissible labeling
    res = is_highest_weight(
        Stratification(strats["FIX-DUAL"].algebra, Poset.from_pairs(["l"], []), {"1": "l"}))
    ok = ok and not res.verdict and res.agreement
    nak = strats["FIX-NAK"].algebra
    labelings = [(Poset.from_pairs(["l"], []), {"1": "l", "2": "l"}),
                 (Poset.from_pairs(["x", "y"], []), {"1": "x", "2": "y"})]
    for rho in ({"1": "x", "2": "y"}, {"1": "y", "2": "x"}):
        labelings.append((poset2, rho))
    for poset, rho in labelings:
        res = is_highest_weight(Stratification(nak, poset, rho))
        ok = ok and not res.verdict and res.agreement
    report(7, "hereditary fixtures highest weight under all total orders; dual numbers and "
              "the radical-square-zero cycle never; both routes agree everywhere", ok)


def test_criterion_8_ext_oracle(strats):
    ok = True
    for fix in ("FIX-A2", "FIX-NAK", "FIX-DUAL"):
        a = strats[fix].algebra
        assert a.field.p == 2
        for v in a.vertex_names:
            for w in a.vertex_names:
                m, n = simple_module(a, v), simple_module(a, w)
                resolved = ext(m, n, 1).dim
                enumerated = ext1_dimension_by_enumeration(m, n)
                ok = ok and resolved == enumerated
    report(8, "first Ext dimensions from minimal resolutions equal exhaustive "
              "extension-enumeration counts for all simple pairs (exact equality)", ok)


def test_criterion_9_ext_vanishing_on_stratified(strats):
    ok = True
    pairs_checked = 0
    for fix, s in strats.items():
        for eps in sign_patterns(s.poset):
            if not is_epsilon_stratified(s, eps).routes["direct-delta"].verdict:
                continue
            table = bs_vanishing_table(s, eps, 4)
            for (b, c, n), d in table.items():
                if n >= 1:
                    ok = ok and d == 0
                    pairs_checked += 1
    ok = ok and pairs_checked > 0
    report(9, f"Ext^n between sign-standard and sign-costandard objects vanishes for "
              f"1 <= n <= 4 on every stratified (fixture, sign) pair ({pairs_checked} entries)", ok)


def test_criterion_10_mv_suite():
    ok = True
    for fix in MV_FIXTURES:
        spec = load_fixture(fix)
        data = mv_data_from_spec(spec.mv, spec.field)
        r = mv_recollement(data)
        cat = r.cat_c
        samples = []
        for w in data.u_algebra.vertex_names:
            su = simple_module(data.u_algebra, w)
            samples.append((f"j_lower(S_u({w}))", r.j_lower(su)))
            samples.append((f"j_roof(S_u({w}))", r.j_roof(su)))
        for v in data.z_algebra.vertex_names:
            samples.append((f"i_embed(S_z({v}))", r.i_embed(simple_module(data.z_algebra, v))))
        rep = verify_recollement(r, samples)
        ok = ok and rep.ok
        for w in data.u_algebra.vertex_names:
            su = simple_module(data.u_algebra, w)
            generic = intermediate_extension(r, su).obj
            closed = mv_intermediate_table(cat, su)
            iso = is_isomorphic(cat, generic, closed).isomorphic
            ok = ok and iso
        # 100 randomized universal-property probes
        base = [o for _, o in samples]
        objs = list(base)
        for i in range(len(base)):
            for j in range(i, len(base)):
                objs.append(mv_direct_sum(cat, [base[i], base[j]])[0])
        rng = random.Random(515)
        probes = 0
        attempts = 0
        while probes < 100 and attempts < 4000:
            attempts += 1
            x, y, t = rng.choice(objs), rng.choice(objs), rng.choice(objs)
            basis = cat.hom_basis(x, y)
            if not basis:
                continue
            f = basis[0]
            for h in basis[1:]:
                if rng.random() < 0.5:
                    f = f + h
            k_obj, k_mono = cat.kernel(f)
            c_obj, c_epi = cat.cokernel(f)
            for g in cat.hom_basis(t, x):
                if g.then(f).is_zero:
                    h = solve_in_hom(cat, t, k_obj, lambda h: h.then(k_mono), g)
                    ok = ok and h is not None and (h.then(k_mono) - g).is_zero
                    probes += 1
            for g in cat.hom_basis(y, t):
                if f.then(g).is_zero:
                    h = solve_in_hom(cat, c_obj, t, lambda h: c_epi.then(h), g)
                    ok = ok and h is not None and (c_epi.then(h) - g).is_zero
                    probes += 1
        ok = ok and probes >= 100
    report(10, "glued recollements verify, the closed middle formula matches the generic "
               "one, and 100 universal-property probes pass per gluing fixture", ok)


def test_criterion_11_corpus_determinism(capsys):
    code1 = cli_main(["corpus", "--seed", "11"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["corpus", "--seed", "11"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 100
    data = json.loads(out1)
    ok = ok and data["summary"]["verdict"] == "PASS"
    report(11, "corpus report is byte-identical across two runs with the same seed", ok)
