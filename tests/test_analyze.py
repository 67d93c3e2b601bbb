import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from stratakit import analyze
from stratakit.algebra import opposite
from stratakit.analyze import (
    ExtComparison,
    _flag_route,
    exactness_check,
    ext_comparison,
    is_epsilon_stratified,
    is_highest_weight,
    is_k_homological,
    sign_patterns,
)
from stratakit.category import ShortExactSequence
from stratakit.corpus import fixture_bytes
from stratakit.modules import projective_module, simple_module
from stratakit.specfile import build_algebra, parse_spec
from stratakit.strat import Poset, Stratification

from oracles import corner_bimodule_is_projective
from support import bs_vanishing_table, load_fixture

ALL = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]
GOLDEN = Path(__file__).parent / "golden"


def strat_of(fix):
    spec = load_fixture(fix)
    a = build_algebra(spec)
    ss = spec.stratification
    poset = Poset.from_pairs(ss.poset.elements, ss.poset.leq)
    return Stratification(a, poset, ss.rho, ss.epsilon)


@pytest.fixture(scope="module")
def strats():
    return {fix: strat_of(fix) for fix in ALL}


def test_exactness_trivial_stratum(strats):
    # one-dimensional strata: both sides exact (every vector space is free)
    s = strats["FIX-A2"]
    for lam in ("x", "y"):
        for side in ("j_!", "j_*"):
            assert exactness_check(s, lam, side).exact


def test_exactness_kro_negative_with_witness(strats):
    s = strats["FIX-KRO"]
    for side in ("j_!", "j_*"):
        ev = exactness_check(s, "u", side)
        assert not ev.exact
        assert ev.witness is not None
        assert ev.witness["euler_defect"] != 0


def test_exactness_loop_one_sided(strats):
    s = strats["FIX-LOOP"]
    assert exactness_check(s, "u", "j_*").exact
    assert not exactness_check(s, "u", "j_!").exact


FIELDS = ({"kind": "Q"}, {"kind": "GF", "p": 3})


def exactness_inputs():
    """Every stratified fixture and golden input, seeded chains on C_n and
    A_n (n <= 4) and two-group strata (stratum algebras up to dimension 6),
    each over Q and over GF(3)."""
    raw = [json.loads(fixture_bytes(f"{fix.lower().replace('-', '_')}.json")) for fix in ALL]
    raw += [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.input.json"))]
    rng = random.Random(22)
    for field in FIELDS:
        for data in raw:
            if "stratification" in data:
                spec = parse_spec({**data, "field": field})
                ss = spec.stratification
                yield Stratification(build_algebra(spec), Poset.from_pairs(ss.poset.elements, ss.poset.leq),
                                     ss.rho, check=False)
        for kind in "CA":
            for n in (2, 3, 4):
                yield chain_strat(kind, field, rng.sample([f"s{i}" for i in range(1, n + 1)], n), check=False)
            for n in (3, 4):
                for k in range(1, n):  # vertices 1..k in one stratum, the rest in the other
                    rho = {str(i): "x" if i <= k else "y" for i in range(1, n + 1)}
                    for leq in ([["x", "y"]], [["y", "x"]]):
                        yield quiver_strat(kind, field, n, rho, leq, check=False)


def test_exactness_search_agrees_with_corner_bimodule_projectivity():
    """Differential: the lost-exactness search decides exactness of j_! and
    j_* at every stratum as the corner bimodule's projectivity does (the
    reference in oracles.py), and both answers occur."""
    seen = set()
    for s in exactness_inputs():
        for lam in s.poset.elements:
            for side in ("j_!", "j_*"):
                want = corner_bimodule_is_projective(s, lam, side)
                assert exactness_check(s, lam, side).exact == want, (s.algebra.field, s.rho, lam, side)
                seen.add((side, want))
    assert seen == {(side, want) for side in ("j_!", "j_*") for want in (True, False)}


def test_ext_comparison_degree_small(strats):
    # degrees 0 and 1 are isomorphisms on every instance (hard assertion
    # inside; here we just exercise it)
    s = strats["FIX-NAK"]
    r = s.layer_recollement(frozenset({"x", "y"}), "y")
    s1 = simple_module(r.cat_z.algebra, "1")
    for n in (0, 1):
        cmp = ext_comparison(r, s1, s1, n)
        assert cmp.is_isomorphism


def test_ext_comparison_a2_degree2(strats):
    s = strats["FIX-A2"]
    r = s.layer_recollement(frozenset({"x", "y"}), "y")
    s1 = simple_module(r.cat_z.algebra, "1")
    cmp = ext_comparison(r, s1, s1, 2)
    assert cmp == ExtComparison(degree=2, dim_source=0, dim_target=0, rank=0)
    assert cmp.is_isomorphism


def test_ext_comparison_nak_degree2_fails(strats):
    s = strats["FIX-NAK"]
    r = s.layer_recollement(frozenset({"x", "y"}), "y")
    s1 = simple_module(r.cat_z.algebra, "1")
    cmp = ext_comparison(r, s1, s1, 2)
    assert (cmp.dim_source, cmp.dim_target) == (0, 1)
    assert not cmp.is_isomorphism


def test_k_homological_verdicts(strats):
    assert is_k_homological(strats["FIX-A2"], 2).holds
    assert is_k_homological(strats["FIX-A3"], 2).holds
    assert is_k_homological(strats["FIX-DUAL"], 2).holds  # single stratum: vacuous
    assert is_k_homological(strats["FIX-LOOP"], 2).holds
    hv = is_k_homological(strats["FIX-NAK"], 2)
    assert not hv.holds
    assert hv.witness["degree"] == 2
    assert hv.witness["dims"] == (0, 1)


def test_k_homological_deep_flag(strats):
    hv = is_k_homological(strats["FIX-A2"], 2, deep=True)
    assert hv.holds and "projectives" in hv.note


def test_epsilon_expected_verdicts(strats):
    expected = {
        "FIX-A2": lambda eps: True,
        "FIX-A3": lambda eps: True,
        "FIX-NAK": lambda eps: False,
        "FIX-DUAL": lambda eps: True,
        "FIX-KRO": lambda eps: False,
        "FIX-LOOP": lambda eps: eps["u"] == "+",
    }
    for fix, want in expected.items():
        s = strats[fix]
        for eps in sign_patterns(s.poset):
            res = is_epsilon_stratified(s, eps)
            assert res.agreement, (fix, eps, res)
            assert res.verdict == want(eps), (fix, eps, res.verdict)


def test_epsilon_nak_witnesses(strats):
    s = strats["FIX-NAK"]
    res = is_epsilon_stratified(s, {"x": "+", "y": "+"})
    assert not res.verdict
    assert res.routes["theorem"].witness["failure"] == "2-homological"
    assert res.routes["direct-delta"].witness["projective_at"] == "1"
    assert res.routes["direct-nabla"].witness["failure"] == "no sign-costandard filtration"


def quiver_strat(kind, field, n, rho, leq, check=True):
    """C_n (radical-square-zero cycle) or A_n (linear path) over ``field``,
    vertex v in stratum rho[v], the strata ordered by ``leq``."""
    vs = [str(i) for i in range(1, n + 1)]
    if kind == "C":
        arrows = [{"name": f"a{i}", "from": vs[i - 1], "to": vs[i % n]} for i in range(1, n + 1)]
        relations = [{"terms": [{"coeff": 1, "path": [f"a{i}", f"a{i % n + 1}"]}]} for i in range(1, n + 1)]
    else:
        arrows = [{"name": f"a{i}", "from": vs[i - 1], "to": vs[i]} for i in range(1, n)]
        relations = []
    elements = sorted(set(rho.values()))
    spec = parse_spec({
        "field": field,
        "quiver": {"vertices": vs, "arrows": arrows},
        "relations": relations,
        "stratification": {"poset": {"elements": elements, "leq": leq}, "rho": rho},
    })
    ss = spec.stratification
    return Stratification(build_algebra(spec), Poset.from_pairs(ss.poset.elements, ss.poset.leq), ss.rho,
                          check=check)


def chain_strat(kind, field, chain, check=True):
    """C_n or A_n, n = len(chain), with vertex i labelled si and the strata
    totally ordered by ``chain``."""
    n = len(chain)
    return quiver_strat(kind, field, n, {str(i): f"s{i}" for i in range(1, n + 1)},
                        [[chain[i], chain[j]] for i in range(n) for j in range(i + 1, n)], check)


def test_nabla_route_matches_delta_route_over_the_opposite(strats):
    """The injective side read through duality agrees with the projective
    side of a separately built stratification of the opposite algebra, with
    the signs flipped: same verdict, same failing vertex."""
    cases = list(strats.values()) + [
        chain_strat("C", {"kind": "Q"}, ["s2", "s1", "s3"]),
        chain_strat("C", {"kind": "GF", "p": 3}, ["s2", "s1", "s3"]),
        chain_strat("A", {"kind": "Q"}, ["s3", "s1", "s2"]),
    ]
    for s in cases:
        sop = Stratification(opposite(s.algebra), s.poset, s.rho, check=False)
        for eps in sign_patterns(s.poset):
            flipped = {lam: "-" if sign == "+" else "+" for lam, sign in eps.items()}
            nabla = _flag_route(s, eps, "nabla")
            delta_op = _flag_route(sop, flipped, "delta")
            assert nabla.verdict == delta_op.verdict, (s.algebra.field, eps)
            if not nabla.verdict:
                assert nabla.witness == {"failure": "no sign-costandard filtration",
                                         "injective_at": delta_op.witness["projective_at"]}


def test_single_stratum_always_stratified(strats):
    s = strats["FIX-DUAL"]
    for eps in sign_patterns(s.poset):
        assert is_epsilon_stratified(s, eps).verdict


@dataclass(frozen=True)
class SplitCheckResult:
    exact: bool
    dims: tuple[int, int, int]   # (j_! j^* P, P, i_* i^* P)
    obstruction: str | None


def lemma_split_check(s, lam: str, p) -> SplitCheckResult:
    """For maximal lam: is 0 -> j_! j^* P -> P -> i_* i^* P -> 0 exact?

    Holds whenever the recollement is 2-homological and P is projective; a
    dimension mismatch is returned as the obstruction otherwise.
    """
    full = frozenset(s.poset.elements)
    if lam not in s.poset.maximal_in(full):
        raise ValueError(f"{lam} is not maximal")
    r = s.layer_recollement(full, lam)
    eps = r.counit_jl(p)
    eta = r.unit_quot(p)
    dims = (eps.source.dim, p.dim, eta.target.dim)
    if dims[0] + dims[2] != dims[1]:
        return SplitCheckResult(
            exact=False, dims=dims,
            obstruction=f"dim j_! j^* P + dim i_* i^* P = {dims[0]} + {dims[2]} != {dims[1]} = dim P",
        )
    ok = ShortExactSequence(eps, eta).verify()
    return SplitCheckResult(exact=ok, dims=dims, obstruction=None if ok else "sequence not exact")


def test_lemma_split_a2(strats):
    s = strats["FIX-A2"]
    p1, _ = projective_module(s.algebra, "1")
    res = lemma_split_check(s, "y", p1)
    assert res.exact and res.dims == (1, 2, 1)
    # d P with no Z-side part: trivial sequence
    p2, _ = projective_module(s.algebra, "2")
    res2 = lemma_split_check(s, "y", p2)
    assert res2.exact and res2.dims == (1, 1, 0)


def test_lemma_split_nak_obstruction(strats):
    s = strats["FIX-NAK"]
    p1, _ = projective_module(s.algebra, "1")
    res = lemma_split_check(s, "y", p1)
    assert not res.exact
    assert res.dims == (2, 2, 1)
    assert "obstruction" in str(res.obstruction) or res.obstruction


def test_bs_vanishing_on_stratified_fixtures(strats):
    for fix in ("FIX-A2", "FIX-A3"):
        s = strats[fix]
        for eps in sign_patterns(s.poset):
            table = bs_vanishing_table(s, eps, 3)
            for (b, c, n), d in table.items():
                if n == 0 and b == c:
                    assert d == 1, (fix, eps, b, n, d)
                elif n >= 1:
                    assert d == 0, (fix, eps, b, c, n, d)


def test_bs_diagonal_hom_is_one_everywhere(strats):
    for fix in ALL:
        s = strats[fix]
        eps = {lam: "+" for lam in s.poset.elements}
        table = bs_vanishing_table(s, eps, 0)
        for b in s.algebra.vertex_names:
            assert table[(b, b, 0)] == 1
            for c in s.algebra.vertex_names:
                if c != b:
                    assert table[(b, c, 0)] == 0


def test_highest_weight_hereditary(strats):
    a2 = strats["FIX-A2"].algebra
    for rho in ({"1": "x", "2": "y"}, {"1": "y", "2": "x"}):
        poset = Poset.from_pairs(["x", "y"], [("x", "y")])
        res = is_highest_weight(Stratification(a2, poset, rho))
        assert res.verdict and res.agreement
    a3 = strats["FIX-A3"].algebra
    poset3 = Poset.from_pairs(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    for perm in itertools.permutations(["x", "y", "z"]):
        rho = dict(zip(("1", "2", "3"), perm))
        res = is_highest_weight(Stratification(a3, poset3, rho))
        assert res.verdict and res.agreement


def nak_labelings():
    yield Poset.from_pairs(["l"], []), {"1": "l", "2": "l"}
    for rho in ({"1": "x", "2": "y"}, {"1": "y", "2": "x"}):
        yield Poset.from_pairs(["x", "y"], [("x", "y")]), rho
    yield Poset.from_pairs(["x", "y"], []), {"1": "x", "2": "y"}


def test_highest_weight_nak_never(strats):
    nak = strats["FIX-NAK"].algebra
    for poset, rho in nak_labelings():
        res = is_highest_weight(Stratification(nak, poset, rho))
        assert not res.verdict and res.agreement, (rho, res)


def test_highest_weight_dual_never(strats):
    dual = strats["FIX-DUAL"].algebra
    res = is_highest_weight(Stratification(dual, Poset.from_pairs(["l"], []), {"1": "l"}))
    assert not res.verdict and res.agreement
    assert res.routes["structure"].witness["failure"] == "stratum not one-dimensional"


def test_highest_weight_loop_kro_not(strats):
    for fix in ("FIX-LOOP", "FIX-KRO"):
        s = strats[fix]
        res = is_highest_weight(s)
        assert not res.verdict and res.agreement


def test_monotone_consistency(strats):
    """If all sign patterns pass, strata are one-dimensional, and the
    stratification is 2-homological, then highest weight holds."""
    for fix in ALL:
        s = strats[fix]
        all_eps = all(is_epsilon_stratified(s, e).verdict for e in sign_patterns(s.poset))
        strata_ok = all(s.stratum(lam).algebra.dim == 1 for lam in s.poset.elements)
        homological = is_k_homological(s, 2).holds
        hw = is_highest_weight(s).verdict
        if all_eps and strata_ok and homological:
            assert hw, fix
        if hw:
            assert all_eps and strata_ok and homological, fix


def test_ext_comparison_lifts_only_between_nonzero_spaces(monkeypatch):
    """A work counter: a chain map is lifted only when both Ext spaces are
    nonzero, so the degree bound does not change the number of hom solves on
    FIX-A3 (75 at n = 4 and 16,605 at n = 80 when every comparison lifted
    through every degree)."""
    calls = []
    original = analyze.solve_in_hom

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(analyze, "solve_in_hom", counted)
    counts = []
    for n in (4, 80):
        calls.clear()
        assert is_k_homological(strat_of("FIX-A3"), n).holds
        counts.append(len(calls))
    assert counts[0] == counts[1]
