"""Helpers shared by more than one test module."""

from __future__ import annotations

import functools
import json
import random
from typing import Iterable, Sequence

from stratakit.algebra import Algebra, Presentation, Quiver, build_bound_quiver_algebra, quotient_by_idempotent_ideal
from stratakit.corpus import corpus_index, fixture_bytes
from stratakit.homological import ext
from stratakit.linalg import GF2, GF3, QQ, Field, InputError, Matrix, Subspace
from stratakit.modules import ModuleMap
from stratakit.modules import direct_sum as module_sum
from stratakit.mv import MVMorphism
from stratakit.specfile import AlgebraSpec, parse_spec
from stratakit.strat import Poset, Stratification


def load_fixture(name: str) -> AlgebraSpec:
    """The parsed spec of the bundled fixture called ``name`` (as in the
    corpus index, e.g. ``FIX-A3``)."""
    for entry in corpus_index():
        if entry.name == name:
            data = json.loads(fixture_bytes(entry.file))
            return parse_spec(data, name=entry.name)
    raise KeyError(f"no bundled fixture named {name}")


@functools.cache
def fixture_algebras() -> tuple[Algebra, ...]:
    """Every bundled fixture's bound quiver rebuilt over GF(2), GF(3) and Q,
    where it is admissible and finite-dimensional there."""
    out = []
    for entry in corpus_index():
        if entry.expect_error is not None:
            continue
        pres = load_fixture(entry.name).presentation
        for F in (GF2, GF3, QQ):
            try:
                out.append(build_bound_quiver_algebra(pres, F))
            except InputError:
                continue
    return tuple(out)


GENERATED_FIELDS = ({"kind": "GF", "p": 2}, {"kind": "GF", "p": 3}, {"kind": "Q"})


def generated_specs(seed: int, count: int) -> list[dict]:
    """``count`` stratified inputs in the JSON input format, drawn from
    ``random.Random(seed)`` alone, so the same seed gives the same list.

    Each has n = 1-4 vertices over GF(2), GF(3) or Q, up to n + 1 arrows
    and, with probability 0.7, the first one doubled back into a cycle
    through two vertices; loops are allowed, but at most two arrows leave
    a vertex, which keeps the dense reference builder
    (``oracles.bound_quiver_algebra_by_dense_span``) quick on every draw and
    keeps each seeded list as it was.  Each arrow is drawn "first" or not, and a composite ab
    survives (with probability 0.9) only when a is first and b is not: the
    relations are the other monomials of length two, so no nonzero path is
    longer than 2.  The poset has n - 1 or n elements (at least one), each
    pair related with probability 0.3 along a drawn order, so most posets
    are not total, and the labeling hits every element.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        vertices = [str(i) for i in range(1, n + 1)]
        ends = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, n + 1))]
        if ends and rng.random() < 0.7:
            ends.insert(1, ends[0][::-1])  # often a cycle through two vertices
        ends = [(u, v) for i, (u, v) in enumerate(ends) if [w for w, _ in ends[:i]].count(u) < 2]
        arrows = [{"name": f"a{i}", "from": u, "to": v} for i, (u, v) in enumerate(ends)]
        first = {a["name"]: rng.random() < 0.5 for a in arrows}
        relations = [{"terms": [{"coeff": 1, "path": [a["name"], b["name"]]}]}
                     for a in arrows for b in arrows if a["to"] == b["from"]
                     and not (first[a["name"]] and not first[b["name"]] and rng.random() < 0.9)]
        elements = [f"s{i}" for i in range(1, rng.randint(max(1, n - 1), n) + 1)]
        order = rng.sample(elements, len(elements))
        leq = [[lo, hi] for i, lo in enumerate(order) for hi in order[i + 1:] if rng.random() < 0.3]
        labels = elements + [rng.choice(elements) for _ in range(n - len(elements))]
        rng.shuffle(labels)
        out.append({"field": rng.choice(GENERATED_FIELDS),
                    "quiver": {"vertices": vertices, "arrows": arrows},
                    "relations": relations,
                    "stratification": {"poset": {"elements": elements, "leq": leq},
                                       "rho": dict(zip(vertices, labels))}})
    return out


def auslander_algebra(n: int) -> Presentation:
    """The Auslander algebra of k[x]/(x^n): quiver 1 <-> 2 <-> ... <-> n with
    a_i: i -> i+1 and b_i: i+1 -> i, relations a_1 b_1 = 0 and
    b_i a_i = a_{i+1} b_{i+1}."""
    vs = tuple(str(i) for i in range(1, n + 1))
    arrows = (tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
              + tuple((f"b{i}", str(i + 1), str(i)) for i in range(1, n)))
    rels = [[(1, ["a1", "b1"])]] + [[(1, [f"b{i}", f"a{i}"]), (-1, [f"a{i + 1}", f"b{i + 1}"])]
                                    for i in range(1, n - 1)]
    return Presentation.from_names(Quiver(vs, arrows), rels)


def path_spec(n: int) -> dict:
    """The linearly oriented path algebra A_n over GF(3), in the JSON input
    format: arrows a_i from i to i + 1 and no relations."""
    return {"field": {"kind": "GF", "p": 3},
            "quiver": {"vertices": [str(i) for i in range(1, n + 1)],
                       "arrows": [{"name": f"a{i}", "from": str(i), "to": str(i + 1)} for i in range(1, n)]},
            "relations": []}


def count_calls(monkeypatch, owner, name) -> list:
    """Count the calls of ``owner.name`` for the rest of the test (and unset
    ``STRATAKIT_SEED``, so a CLI run counts the same work everywhere)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    monkeypatch.delenv("STRATAKIT_SEED", raising=False)
    return calls


def stratification_of(spec: AlgebraSpec, check: bool = True) -> Stratification:
    """The stratification of a parsed stratified input, its structure
    checks run only if ``check``."""
    ss = spec.stratification
    return Stratification(build_bound_quiver_algebra(spec.presentation, spec.field),
                          Poset.from_pairs(ss.poset.elements, ss.poset.leq), ss.rho, ss.epsilon,
                          check=check)


def span(field: Field, vectors: Iterable[Sequence], ambient: int) -> Subspace:
    """The span of ``vectors`` in k^ambient; entries are coerced into the field."""
    rows = [tuple(v) for v in vectors]
    if not rows:
        return Subspace.zero(field, ambient)
    return Matrix.from_rows(field, rows, cols=ambient).row_space()


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """u + v, the span of both bases; both must share ambient and field."""
    if u.ambient != v.ambient:
        raise ValueError(f"ambient mismatch: {u.ambient} != {v.ambient}")
    if u.field != v.field:
        raise ValueError("field mismatch")
    return Subspace.from_matrix(u.basis.stack(v.basis))


def full(field: Field, ambient: int) -> Subspace:
    """The whole of k^ambient."""
    return Subspace(ambient, Matrix.identity(field, ambient), tuple(range(ambient)))


def is_injective(f) -> bool:
    """Mono read off the rank, as ``exact_at(..., mono=True)`` reads it."""
    return f.rank() == f.source.dim


def bs_vanishing_table(s, eps: dict[str, str], max_degree: int) -> dict[tuple[str, str, int], int]:
    """dim Ext^n(std_eps(b), costd_eps(b')) for all pairs and 0 <= n <= max_degree."""
    fams = s.standard_objects()
    table: dict[tuple[str, str, int], int] = {}
    for b in s.algebra.vertex_names:
        for c in s.algebra.vertex_names:
            delta = fams[b].eps_standard(eps[s.rho[b]])
            nabla = fams[c].eps_costandard(eps[s.rho[c]])
            for n in range(max_degree + 1):
                table[(b, c, n)] = ext(delta, nabla, n).dim
    return table


def mv_direct_sum(cat, xs):
    """(sum, injections, projections) of the nonempty list ``xs`` of glued
    objects of the MV category ``cat``: componentwise sum; the connecting
    maps are solved through the canonical additivity isomorphisms of the
    two functors."""
    if len(xs) == 1:
        x = xs[0]
        return x, [cat.identity(x)], [cat.identity(x)]
    F = cat.field
    big_u, inj_u, proj_u = module_sum([x.x_u for x in xs])
    big_z, inj_z, proj_z = module_sum([x.x_z for x in xs])
    f_big = cat.F.obj(big_u)
    g_big = cat.G.obj(big_u)
    # alpha: F(inj_i) ; alpha = alpha_i ; inj_z_i, stacked and solved
    lhs = rhs = None
    for x, iu, iz in zip(xs, inj_u, inj_z):
        f_iu = cat.F.mor(iu)
        lhs = f_iu.mat if lhs is None else lhs.stack(f_iu.mat)
        block = x.alpha.then(iz).mat
        rhs = block if rhs is None else rhs.stack(block)
    if f_big.dim == 0 or big_z.dim == 0:
        alpha_mat = Matrix.zero(F, f_big.dim, big_z.dim)
    else:
        alpha_mat = lhs.transpose().solve_left(rhs.transpose()).transpose()
    alpha = ModuleMap(f_big, big_z, alpha_mat)
    # beta: beta ; G(proj_i) = proj_z_i ; beta_i, hstacked and solved
    lhs = rhs = None
    for x, pu, pz in zip(xs, proj_u, proj_z):
        g_pu = cat.G.mor(pu)
        lhs = g_pu.mat if lhs is None else lhs.hstack(g_pu.mat)
        block = pz.then(x.beta).mat
        rhs = block if rhs is None else rhs.hstack(block)
    if big_z.dim == 0 or g_big.dim == 0:
        beta_mat = Matrix.zero(F, big_z.dim, g_big.dim)
    else:
        beta_mat = lhs.solve_left(rhs)
    beta = ModuleMap(big_z, g_big, beta_mat)
    total = cat.make_object(big_u, big_z, alpha, beta)
    injs = [MVMorphism(x, total, iu, iz) for x, iu, iz in zip(xs, inj_u, inj_z)]
    projs = [MVMorphism(total, x, pu, pz) for x, pu, pz in zip(xs, proj_u, proj_z)]
    return total, injs, projs


def quotient_of(a: Algebra, vertices: Sequence[str]):
    """``quotient_by_idempotent_ideal`` of ``a`` by the named vertices, with
    the bases of Ae and eA that the layer recollement eliminates."""
    e = a.idempotent_sum(vertices)
    return quotient_by_idempotent_ideal(a, vertices, a.right_mult_matrix(e).row_space().basis,
                                        a.left_mult_matrix(e).row_space().basis)
