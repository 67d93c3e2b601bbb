"""Helpers shared by more than one test module."""

from __future__ import annotations

import functools
import json
from typing import Iterable, Sequence

from stratakit.algebra import Algebra, build_bound_quiver_algebra
from stratakit.corpus import corpus_index, fixture_bytes
from stratakit.homological import ext
from stratakit.linalg import GF2, GF3, QQ, Field, Matrix, Subspace
from stratakit.modules import ModuleMap
from stratakit.modules import direct_sum as module_sum
from stratakit.mv import MVMorphism
from stratakit.specfile import AlgebraSpec, parse_spec


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
            except ValueError:
                continue
    return tuple(out)


def span(field: Field, vectors: Iterable[Sequence], ambient: int) -> Subspace:
    """The span of ``vectors`` in k^ambient; entries are coerced into the field."""
    rows = [tuple(v) for v in vectors]
    if not rows:
        return Subspace.zero(field, ambient)
    return Matrix.from_rows(field, rows, cols=ambient).row_space()


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
        alpha_mat = lhs.solve_right(rhs)
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
