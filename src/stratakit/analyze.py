"""Decision procedures on stratifications.

* exactness of the one-sided extension functors at a stratum, by the
  lost-exactness search alone: the functor is applied to the cover
  sequence of every stratum simple, and the Euler defects all vanish
  exactly when the corner bimodule is projective (argued at
  ``exactness_check``); a nonzero defect is the witness,
* the Ext-comparison map along the embedding i_* of a layer recollement,
  mod-A_{S - lam} into mod-A_S (explicit resolution lifting, not dimension
  counting),
* k-homological stratifications: every layer's i_* is an isomorphism on
  Ext^n for n <= k,
* the sign-stratified decision, by the homological criterion and by direct
  filtration search on both the projective and injective sides, the
  injective side being the projective side over A^op,
* highest-weight detection by structure and by the axioms, cross-checked.

Every negative verdict carries a finite witness.  Route disagreement is a
falsification event: it is reported, never auto-resolved.
"""

from __future__ import annotations

import itertools

from .algebra import opposite
from .category import solve_in_hom
from .homological import ext, projective_resolution, reduce_cocycle
from .linalg import InvariantError, Matrix, Value
from .modules import (
    RightModule,
    dual_module,
    hom_basis,
    injective_module,
    kernel,
    projective_cover,
    projective_module,
    simple_module,
)
from .recollement import Recollement
from .strat import Poset, Stratification


# -- exactness of the one-sided extension functors ---------------------------


class ExactnessVerdict(Value):
    stratum: str
    exact: bool
    witness: dict | None       # lost-exactness data when not exact


def exactness_check(s: Stratification, lam: str, side: str) -> ExactnessVerdict:
    """Is j_!^lam (side="j_!") or j_*^lam (side="j_*") exact?

    Decided by applying the functor to the cover sequence
    0 -> K -> P(u) -> L_u -> 0 of every stratum simple L_u and reading the
    Euler defect of the image; the first nonzero defect is the witness.

    With B = A_{<=lam}, f its stratum idempotent and Gamma = fBf,
    j_! = - (x)_Gamma fB is right exact, so its defect is
    dim Tor_1^Gamma(L_u, fB).  Take the minimal cover 0 -> W -> Q -> fB -> 0
    of fB as a left Gamma-module; W lies in rad Q, so L_u (x) W -> L_u (x) Q
    is zero and Tor_1(L_u, fB) maps onto L_u (x) W.  So every defect
    vanishes iff W has no top, iff W = 0, iff fB is projective, iff j_! is
    exact.

    j_* = Hom_Gamma(Bf, -) is left exact, so its defect is minus the
    dimension of the cokernel of Hom(Bf, P(u)) -> Hom(Bf, L_u).  When every
    one of these maps is onto, the projection of Bf onto each summand L_u of
    its top lifts to P(u); together the lifts map Bf onto the sum Q of the
    P(u) (Nakayama: they are onto the top of Q).  Q is projective, so the
    map splits, and its kernel has no top, since Bf and Q have the same
    top; so Bf = Q.  Every defect vanishes iff Bf is projective, iff j_* is
    exact.

    The fact does not depend on a sign pattern, so it is computed once per
    (lam, side) and kept on ``s``.
    """
    return s.memo(("exactness", lam, side), lambda: _exactness(s, lam, side))


def _exactness(s: Stratification, lam: str, side: str) -> ExactnessVerdict:
    r = s.principal_recollement(lam)
    functor = {"j_!": r.j_lower, "j_*": r.j_roof}[side]
    gamma = r.data.corner.algebra
    for u in gamma.vertex_names:
        l_u = simple_module(gamma, u)
        cov = projective_cover(l_u)
        k_mod, _ = kernel(cov.cover_map)
        dims = (functor(k_mod).dim, functor(cov.projective).dim, functor(l_u).dim)
        # j_! is right exact and j_* left exact: the defect sits at the
        # kernel end for j_! and at the cokernel end for j_*
        defect = dims[0] - dims[1] + dims[2] if side == "j_!" else dims[1] - dims[0] - dims[2]
        if defect != 0:
            return ExactnessVerdict(stratum=lam, exact=False, witness={
                "stratum_simple": u,
                "sequence_dims": {"kernel": k_mod.dim, "cover": cov.projective.dim, "simple": l_u.dim},
                "image_dims": {"kernel": dims[0], "cover": dims[1], "simple": dims[2]},
                "euler_defect": defect,
            })
    return ExactnessVerdict(stratum=lam, exact=True, witness=None)


# -- Ext comparison along a layer's i_* ---------------------------------------


class ExtComparison(Value):
    degree: int
    dim_source: int
    dim_target: int
    rank: int

    @property
    def is_isomorphism(self) -> bool:
        return self.dim_source == self.dim_target == self.rank


def ext_comparison(r: Recollement, x: RightModule, y: RightModule, degree: int) -> ExtComparison:
    """The map Ext^n_Z(X, Y) -> Ext^n_C(i_* X, i_* Y) induced by the
    embedding i_* = ``r.i_embed`` of the closed side Z of ``r`` into its
    center C.

    Realized by lifting a chain map from the minimal resolution of i_* X to
    i_* of the resolution of X, then pulling cocycles back; when either Ext
    space is zero the rank is 0 and nothing is lifted.  Degrees 0 and 1
    must be isomorphisms (Serre subcategory); that is asserted, not
    reported.
    """
    i = r.i_embed
    space_in = ext(x, y, degree)
    space_out = ext(i(x), i(y), degree)
    rank = 0
    if space_in.dim and space_out.dim:
        res_in = projective_resolution(x, degree + 1)
        res_out = projective_resolution(i(x), degree + 1)
        # chain map u_k: P_k of i_* X -> i_* P_k of X over the identity
        aug_in = i.map(res_in.augmentation)
        u = solve_in_hom(r.cat_c, res_out.augmentation.source, aug_in.source, lambda h: h.then(aug_in),
                         res_out.augmentation)
        for k in range(1, degree + 1):
            target_map = res_out.differential(k).then(u)
            dk_in = i.map(res_in.differential(k))
            u = solve_in_hom(r.cat_c, target_map.source, dk_in.source, lambda h: h.then(dk_in), target_map)
        rows = [reduce_cocycle(space_out, u.then(i.map(cls.cocycle))) for cls in space_in.classes]
        rank = Matrix(x.algebra.field, len(rows), space_out.dim, tuple(c for row in rows for c in row)).rank()
    cmp = ExtComparison(degree=degree, dim_source=space_in.dim, dim_target=space_out.dim, rank=rank)
    # i_* is fully faithful with an image closed under extensions (a Serre subcategory)
    if degree <= 1 and not cmp.is_isomorphism:
        raise InvariantError(
            f"Ext comparison in degree {degree} failed to be an isomorphism: "
            f"{cmp.dim_source} -> {cmp.dim_target} with rank {cmp.rank}"
        )
    return cmp


# -- k-homological stratifications --------------------------------------------


class HomologicalVerdict(Value):
    holds: bool
    witness: dict | None
    checked_pairs: int
    note: str
    # one row per comparison: (lower set, stratum, source dims, degree,
    # dim source, dim target, rank)
    table: tuple[tuple, ...] = ()


def is_k_homological(s: Stratification, k: int, deep: bool = False) -> HomologicalVerdict:
    """Every recollement in the stratification data is k-homological.

    Per (lower set, maximal element) pair, the comparison along that layer's
    i_* is tested on all pairs of simples of its closed side, the algebra of
    the lower set without the element, for degrees up to k;
    passage from simples to all finite-length objects is by long-exact-
    sequence induction (recorded, and re-run on the projectives and
    injectives when ``deep``).  The verdict does not depend on a sign
    pattern, so it is computed once per (k, deep) and kept on ``s``.
    """
    return s.memo(("homological", k, deep), lambda: _k_homological(s, k, deep))


def _k_homological(s: Stratification, k: int, deep: bool) -> HomologicalVerdict:
    checked = 0
    table: list[tuple] = []
    for outer in s.poset.lower_sets():
        for lam in s.poset.maximal_in(outer):
            r = s.layer_recollement(outer, lam)
            inner_alg = r.cat_z.algebra
            if inner_alg.dim == 0:
                continue
            sample_pairs = []
            simples = [simple_module(inner_alg, v) for v in inner_alg.vertex_names]
            sample_pairs.extend(itertools.product(simples, simples))
            if deep:
                projs = [projective_module(inner_alg, v)[0] for v in inner_alg.vertex_names]
                injs = [injective_module(inner_alg, v) for v in inner_alg.vertex_names]
                sample_pairs.extend(itertools.product(projs, injs))
            for x, y in sample_pairs:
                for n in range(k + 1):
                    cmp = ext_comparison(r, x, y, n)
                    checked += 1
                    table.append((tuple(sorted(outer)), lam, (x.dim, y.dim), n,
                                  cmp.dim_source, cmp.dim_target, cmp.rank))
                    if not cmp.is_isomorphism:
                        return HomologicalVerdict(
                            holds=False,
                            witness={
                                "lower_set": sorted(outer),
                                "stratum": lam,
                                "source_dims": (x.dim, y.dim),
                                "degree": n,
                                "dims": (cmp.dim_source, cmp.dim_target),
                                "rank": cmp.rank,
                            },
                            checked_pairs=checked,
                            note="comparison fails on a pair of inner simples",
                            table=tuple(table),
                        )
    note = (
        "comparison checked on inner simples; extension to all finite-length "
        "objects is by induction on composition series"
    )
    if deep:
        note += "; also re-checked on inner projectives against injectives"
    return HomologicalVerdict(holds=True, witness=None, checked_pairs=checked,
                              note=note, table=tuple(table))


# -- sign-stratified decision ---------------------------------------------------


def sign_patterns(poset: Poset) -> list[dict[str, str]]:
    return [dict(zip(poset.elements, bits)) for bits in itertools.product("+-", repeat=len(poset.elements))]


class RouteVerdict(Value):
    verdict: bool
    witness: dict | None


class Decision(Value):
    """One decision reached by independent routes, keyed by route name in
    report order.  The routes must agree; a disagreement is reported by the
    caller, never resolved here."""

    routes: dict[str, RouteVerdict]

    @property
    def agreement(self) -> bool:
        return len({r.verdict for r in self.routes.values()}) == 1

    @property
    def verdict(self) -> bool:
        return next(iter(self.routes.values())).verdict


def _theorem_route(s: Stratification, eps: dict[str, str]) -> RouteVerdict:
    for lam in s.poset.elements:
        side = "j_*" if eps[lam] == "+" else "j_!"
        ev = exactness_check(s, lam, side)
        if not ev.exact:
            return RouteVerdict(False, {"failure": "exactness", "stratum": lam,
                                        "side": side, "witness": ev.witness})
    hv = is_k_homological(s, 2)
    if not hv.holds:
        return RouteVerdict(False, {"failure": "2-homological", "witness": hv.witness})
    return RouteVerdict(True, None)


def _flag_family(s: Stratification, side: str) -> dict[tuple[str, str], RightModule]:
    """(vertex, sign) -> the flag section of that side: std_eps over A for
    "delta", D costd_eps over A^op for "nabla"."""
    fams = s.standard_objects()
    if side == "delta":
        return {(c, sign): fams[c].eps_standard(sign) for c in fams for sign in "+-"}
    return {(c, sign): dual_module(fams[c].eps_costandard(sign)) for c in fams for sign in "+-"}


_FLAG_SIDES = {  # side -> (section name, failure, witness key)
    "delta": ("std_eps", "no sign-standard filtration", "projective_at"),
    "nabla": ("D costd_eps", "no sign-costandard filtration", "injective_at"),
}


def _flag_route(s: Stratification, eps: dict[str, str], side: str) -> RouteVerdict:
    """Does every P(b) have a std_eps-flag ("delta"), or every I(b) a
    costd_eps-flag ("nabla")?

    The nabla side is the delta side over A^op under D = Hom_k(-, k): I(b)
    has a costd_eps-flag iff D I(b), which is P(b) over A^op, has a
    D costd_eps-flag.  Each side's sections are built once per
    stratification and kept on ``s``.
    """
    name, failure, at = _FLAG_SIDES[side]
    family = s.memo(("flag family", side), lambda: _flag_family(s, side))
    algebra = s.algebra if side == "delta" else opposite(s.algebra)
    for b in s.algebra.vertex_names:
        allowed = [
            (f"{name}({c})", family[c, eps[s.rho[c]]])
            for c in s.algebra.vertex_names
            if s.poset.leq(s.rho[b], s.rho[c])
        ]
        p_b, _ = projective_module(algebra, b)
        if s.filtration(p_b, allowed, mode="exact-layers") is None:
            return RouteVerdict(False, {"failure": failure, at: b})
    return RouteVerdict(True, None)


def is_epsilon_stratified(s: Stratification, eps: dict[str, str]) -> Decision:
    """The sign-stratified decision by the homological criterion and by
    direct filtration search on the projective and the injective side."""
    return Decision({
        "theorem": _theorem_route(s, eps),
        "direct-delta": _flag_route(s, eps, "delta"),
        "direct-nabla": _flag_route(s, eps, "nabla"),
    })


# -- highest weight detection -----------------------------------------------------


def is_highest_weight(s: Stratification) -> Decision:
    """Highest-weight detection by two routes that must agree.

    Structure route: every stratum algebra is one-dimensional (split form
    of semisimple strata) and the stratification is 2-homological.  Axiom
    route: build the per-stratum standard objects Delta_lam = j_! of the
    stratum simple and check the classical axioms HW1 and HW3, with the
    kernel filtrations searched exhaustively over finite fields.  HW2
    (Hom(Delta_lam, Delta_mu) = 0 for lam > mu) holds by construction:
    ``standard_objects`` checks it on the proper standards (sign -) and
    raises otherwise.  HW4 (every simple is the top of some P_lam) holds by
    construction too: the axiom route needs one vertex per stratum, and rho
    labels every vertex.
    """
    # route A: structure
    bad = None
    for lam in s.poset.elements:
        d = s.stratum(lam).algebra.dim
        if d != 1:
            bad = {"stratum": lam, "stratum_dim": d}
            break
    if bad is not None:
        structure = RouteVerdict(False, {"failure": "stratum not one-dimensional", **bad})
    else:
        hv = is_k_homological(s, 2)
        structure = (
            RouteVerdict(True, None)
            if hv.holds
            else RouteVerdict(False, {"failure": "2-homological", "witness": hv.witness})
        )

    return Decision({"structure": structure, "axioms": _axiom_route(s)})


def _axiom_route(s: Stratification) -> RouteVerdict:
    poset = s.poset
    per_stratum = {lam: s.vertices_of(lam) for lam in poset.elements}
    if any(len(vs) != 1 for vs in per_stratum.values()):
        lam = next(lam for lam, vs in per_stratum.items() if len(vs) != 1)
        return RouteVerdict(False, {
            "failure": "stratum has more than one simple; no Lambda-indexed standard family",
            "stratum": lam,
        })
    fams = s.standard_objects()
    delta = {lam: fams[per_stratum[lam][0]].proper_std for lam in poset.elements}

    # (HW1): dim End(Delta_lam) = 1
    for lam, d in delta.items():
        if len(hom_basis(d, d)) != 1:
            return RouteVerdict(False, {"failure": "HW1", "stratum": lam,
                                        "end_dim": len(hom_basis(d, d))})
    # (HW3): the kernel of P_lam ->> Delta_lam is filtered by higher standards
    for lam in poset.elements:
        b = per_stratum[lam][0]
        p_b, _ = projective_module(s.algebra, b)
        epi = next((h for h in hom_basis(p_b, delta[lam]) if h.is_surjective()), None)
        if epi is None:
            return RouteVerdict(False, {"failure": "HW3", "stratum": lam,
                                        "note": "no surjection onto the standard object"})
        u_mod, _ = kernel(epi)
        allowed = [
            (f"std({mu})", delta[mu]) for mu in poset.elements if poset.lt(lam, mu)
        ]
        cert = s.filtration(u_mod, allowed, mode="exact-layers")
        if cert is None:
            return RouteVerdict(False, {"failure": "HW3", "stratum": lam,
                                        "kernel_dim": u_mod.dim})
    return RouteVerdict(True, None)
