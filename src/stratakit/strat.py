"""Stratifications of module categories by finite posets.

A stratification here is input as (poset, vertex labeling) and is built
as its layer recollements, one per (lower set S, maximal element lam of S):
mod-A_S at the idempotent of lam.  A_S = A/AeA (e the idempotent off S) is
A itself for the full set and otherwise the closed side of the layer one
step above S; the stratum algebra at lam is the corner of the layer at the
down-set of lam, and (S3) counts its dimension against the corner at lam of
the widest lower set with lam maximal.  On top of these: the standard and
costandard object families, filtration search with certificates, and the
constructive synthesis of projective covers by iterated universal extensions.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .algebra import Algebra, CornerData
from .category import ModuleCategory, is_isomorphic
from .homological import universal_extension
from .linalg import Matrix, Subspace, Value
from .modules import (
    ModuleMap,
    RightModule,
    annihilator,
    cokernel,
    hom_basis,
    hom_combinations,
    injective_envelope,
    kernel,
    projective_cover,
    projective_module,
    quotient_module,
    restrict_scalars,
    simple_module,
    submodule,
    times,
    top,
)
from .recollement import Recollement, intermediate_extension, make_idempotent_recollement


class PosetError(ValueError):
    pass


class StratificationError(ValueError):
    pass


class Poset(Value):
    """Finite poset: elements plus the full (reflexive) order relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]  # (a, b) meaning a <= b

    @staticmethod
    def from_pairs(elements: Sequence[str], leq: Iterable[tuple[str, str]]) -> "Poset":
        elts = tuple(elements)
        if len(set(elts)) != len(elts) or not elts:
            raise PosetError("elements must be unique and non-empty")
        rel = {(a, a) for a in elts}
        rel.update((a, b) for a, b in leq)
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
        for a, b in rel:
            if a not in elts or b not in elts:
                raise PosetError(f"relation mentions unknown element in {(a, b)}")
            if a != b and (b, a) in rel:
                raise PosetError(f"antisymmetry fails on {a}, {b}")
        return Poset(elts, frozenset(rel))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def down(self, lam: str) -> frozenset[str]:
        return frozenset(mu for mu in self.elements if self.leq(mu, lam))

    def is_lower(self, subset: frozenset[str]) -> bool:
        return all(mu in subset for lam in subset for mu in self.elements if self.leq(mu, lam))

    def lower_sets(self) -> list[frozenset[str]]:
        out = []
        for r in range(len(self.elements) + 1):
            for combo in itertools.combinations(self.elements, r):
                s = frozenset(combo)
                if self.is_lower(s):
                    out.append(s)
        return out

    def maximal_in(self, subset: frozenset[str]) -> list[str]:
        return sorted(
            lam for lam in subset if not any(self.lt(lam, mu) for mu in subset)
        )

    def linear_extension(self) -> tuple[str, ...]:
        """Deterministic: repeatedly peel the lexicographically smallest
        maximal element off the top."""
        remaining = set(self.elements)
        order: list[str] = []
        while remaining:
            peak = self.maximal_in(frozenset(remaining))[0]
            order.insert(0, peak)
            remaining.discard(peak)
        return tuple(order)


class LayerWitness(Value):
    """One layer of a filtration certificate.

    ``below`` and ``above`` are nested subspaces of the filtered module with
    ``above/below`` the layer; ``allowed_name`` names the comparison object
    and ``witness`` maps onto the layer (an isomorphism in exact mode, a
    surjection from the allowed object in quotient mode).
    """

    allowed_name: str
    below: Subspace
    above: Subspace
    witness: ModuleMap


class FiltrationCertificate(Value):
    module: RightModule
    layers: tuple[LayerWitness, ...]
    mode: str
    search_mode: str  # "oracle" or "heuristic"

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "search": self.search_mode,
            "layers": [
                {
                    "allowed": l.allowed_name,
                    "dim_below": l.below.dim,
                    "dim_above": l.above.dim,
                    "basis_above": [list(map(str, l.above.basis.row(i))) for i in range(l.above.dim)],
                }
                for l in self.layers
            ],
        }


FILTRATION_NODE_CAP = 200_000


def filtration_search(
    m: RightModule,
    allowed: Sequence[tuple[str, RightModule]],
    mode: str = "exact-layers",
) -> FiltrationCertificate | None:
    """Search for a filtration of m with layers from ``allowed``.

    exact-layers: every layer is isomorphic to an allowed object; found by
    top-down peeling (a map onto a local module is surjective iff its
    composite with the top projection is nonzero), with backtracking over
    both the allowed object and the surjection.

    quotient-layers: every layer is a *quotient* of an allowed object;
    found bottom-up, each layer being the image of a map from an allowed
    object into the current quotient of m (this matches how such
    filtrations arise: images of maps from standard objects).

    The field decides the search: over a finite field every candidate map
    is enumerated up to scalar, so the search is complete and labelled
    "oracle"; over Q only basis maps and their pairwise sums are tried,
    and the certificate is labelled "heuristic".
    """
    allowed = [(name, obj, top(obj)[1]) for name, obj in allowed]
    for name, _, top_proj in allowed:
        if top_proj.target.dim != 1:
            raise ValueError(f"allowed object {name} lacks a simple top")
    budget = [FILTRATION_NODE_CAP]
    search_mode = "oracle" if m.algebra.field.is_finite else "heuristic"

    if mode == "exact-layers":
        layers = _search_exact(m, allowed, budget)
    elif mode == "quotient-layers":
        layers = _search_quotient(m, allowed, budget)
    else:
        raise ValueError(f"unknown filtration mode {mode!r}")
    if layers is None:
        return None
    return FiltrationCertificate(module=m, layers=tuple(layers), mode=mode, search_mode=search_mode)


def _spend(budget) -> None:
    budget[0] -= 1
    if budget[0] <= 0:
        raise RuntimeError("filtration search budget exhausted")


def _search_exact(m, allowed, budget, embed=None):
    """Top-down peel over the (name, object, top projection) triples of
    ``allowed``; returns layers listed bottom-up, with subspaces of the
    original module."""
    F = m.algebra.field
    if embed is None:
        embed = Matrix.identity(F, m.dim)
    if m.dim == 0:
        return []
    full = Subspace.from_matrix(embed)
    for name, obj, top_proj in allowed:
        if obj.dim > m.dim:
            continue
        for h in hom_combinations(hom_basis(m, obj), F, F.is_finite):
            _spend(budget)
            if h.then(top_proj).is_zero:
                continue  # cannot be onto a local module
            k_mod, k_incl = kernel(h)
            sub_embed = k_incl.mat @ embed
            rest = _search_exact(k_mod, allowed, budget, sub_embed)
            if rest is not None:
                below = Subspace.from_matrix(sub_embed)
                return rest + [LayerWitness(name, below, full, h)]
    return None


def _search_quotient(m, allowed, budget, proj=None):
    """Bottom-up image peel; layers listed bottom-up with original subspaces."""
    F = m.algebra.field
    if proj is None:
        proj = Matrix.identity(F, m.dim)
    if m.dim == 0:
        return []
    below = proj.left_kernel()
    for name, obj, _ in allowed:
        for phi in hom_combinations(hom_basis(obj, m), F, F.is_finite):
            _spend(budget)
            if phi.is_zero:
                continue
            quo, q_proj = cokernel(phi)
            onto = proj @ q_proj.mat
            rest = _search_quotient(quo, allowed, budget, onto)
            if rest is None:
                continue
            # preimage in the original module of the freshly filtered part
            above = onto.left_kernel()
            return [LayerWitness(name, below, above, phi)] + rest
    return None


class LowerAlgebra(Value):
    """A_S for a lower set S, with the algebra surjection A ->> A_S."""

    algebra: Algebra
    projection: Matrix  # dim A x dim A_S


class StandardObjects(Value):
    """The four object families of one vertex: standard, costandard, proper
    standard, proper costandard."""

    vertex: str
    stratum: str
    std: RightModule           # j_! of the stratum projective cover
    costd: RightModule         # j_* of the stratum injective envelope
    proper_std: RightModule    # j_! of the stratum simple
    proper_costd: RightModule  # j_* of the stratum simple

    def eps_standard(self, sign: str) -> RightModule:
        return self.std if sign == "+" else self.proper_std

    def eps_costandard(self, sign: str) -> RightModule:
        return self.proper_costd if sign == "+" else self.costd


class Stratification:
    """Stratification data for a split basic algebra.

    Derived algebras are built on demand and cached; all constructions are
    deterministic, so repeated calls return structurally equal values.
    Every question that the check batteries ask of it more than once, under
    any sign pattern, is answered once and kept here (``memo``).
    """

    def __init__(
        self,
        algebra: Algebra,
        poset: Poset,
        rho: dict[str, str],
        epsilon: dict[str, str] | None = None,
        check: bool = True,
    ):
        if set(rho) != set(algebra.vertex_names):
            raise StratificationError("labeling must cover every vertex exactly once")
        if set(rho.values()) != set(poset.elements):
            raise StratificationError("every poset element must label some vertex")
        if epsilon is not None and set(epsilon) != set(poset.elements):
            raise StratificationError("sign function must assign every poset element")
        self.algebra = algebra
        self.poset = poset
        self.rho = dict(rho)
        self.epsilon = dict(epsilon) if epsilon is not None else None
        self._memo: dict = {}
        if check:
            self.run_structure_checks()

    # -- derived data -----------------------------------------------------

    def memo(self, key, compute):
        """``compute()``, once per key for this stratification; a call that
        raises is not kept.  The key names the question: the standard
        objects, the lower-set algebras and layer recollements (each algebra
        with the layers above it that build it), the k-homological verdicts,
        the exactness facts, each flag side's sections and the filtration
        searches."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def filtration(self, m: RightModule, allowed: Sequence[tuple[str, RightModule]],
                   mode: str) -> FiltrationCertificate | None:
        """``filtration_search(m, allowed, mode)``, searched once per module,
        allowed (name, object) pairs and mode.  The names are part of the
        question, so routes that name their families apart never share one."""
        return self.memo(("filtration", m, tuple(allowed), mode),
                         lambda: filtration_search(m, allowed, mode))

    def vertices_of(self, lam: str) -> list[str]:
        return [v for v in self.algebra.vertex_names if self.rho[v] == lam]

    def lower_algebra(self, lower: frozenset[str]) -> LowerAlgebra:
        """A_lower with the projection A ->> A_lower."""
        lower = frozenset(lower)
        if not self.poset.is_lower(lower):
            raise StratificationError(f"{sorted(lower)} is not a lower set")
        return self.memo(("lower", lower), lambda: self._lower_algebra(lower))

    def _lower_algebra(self, lower: frozenset[str]) -> LowerAlgebra:
        """A itself for the full set; below it, the closed side of the layer
        at mu over lower + {mu}, mu the first stratum minimal among those
        missing from lower, its projection composed with that set's."""
        missing = [lam for lam in self.poset.elements if lam not in lower]
        if not missing:
            return LowerAlgebra(self.algebra, Matrix.identity(self.algebra.field, self.algebra.dim))
        mu = next(lam for lam in missing if not any(self.poset.lt(nu, lam) for nu in missing))
        above = self.lower_algebra(lower | {mu})
        closed = self.layer_recollement(lower | {mu}, mu).data.quotient
        return LowerAlgebra(closed.algebra, above.projection @ closed.projection)

    def stratum(self, lam: str) -> CornerData:
        """The stratum algebra at lam: the corner of A_{<=lam} at its vertices."""
        return self.principal_recollement(lam).data.corner

    def principal_recollement(self, lam: str) -> Recollement:
        """The recollement of mod-A_{<=lam} at the stratum idempotent."""
        return self.layer_recollement(self.poset.down(lam), lam)

    def layer_recollement(self, lower: frozenset[str], lam: str) -> Recollement:
        """Recollement of mod-A_{lower} at a maximal element lam of lower."""
        if lam not in self.poset.maximal_in(frozenset(lower)):
            raise StratificationError(f"{lam} is not maximal in {sorted(lower)}")
        return self.memo(("layer", frozenset(lower), lam), lambda: self._layer_recollement(lower, lam))

    def _layer_recollement(self, lower: frozenset[str], lam: str) -> Recollement:
        return make_idempotent_recollement(self.lower_algebra(lower).algebra, self.vertices_of(lam))

    # -- the global intermediate extension (through the principal lower set) --

    def j_intermediate(self, lam: str, x: RightModule) -> RightModule:
        r = self.principal_recollement(lam)
        below = self.lower_algebra(self.poset.down(lam))
        return restrict_scalars(intermediate_extension(r, x).obj, self.algebra, below.projection)

    # -- structure checks ----------------------------------------------------

    def run_structure_checks(self) -> list[tuple[str, str]]:
        """(S1)-(S3) instance checks; raises on violation, returns notes."""
        notes: list[tuple[str, str]] = []
        # the full lower set is A by construction; the empty one peels every layer
        if self.lower_algebra(frozenset()).algebra.dim != 0:
            raise StratificationError("(S1): the empty lower set does not give the zero algebra")
        notes.append(("S1", "empty lower set gives the zero algebra"))

        for lam in self.poset.elements:
            r = self.principal_recollement(lam)
            samples = ModuleCategory(r.cat_c.algebra).standard_samples()
            rep = r.verify(samples)
            if not rep.ok:
                raise StratificationError(
                    f"(S2): recollement at {lam} fails axioms: {rep.failures()[:3]}"
                )
            notes.append(("S2", f"recollement at {lam} verified on {len(samples)} samples"))

        # (S3): the stratum is independent of the ambient lower set
        for lam in self.poset.elements:
            if not self._stratum_independent(lam):
                widest = sorted(self._widest_lower(lam))
                raise StratificationError(f"(S3): stratum at {lam} differs when computed inside {widest}")
        notes.append(("S3", f"stratum independence checked at {len(self.poset.elements)} strata"))
        return notes

    def _widest_lower(self, lam: str) -> frozenset[str]:
        """W_lam = {mu : not lam < mu}, the widest lower set with lam maximal."""
        return frozenset(mu for mu in self.poset.elements if not self.poset.lt(lam, mu))

    def _stratum_independent(self, lam: str) -> bool:
        """Whether every lower set L with lam maximal has the stratum as its
        corner at lam: iff the widest, W_lam, has the stratum's dimension.
        Each such L lies between the down-set of lam and W_lam.  For lower
        sets L' <= L, A_{L'} is A_L modulo an idempotent ideal off e_lam, so
        the quotient maps e_lam A_L e_lam onto e_lam A_{L'} e_lam, a unital
        algebra surjection: all are bijective iff the two ends' dims agree."""
        here = self.layer_recollement(self._widest_lower(lam), lam).data.corner.algebra
        return here.dim == self.stratum(lam).algebra.dim

    # -- simples ---------------------------------------------------------------

    def classify_simples(self) -> dict[str, tuple[str, RightModule]]:
        """vertex -> (stratum label, stratum simple), each algebra simple verified
        as the intermediate extension; simples at distinct vertices differ in
        dimension vector, so the classification is irredundant."""
        out: dict[str, tuple[str, RightModule]] = {}
        cat = ModuleCategory(self.algebra)
        for b in self.algebra.vertex_names:
            lam = self.rho[b]
            stratum_simple = simple_module(self.stratum(lam).algebra, b)
            glued = self.j_intermediate(lam, stratum_simple)
            target = simple_module(self.algebra, b)
            res = is_isomorphic(cat, glued, target)
            if not res.isomorphic:
                raise StratificationError(
                    f"classification mismatch at vertex {b}: {res.reason}"
                )
            out[b] = (lam, stratum_simple)
        return out

    # -- standard object families ------------------------------------------------

    def standard_objects(self) -> dict[str, StandardObjects]:
        return self.memo("standard objects", self._standard_objects)

    def _standard_objects(self) -> dict[str, StandardObjects]:
        out = {}
        for b in self.algebra.vertex_names:
            lam = self.rho[b]
            gamma = self.stratum(lam).algebra
            r = self.principal_recollement(lam)
            lift = self.lower_algebra(self.poset.down(lam)).projection

            l_gamma = simple_module(gamma, b)
            p_cover = projective_cover(l_gamma)
            i_env = injective_envelope(l_gamma)

            std = restrict_scalars(r.j_lower(p_cover.projective), self.algebra, lift)
            proper_std = restrict_scalars(r.j_lower(l_gamma), self.algebra, lift)
            costd = restrict_scalars(r.j_roof(i_env.injective), self.algebra, lift)
            proper_costd = restrict_scalars(r.j_roof(l_gamma), self.algebra, lift)

            fam = StandardObjects(
                vertex=b,
                stratum=lam,
                std=std,
                costd=costd,
                proper_std=proper_std,
                proper_costd=proper_costd,
            )
            self._check_family(fam)
            out[b] = fam
        self._check_exceptional_vanishing(out)
        return out

    def _check_family(self, fam: StandardObjects) -> None:
        """Tops and socles are semisimple: the dimension vector of L(b) decides."""
        lb = simple_module(self.algebra, fam.vertex).vertex_dims()
        for name, mod in (("std", fam.std), ("proper_std", fam.proper_std)):
            if top(mod)[0].vertex_dims() != lb:
                raise StratificationError(f"{name}({fam.vertex}) does not have simple top L({fam.vertex})")
        for name, mod in (("costd", fam.costd), ("proper_costd", fam.proper_costd)):
            if submodule(mod, annihilator(mod, self.algebra.radical.basis))[0].vertex_dims() != lb:
                raise StratificationError(f"{name}({fam.vertex}) does not have simple socle L({fam.vertex})")

    def _check_exceptional_vanishing(self, fams: dict[str, StandardObjects]) -> None:
        for b, fb in fams.items():
            for c, fc in fams.items():
                if self.poset.lt(self.rho[c], self.rho[b]):
                    for sign in ("+", "-"):
                        if hom_basis(fb.eps_standard(sign), fc.eps_standard(sign)):
                            raise StratificationError(
                                f"Hom(std_eps({b}), std_eps({c})) != 0 with rho({b}) > rho({c})"
                            )
                        if hom_basis(fc.eps_costandard(sign), fb.eps_costandard(sign)):
                            raise StratificationError(
                                f"Hom(costd_eps({c}), costd_eps({b})) != 0 with rho({b}) > rho({c})"
                            )


class SynthesisAudit(Value):
    layer: str
    iterations: int
    multiplicities: tuple[tuple[str, int], ...]
    dim_after: int


class SynthesisResult(Value):
    vertex: str
    module: RightModule
    audit: tuple[SynthesisAudit, ...]


class SynthesisNonTermination(RuntimeError):
    pass


SYNTHESIS_ITERATION_CAP = 16


def synthesize_projective_cover(s: Stratification, t: str) -> SynthesisResult:
    """Build P(t) bottom-up through the lower-set chain of a linear extension.

    At the base layer the cover is transported from the stratum by the left
    adjoint.  At each later layer the previous cover is inflated by the
    layer's i_* and repeatedly extended by the universal extension against
    the new layer's simples until Ext^1 against them vanishes.  Each
    layer's result is certified by a count against P(t) of the layer's
    algebra; the last layer's algebra is A, so the last count proves the
    result is P(t).
    """
    lam_t = s.rho[t]
    order = s.poset.linear_extension()
    i0 = order.index(lam_t)
    audits: list[SynthesisAudit] = []

    # base layer: transported stratum cover inside A_{first i0+1 elements}
    r0 = s.layer_recollement(frozenset(order[: i0 + 1]), lam_t)
    gamma = r0.data.corner.algebra
    stratum_cover = projective_cover(simple_module(gamma, t))
    current = r0.j_lower(stratum_cover.projective)
    audits.append(
        SynthesisAudit(
            layer=lam_t,
            iterations=0,
            multiplicities=(),
            dim_after=current.dim,
        )
    )
    _assert_layer_cover(r0.cat_c.algebra, current, t)

    for i in range(i0 + 1, len(order)):
        lam = order[i]
        r = s.layer_recollement(frozenset(order[: i + 1]), lam)
        # A_{order[:i]} equals this closed side whichever layer built it
        current = r.i_embed(current)

        layer_vertices = s.vertices_of(lam)
        layer_simples = [simple_module(r.cat_c.algebra, u) for u in layer_vertices]
        iterations = 0
        mults: dict[str, int] = {u: 0 for u in layer_vertices}
        while True:
            # the multiplicities are dim Ext^1(current, L_u): all zero ends the layer
            ue = universal_extension(current, layer_simples)
            if not any(ue.multiplicities):
                break
            if iterations >= SYNTHESIS_ITERATION_CAP:
                raise SynthesisNonTermination(
                    f"extension iteration bound {SYNTHESIS_ITERATION_CAP} exceeded at layer {lam}"
                )
            for u, d in zip(layer_vertices, ue.multiplicities):
                mults[u] += d
            current = ue.middle
            iterations += 1
        audits.append(
            SynthesisAudit(
                layer=lam,
                iterations=iterations,
                multiplicities=tuple((u, mults[u]) for u in layer_vertices),
                dim_after=current.dim,
            )
        )
        _assert_layer_cover(r.cat_c.algebra, current, t)
    return SynthesisResult(vertex=t, module=current, audit=tuple(audits))


def _assert_layer_cover(algebra: Algebra, current: RightModule, t: str) -> None:
    """current is P(t) over ``algebra``, certified by a count.  Tops are
    semisimple, so a top with the dimension vector of L(t) is L(t); P(t)
    maps onto every module with top L(t), so equal dimensions make that map
    an isomorphism."""
    if top(current)[0].vertex_dims() != simple_module(algebra, t).vertex_dims():
        raise StratificationError(f"synthesis lost the unique simple quotient at {t}")
    want = projective_module(algebra, t)[0].dim
    if current.dim != want:
        raise StratificationError(f"synthesized P({t}) has dimension {current.dim}, not {want}")


class PorismResult(Value):
    vertex: str
    kernel_module: RightModule
    certificate: FiltrationCertificate


def porism_check(s: Stratification, b: str) -> PorismResult:
    """The short exact sequence 0 -> Q(b) -> P(b) -> std(b) -> 0 plus a
    quotient-layers certificate for Q(b) against the higher standards."""
    lam = s.rho[b]
    p_b, _ = projective_module(s.algebra, b)
    outside = [v for v in s.algebra.vertex_names if not s.poset.leq(s.rho[v], lam)]
    e = s.algebra.idempotent_sum(outside)
    w = times(p_b, s.algebra.left_mult_matrix(e))  # P(b) e A
    q_mod, _ = submodule(p_b, w)
    quo, _ = quotient_module(p_b, w)
    fams = s.standard_objects()
    res = is_isomorphic(ModuleCategory(s.algebra), quo, fams[b].std)
    if not res.isomorphic:
        raise StratificationError(
            f"largest lower-set quotient of P({b}) is not the standard object: {res.reason}"
        )
    allowed = [
        (f"std({c})", fams[c].std)
        for c in s.algebra.vertex_names
        if s.poset.lt(lam, s.rho[c])
    ]
    cert = s.filtration(q_mod, allowed, mode="quotient-layers")
    if cert is None:
        raise StratificationError(
            f"no quotient-layers filtration of the porism kernel at {b}; "
            "this contradicts the porism and signals a bug"
        )
    return PorismResult(
        vertex=b,
        kernel_module=q_mod,
        certificate=cert,
    )
