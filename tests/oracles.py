"""Independent oracles: brute-force answers to questions the package
answers by construction.

They live with the tests, apart from the code they check, and the package
does not ship them.  Each rests on the exact linear algebra and the module
primitives only, never on the routine whose answer it checks (resolutions,
the glued category's kernels, the filtration search), so the two cannot
share a defect there.  The enumerations are exhaustive over a finite
field and meant for tiny inputs only.

* ``ext1_dimension_by_enumeration``: extensions 0 -> N -> E -> M -> 0 with
  fixed identifications are exactly the block lower-triangular action
  tables

      act_E(b) = [[act_N(b), 0], [C(b), act_M(b)]]

  whose off-diagonal blocks satisfy C(ab) = C(a) act_N(b) + act_M(a) C(b),
  counted modulo the blocks of the form h act_N(a) - act_M(a) h.  It never
  touches the resolution machinery.
* ``pushout_extension_along_kernel``: the extension of a degree-1 cocycle
  f: P_1 -> T as the pushout of K = ker(P_0 -> M) -> P_0 along the map
  K -> T that f factors through, P_1 ->> K being solved from d_1.
* ``mv_cokernel_by_solve`` and ``mv_i_left_mor_by_solve``: a glued
  cokernel and the map i^* makes of a glued morphism, with every
  connecting map solved through a cokernel projection (``solve_right``, a
  solve on the transposes) instead of read through its section.
* ``stratum_independent_by_algebra_map``: (S3) over every lower set L and
  every lam maximal in L, each corner of A_L compared with the stratum by
  the algebra map A_L -> A ->> A_{<=lam} instead of by one dimension.
* ``mv_subobject_pairs``: every subobject of a glued object, by
  enumerating pairs of action-closed subspaces.
* ``verify_filtration_certificate``: re-checks a filtration certificate
  without trusting the search that built it.
* ``algebra_issues_by_mul_vec``: the structural checks of
  ``validate_algebra``, each product of basis elements taken as a dense
  ``mul_vec`` of two basis vectors instead of a read of the structure table.
* ``corner_bimodule_is_projective``: exactness of j_! or j_* at a stratum
  read off the corner bimodule itself (projective iff it is as big as its
  projective cover), never applying the functor to a stratum module.
* ``bound_quiver_algebra_by_dense_span``: the bound quiver builder as it
  was before Gröbner bases, kept unchanged with its own caps: it
  enumerates every path up to length 2s + r (s the longest surviving path,
  r the longest relation), row-reduces the span of every x*r*y and grows
  the level until the surviving path classes are stable.
* ``graded_dimension_by_degree``: dim kQ/I for relations whose terms all
  have one length, as the sum over degrees d of (#paths of length d - rank
  I_d); it shares no code with either builder.
* ``independent_rows_by_growing_span``: the basis chosen from candidates
  as it was before one elimination picked it, keeping a candidate outside
  the span grown from those kept before it.
* ``reference_corner_algebra`` and ``reference_quotient_by_idempotent_ideal``:
  eAe and A/AeA as they were before one writer wrote both tables, each
  with its own coordinate solve and assembly, the corner's basis grown
  one vector at a time.
* ``reference_submodule``, ``reference_quotient_module``,
  ``reference_restrict_scalars``, ``reference_times``,
  ``reference_annihilator``, ``reference_direct_sum``,
  ``reference_dual_module`` and ``reference_element_map_from_projective``:
  the module constructors as they were while a module kept one action
  matrix per algebra basis element, each block computed on its own (a
  product or a combination per element), then stacked
  (``module_from_blocks``).
* ``two_path_matmul``, ``reference_apply_row``, ``two_path_rref``,
  ``reference_solve_left``, ``reference_left_kernel`` and
  ``reference_kron``: the linear-algebra kernel as it was with two
  arithmetic paths, every entry computed by a ``ReferenceField`` operation
  that branches on the field, and a dense, zero-keeping product over GF(p).
* ``reference_matmul`` and ``reference_rref``: the kernel's product loop
  and full elimination as they were before it recognised finished work
  (an identity factor, a row copied unscaled, a matrix already in RREF),
  every product summed and normalized and every matrix eliminated.
* ``reference_projective_resolution``: a minimal projective resolution
  built from P_0 up for one length, as it was before one resolution per
  module was kept and grown.
* ``reference_is_isomorphic``: the isomorphism search as it was before one
  pass over a hom basis decided it: basis elements and pairwise sums, then
  every combination up to scalar when p^dim <= ``ISO_EXHAUSTION_CAP``, else
  ``ISO_RANDOM_TRIES`` pseudorandom combinations, then UNDECIDED.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import add
from typing import Sequence

from stratakit.algebra import (
    Algebra,
    AlgebraError,
    CornerData,
    NonAdmissibleError,
    Path,
    PossiblyInfiniteError,
    Presentation,
    QuotientData,
    Quiver,
    _path_label,
    opposite,
    validate_algebra,
)
from stratakit.category import IsoResult, ModuleCategory, ShortExactSequence, is_isomorphic
from stratakit.homological import Resolution
from stratakit.linalg import Field, InconsistentSystem, Matrix, Subspace, UndecidedIsomorphism
from stratakit.modules import (
    ModuleMap,
    RightModule,
    cokernel,
    combine,
    direct_sum,
    hom_basis,
    hom_combinations,
    kernel,
    projective_cover,
    quotient_module,
    submodule,
)
from stratakit.mv import MVMorphism

from support import full, span, subspace_sum

ORACLE_BIT_CAP = 22


def ext1_dimension_by_enumeration(m, n) -> int:
    """Count extension classes 0 -> n -> E -> m -> 0 by exhaustive enumeration.

    Finite fields only; the search space is p^(dim m * dim n * dim A), so this
    is strictly a small-instance oracle.
    """
    A = m.algebra
    F = A.field
    if not F.is_finite:
        raise ValueError("enumeration oracle needs a finite field")
    dm, dn, da = m.dim, n.dim, A.dim
    if dm == 0 or dn == 0:
        return 0
    nbits = dm * dn * da
    if nbits > ORACLE_BIT_CAP:
        raise ValueError(f"oracle search space too large ({nbits} coordinates)")

    def blocks_from(flat) -> list[Matrix]:
        out = []
        for k in range(da):
            chunk = flat[k * dm * dn : (k + 1) * dm * dn]
            out.append(Matrix(F, dm, dn, tuple(F.of(x) for x in chunk)))
        return out

    def is_cocycle(C: list[Matrix]) -> bool:
        # unit must act as the identity on E
        unit_block = Matrix.zero(F, dm, dn)
        for k, c in enumerate(A.unit):
            if c != F.zero:
                unit_block = unit_block + C[k].scale(c)
        if not unit_block.is_zero:
            return False
        for i in range(da):
            for j in range(da):
                lhs = C[i] @ n.block(j) + m.block(i) @ C[j]
                rhs = Matrix.zero(F, dm, dn)
                for k, c in enumerate(A.mult[i][j]):
                    if c != F.zero:
                        rhs = rhs + C[k].scale(c)
                if lhs != rhs:
                    return False
        return True

    ncocycles = 0
    for flat in itertools.product(range(F.p), repeat=nbits):
        if is_cocycle(blocks_from(flat)):
            ncocycles += 1

    # coboundaries: C_h(a) = h @ act_n(a) - act_m(a) @ h
    cob = set()
    for hflat in itertools.product(range(F.p), repeat=dm * dn):
        h = Matrix(F, dm, dn, tuple(F.of(x) for x in hflat))
        key = tuple(
            (h @ n.block(k) - m.block(k) @ h).entries for k in range(da)
        )
        cob.add(key)
    ncob = len(cob)

    classes = ncocycles // ncob
    # classes = p^dim Ext^1
    d = 0
    while F.p ** d < classes:
        d += 1
    assert F.p ** d == classes, "cocycle count is not a power of the field size"
    return d


def pushout_extension_along_kernel(res, f) -> ShortExactSequence:
    """0 -> T -> E -> M -> 0 for a cocycle f: P_1 -> T of the resolution
    ``res`` of M: E is the pushout of the inclusion K -> P_0 of K = ker(aug)
    along fbar: K -> T with f = (P_1 ->> K) ; fbar, and E -> M descends
    (t, p) |-> aug(p) by a solve through the cokernel projection."""
    m, T, p0 = res.module, f.target, res.term(0)
    ker_mod, ker_incl = kernel(res.augmentation)
    epi = ker_incl.mat.solve_left(res.differential(1).mat)  # P_1 ->> K, composing to d_1
    fbar = solve_right(epi, f.mat)
    big, injs, _ = direct_sum([T, p0])
    e_mod, coker_proj = cokernel(ModuleMap(ker_mod, big, fbar.hstack(-ker_incl.mat)))
    descend = Matrix.zero(m.algebra.field, T.dim, m.dim).stack(res.augmentation.mat)
    return ShortExactSequence(injs[0].then(coker_proj),
                              ModuleMap(e_mod, m, solve_right(coker_proj.mat, descend)))


def solve_right(a, target):
    """X with a @ X = target, by a solve on the transposes;
    ``InconsistentSystem`` if there is none."""
    return a.transpose().solve_left(target.transpose()).transpose()


def mv_cokernel_by_solve(cat, f):
    """The cokernel of the glued morphism ``f`` in the MV category ``cat``:
    componentwise, with alpha_c solved from F(p_u) ; alpha_c = alpha ; p_z
    and beta_c from p_z ; beta_c = beta ; G(p_u), never through a section."""
    cu, pu = cokernel(f.f_u)
    cz, pz = cokernel(f.f_z)
    x = f.target
    a_mat = solve_right(cat.F.mor(pu).mat, x.alpha.then(pz).mat)
    b_mat = solve_right(pz.mat, x.beta.then(cat.G.mor(pu)).mat)
    c_obj = cat.make_object(cu, cz, ModuleMap(cat.F.obj(cu), cz, a_mat),
                            ModuleMap(cz, cat.G.obj(cu), b_mat))
    return c_obj, MVMorphism(x, c_obj, pu, pz)


def mv_i_left_mor_by_solve(f):
    """i^*(f) of a glued morphism, the map of cokernels of the alphas that
    f_z induces, solved through the source's cokernel projection."""
    _, p_src = cokernel(f.source.alpha)
    c_tgt, p_tgt = cokernel(f.target.alpha)
    return ModuleMap(p_src.target, c_tgt, solve_right(p_src.mat, f.f_z.then(p_tgt).mat))


def stratum_independent_by_algebra_map(s) -> list[tuple[frozenset, str]]:
    """The (lower set L, lam maximal in L) of every poset lower set at which
    the corner of A_L at lam is not the stratum at lam by the map
    A_L -> A ->> A_{<=lam} (section, then projection): it must be a linear
    bijection of the corners that keeps the unit and every product of two
    basis elements."""
    return [(lower, lam) for lower in s.poset.lower_sets() for lam in s.poset.maximal_in(lower)
            if not _corner_map_is_isomorphism(s, lower, lam)]


def _corner_map_is_isomorphism(s, lower, lam) -> bool:
    ref, here = s.stratum(lam), s.layer_recollement(lower, lam).data.corner
    ref_alg, here_alg = ref.algebra, here.algebra
    if ref_alg.dim != here_alg.dim:
        return False
    images = here.embed @ _lower_section(s, lower) @ s.lower_algebra(s.poset.down(lam)).projection
    try:
        phi = ref.embed.solve_left(images)
    except InconsistentSystem:
        return False
    if phi.rank() != ref_alg.dim or phi.apply_row(here_alg.unit) != ref_alg.unit:
        return False
    return all(phi.apply_row(here_alg.mult[i][j]) == ref_alg.mul_vec(phi.row(i), phi.row(j))
               for i in range(here_alg.dim) for j in range(here_alg.dim))


def _lower_section(s, lower):
    """A linear section of A ->> A_lower: the sections of the closed sides
    of the layers from A down to lower, composed, along the same chain of
    strata as ``Stratification.lower_algebra`` takes."""
    missing = [lam for lam in s.poset.elements if lam not in lower]
    if not missing:
        return Matrix.identity(s.algebra.field, s.algebra.dim)
    mu = next(lam for lam in missing if not any(s.poset.lt(nu, lam) for nu in missing))
    closed = s.layer_recollement(lower | {mu}, mu).data.quotient
    return closed.section @ _lower_section(s, lower | {mu})


def mv_subobject_pairs(cat, t):
    """Exhaustive subobject enumeration over small finite fields.

    A subobject is a pair of action-closed subspaces (W_u, W_z) such that
    alpha carries the tensor image of W_u into W_z and beta carries W_z
    into the hom image of W_u.  Strictly an oracle for tiny objects.
    """
    F = cat.field
    if not F.is_finite:
        raise ValueError("subobject enumeration needs a finite field")

    def all_submodule_spaces(mod):
        dims = mod.dim
        if F.p ** (dims * dims) > 2 ** 16:
            raise ValueError("object too large for subobject enumeration")
        seen = set()
        out = []
        for rows in itertools.product(itertools.product(range(F.p), repeat=dims), repeat=dims):
            space = span(F, [tuple(F.of(x) for x in r) for r in rows], dims)
            if space in seen:
                continue
            seen.add(space)
            closed = True
            for k in range(mod.algebra.dim):
                img = space.basis @ mod.block(k)
                if not all(space.contains(img.row(i)) for i in range(img.rows)):
                    closed = False
                    break
            if closed:
                out.append(space)
        return out

    pairs = []
    for wu in all_submodule_spaces(t.x_u):
        for wz in all_submodule_spaces(t.x_z):
            sub_u, iu = submodule(t.x_u, wu)
            f_iu = cat.F.mor(iu)
            # alpha(F(W_u)) inside W_z
            carried = f_iu.then(t.alpha)
            if not all(wz.contains(carried.mat.row(i)) for i in range(carried.mat.rows)):
                continue
            # beta(W_z) inside the image of G(W_u)
            g_iu = cat.G.mor(iu)
            img_rows = g_iu.mat.row_space()
            ok = True
            for i in range(wz.dim):
                v = Matrix.from_rows(F, [wz.basis.row(i)], cols=t.x_z.dim) @ t.beta.mat
                if not img_rows.contains(v.row(0)):
                    ok = False
                    break
            if ok:
                pairs.append((wu, wz))
    return pairs


def verify_filtration_certificate(cert) -> bool:
    """Re-check a certificate without trusting the search that built it.

    The chain must be strictly increasing, nested, and action-closed; each
    layer (above/below as a subquotient of the certified module) must be
    isomorphic to its allowed object in exact mode, or a quotient of it
    (an epi exists) in quotient mode.
    """
    m = cert.module
    F = m.algebra.field
    prev = Subspace.zero(F, m.dim)
    for layer in cert.layers:
        if layer.below != prev:
            return False
        if not layer.above.contains_space(layer.below) or layer.above.dim <= layer.below.dim:
            return False
        sub_above, _ = submodule(m, layer.above)
        below_in_above = Subspace.from_matrix(layer.above.basis.solve_left(layer.below.basis))
        quotient_layer, _ = quotient_module(sub_above, below_in_above)
        allowed = layer.witness.source if cert.mode == "quotient-layers" else layer.witness.target
        if cert.mode == "exact-layers":
            if not is_isomorphic(ModuleCategory(m.algebra), quotient_layer, allowed).isomorphic:
                return False
        elif not any(h.is_surjective()
                     for h in hom_combinations(hom_basis(allowed, quotient_layer), F, F.is_finite)):
            return False
        prev = layer.above
    return prev == full(F, m.dim)


def algebra_issues_by_mul_vec(a) -> tuple[tuple[str, str], ...]:
    """The issues ``validate_algebra`` must report, in its order: the same
    checks and loops, with every product a ``mul_vec``."""
    F = a.field
    issues: list[tuple[str, str]] = []

    for i in range(a.dim):
        b = a.basis_vec(i)
        if a.mul_vec(a.unit, b) != b or a.mul_vec(b, a.unit) != b:
            issues.append(("unit", f"unit fails on basis element {a.basis_labels[i]}"))
            break

    def associativity():
        for i, j, k in itertools.product(range(a.dim), repeat=3):
            bi, bj, bk = a.basis_vec(i), a.basis_vec(j), a.basis_vec(k)
            if a.mul_vec(a.mul_vec(bi, bj), bk) != a.mul_vec(bi, a.mul_vec(bj, bk)):
                labels = a.basis_labels
                return [("associativity", f"({labels[i]}*{labels[j]})*{labels[k]}"
                         f" != {labels[i]}*({labels[j]}*{labels[k]})")]
        return []

    issues += associativity()
    idems = [a.basis_vec(i) for i in a.idempotent_indices]
    for v, e in zip(a.vertex_names, idems):
        if a.mul_vec(e, e) != e:
            issues.append(("idempotent", f"e_{v} is not idempotent"))
    for (v, e), (w, f) in itertools.combinations(zip(a.vertex_names, idems), 2):
        if any(x != F.zero for x in a.mul_vec(e, f) + a.mul_vec(f, e)):
            issues.append(("orthogonality", f"e_{v} * e_{w} != 0"))
    if a.idempotent_sum(a.vertex_names) != tuple(a.unit):
        issues.append(("idempotent-sum", "vertex idempotents do not sum to the unit"))

    rad = a.radical
    if rad.ambient != a.dim:
        issues.append(("radical", "ambient dimension mismatch"))
    else:
        def ideal():
            for r in range(rad.dim):
                rv = rad.basis.row(r)
                for i in range(a.dim):
                    b = a.basis_vec(i)
                    if not rad.contains(a.mul_vec(rv, b)):
                        return [("radical-ideal", f"rad*{a.basis_labels[i]} leaves the radical")]
                    if not rad.contains(a.mul_vec(b, rv)):
                        return [("radical-ideal", f"{a.basis_labels[i]}*rad leaves the radical")]
            return []

        issues += ideal()
        power, k = rad, 1
        while power.dim > 0 and k <= a.dim:
            vecs = [a.mul_vec(x, y) for x in power.basis.row_list() for y in rad.basis.row_list()]
            power = span(F, vecs, a.dim)
            k += 1
        if power.dim > 0:
            issues.append(("radical-nilpotent", f"rad^{k} still nonzero"))

    proj, _ = rad.quotient_maps()
    for (vi, v), (wi, w) in itertools.product(enumerate(a.vertex_names), repeat=2):
        ev, ew = idems[vi], idems[wi]
        corner = [a.mul_vec(a.mul_vec(ev, a.basis_vec(i)), ew) for i in range(a.dim)]
        dim = span(F, [proj.apply_row(x) for x in corner], proj.cols).dim
        if dim != (1 if vi == wi else 0):
            issues.append(("split-semisimple", f"dim e_{v}(A/rad)e_{w} = {dim}, expected {1 if vi == wi else 0}"))
    return tuple(issues)


def corner_bimodule_is_projective(s, lam: str, side: str) -> bool:
    """Is j_!^lam (side "j_!") or j_*^lam (side "j_*") exact, by the bimodule?

    With B = A_{<=lam}, f its stratum idempotent and Gamma = fBf,
    j_! = - (x)_Gamma fB is exact iff fB is projective as a left
    Gamma-module, a right module over the opposite of Gamma, and
    j_* = Hom_Gamma(Bf, -) is exact iff Bf is projective as a right
    Gamma-module.  A module is projective iff its minimal projective cover
    is no bigger than it.
    """
    data = s.principal_recollement(lam).data
    gamma = data.corner.algebra
    bim = data.ea.left if side == "j_!" else data.ae.right
    assert bim.algebra == (opposite(gamma) if side == "j_!" else gamma)
    return projective_cover(bim).projective.dim == bim.dim


# -- the module constructors, one block per algebra basis element -------------


@functools.cache
def reference_blocks(m: RightModule) -> tuple[Matrix, ...]:
    """The action matrix of each basis element, sliced out of the stack
    (kept per module value, for the tests' speed only)."""
    d = m.dim
    return tuple(Matrix(m.algebra.field, d, d, m.action.entries[k * d * d:(k + 1) * d * d])
                 for k in range(m.algebra.dim))


def module_from_blocks(algebra: Algebra, dim: int, blocks: Sequence[Matrix]) -> RightModule:
    """The module on which basis element k acts by ``blocks[k]``."""
    return RightModule(algebra, dim, Matrix(algebra.field, algebra.dim * dim, dim,
                                            tuple(x for b in blocks for x in b.entries)))


def reference_action_of(m: RightModule, a: Sequence) -> Matrix:
    """The sum of the blocks scaled by the coordinates of ``a``."""
    out = Matrix.zero(m.algebra.field, m.dim, m.dim)
    for c, x in zip(a, reference_blocks(m)):
        if c:
            out = out + x.scale(c)
    return out


def reference_submodule(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    B, d, n = space.basis, space.dim, m.algebra.dim
    acts = reference_blocks(m)
    images = Matrix(B.field, n * d, m.dim, tuple(x for k in range(n) for x in (B @ acts[k]).entries))
    try:
        X = B.solve_left(images)
    except InconsistentSystem:
        raise ValueError("subspace not closed under the action") from None
    mats = [Matrix(B.field, d, d, X.entries[k * d * d:(k + 1) * d * d]) for k in range(n)]
    sub = module_from_blocks(m.algebra, d, mats)
    return sub, ModuleMap(sub, m, B)


def reference_restrict_scalars(m: RightModule, algebra: Algebra, rows: Matrix) -> RightModule:
    return module_from_blocks(algebra, m.dim, [reference_action_of(m, rows.row(k)) for k in range(algebra.dim)])


def reference_quotient_module(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    proj, sec = space.quotient_maps()
    quo = module_from_blocks(m.algebra, proj.cols, [sec @ act @ proj for act in reference_blocks(m)])
    return quo, ModuleMap(m, quo, proj)


def reference_direct_sum(mods: Sequence[RightModule]) -> tuple[RightModule, list[ModuleMap], list[ModuleMap]]:
    A = mods[0].algebra
    F = A.field
    dims = [m.dim for m in mods]
    total = sum(dims)
    offsets = [sum(dims[:i]) for i in range(len(mods))]
    blocks = [reference_blocks(m) for m in mods]
    mats = []
    for k in range(A.dim):
        ent = []
        for mi, m in enumerate(mods):
            left, right = (F.zero,) * offsets[mi], (F.zero,) * (total - offsets[mi] - m.dim)
            for r in range(m.dim):
                ent.extend(left + blocks[mi][k].row(r) + right)
        mats.append(Matrix(F, total, total, tuple(ent)))
    big = module_from_blocks(A, total, mats)
    unit = Matrix.identity(F, total)
    injs, projs = [], []
    for mi, m in enumerate(mods):
        lo, hi = offsets[mi], offsets[mi] + m.dim
        inj = Matrix(F, m.dim, total, unit.entries[lo * total:hi * total])
        injs.append(ModuleMap(m, big, inj))
        projs.append(ModuleMap(big, m, inj.transpose()))
    return big, injs, projs


def reference_times(m: RightModule, elements: Matrix) -> Subspace:
    acts = [reference_action_of(m, s) for s in elements.row_list()]
    ent = tuple(x for act in acts for x in act.entries)
    return Matrix(m.algebra.field, len(acts) * m.dim, m.dim, ent).row_space()


def reference_annihilator(m: RightModule, elements: Matrix) -> Subspace:
    acts = [reference_action_of(m, s) for s in elements.row_list()]
    ent = tuple(x for i in range(m.dim) for act in acts for x in act.row(i))
    return Matrix(m.algebra.field, m.dim, len(acts) * m.dim, ent).left_kernel()


def reference_dual_module(m: RightModule) -> RightModule:
    return module_from_blocks(opposite(m.algebra), m.dim, [a.transpose() for a in reference_blocks(m)])


def reference_element_map_from_projective(
    pv: RightModule, incl_rows: Matrix, target: RightModule, u: Sequence
) -> Matrix:
    ent = tuple(x for t in range(incl_rows.rows)
                for x in reference_action_of(target, incl_rows.row(t)).apply_row(u))
    return Matrix(target.algebra.field, incl_rows.rows, target.dim, ent)


class ReferenceField:
    """Per-entry arithmetic of a field, each operation branching on its
    kind: mod p over GF(p), over Q a whole value made an ``int``."""

    def __init__(self, field) -> None:
        self.p = field.p if field.is_finite else None

    def reduce(self, x):
        if self.p is not None:
            return x % self.p
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        return self.reduce(a + b)

    def sub(self, a, b):
        return self.reduce(a - b)

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return self.reduce(-a)


def two_path_matmul(a, b):
    """The entries of a @ b: a dense triple loop over GF(p), a loop over
    the nonzero entries of each row of ``a`` over Q."""
    F = ReferenceField(a.field)
    n, m, k = a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        arow = a.row(i)
        if F.p is not None:
            out += [sum(arow[t] * b[t, j] for t in range(m)) % F.p for j in range(k)]
        else:
            terms = [(t, x) for t, x in enumerate(arow) if x]
            out += [F.reduce(sum((x * b[t, j] for t, x in terms), 0)) for j in range(k)]
    return tuple(out)


def reference_apply_row(a, v):
    """v @ a, one ``ReferenceField`` operation at a time."""
    F = ReferenceField(a.field)
    out = []
    for j in range(a.cols):
        s = 0
        for i, x in enumerate(v):
            if x:
                s = F.add(s, F.mul(x, a[i, j]))
        out.append(s)
    return tuple(out)


def two_path_rref(a):
    """(entries of the RREF, rank, pivots) by Gauss-Jordan elimination with
    ``ReferenceField`` operations on whole rows."""
    F = ReferenceField(a.field)
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots, r = [], 0
    for c in range(a.cols):
        pr = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if m[r][c] != 1:
            inv = a.field.inv(m[r][c])
            m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(x for row in m for x in row), len(pivots), tuple(pivots)


def reference_solve_left(a, target):
    """The entries of an X with X @ a = target, by eliminating [a | I] and
    reducing each target row against it; ``InconsistentSystem`` if none."""
    F, n = ReferenceField(a.field), a.rows
    aug = a.hstack(Matrix.identity(a.field, n))
    flat, _, piv = two_path_rref(aug)
    width = a.cols + n
    out = []
    for t in range(target.rows):
        v = list(target.row(t)) + [0] * n
        for r, pc in enumerate(piv):
            if pc >= a.cols:
                break
            if v[pc] != 0:
                f, rrow = v[pc], flat[r * width:(r + 1) * width]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, rrow)]
        if any(x != 0 for x in v[:a.cols]):
            raise InconsistentSystem(f"target row {t} is not in the row space")
        out += [F.neg(x) for x in v[a.cols:]]
    return tuple(out)


def reference_left_kernel(a):
    """The RREF basis entries of {v : v @ a = 0}: the null space of a^T
    read off its RREF, one vector per free column, then reduced."""
    F, n = ReferenceField(a.field), a.rows
    flat, _, piv = two_path_rref(a.transpose())
    vecs = []
    for fc in (j for j in range(n) if j not in piv):
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = F.neg(flat[r * n + fc])
        vecs.append(v)
    basis, rank, _ = two_path_rref(Matrix(a.field, len(vecs), n, tuple(x for v in vecs for x in v)))
    return basis[:rank * n]


def reference_kron(a, b):
    """The entries of the Kronecker product, each a ``ReferenceField`` product."""
    F = ReferenceField(a.field)
    return tuple(F.mul(a[i, i2], b[j, j2]) for i in range(a.rows) for j in range(b.rows)
                 for i2 in range(a.cols) for j2 in range(b.cols))


def reference_matmul(a, b):
    """The entries of a @ b by the kernel's loop: row i sums the rows of
    ``b`` scaled by the nonzero entries of row i of ``a``, and each entry is
    normalized."""
    n, m, k = a.rows, a.cols, b.cols
    x_ent, b_ent, norm, zeros = a.entries, b.entries, a.field.norm, (a.field.zero,) * k
    out = []
    for i in range(n):
        acc = None
        for t, x in enumerate(x_ent[i * m : (i + 1) * m]):
            if x:
                row = b_ent[t * k : (t + 1) * k]
                if x != 1:
                    row = [x * y for y in row]
                acc = row if acc is None else list(map(add, acc, row))
        out.extend(zeros if acc is None else map(norm, acc))
    return tuple(out)


def reference_rref(a):
    """(entries of the RREF, rank, pivots) by the kernel's full elimination,
    run on every matrix."""
    F, norm = a.field, a.field.norm
    m = [list(a.row(i)) for i in range(a.rows)]
    nrows, ncols = a.rows, a.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != 1:
            inv = F.inv(piv)
            m[r] = [norm(inv * x) for x in m[r]]
        prow = m[r]
        cols = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                for j in cols:
                    m[i][j] = norm(m[i][j] - f * prow[j])
        pivots.append(c)
        r += 1
    return tuple(x for row in m for x in row), len(pivots), tuple(pivots)


def reference_projective_resolution(m: RightModule, length: int) -> Resolution:
    """The minimal projective resolution out to degree ``length``, built
    from P_0 up and kept nowhere."""
    cov = projective_cover(m)
    terms, diffs, prev_cover = [cov.projective], [], cov
    for _ in range(length):
        ker_mod, ker_incl = kernel(prev_cover.cover_map)
        if ker_mod.dim == 0:
            break
        prev_cover = projective_cover(ker_mod)
        terms.append(prev_cover.projective)
        diffs.append(prev_cover.cover_map.then(ker_incl))
    return Resolution(module=m, terms=tuple(terms), differentials=tuple(diffs), augmentation=cov.cover_map)


# The dense builder's own caps, copied so that the reference does not move
# with the package's.
DEFAULT_LENGTH_BOUND = 32
PATH_CAP = 20000


def _path_target(quiver: Quiver, p: Path) -> int:
    v, arrows = p
    if not arrows:
        return v
    return quiver.vertex_index(quiver.arrows[arrows[-1]][2])


def bound_quiver_algebra_by_dense_span(pres: Presentation, field: Field) -> Algebra:
    """Build the path algebra of the quiver modulo the relation ideal.

    Relations must be admissible: every term is a composable path of length
    at least 2 and each relation is homogeneous in (source, target).  The
    basis consists of the path classes that survive reduction, ordered by
    (length, lexicographic arrow sequence); the construction is
    deterministic.  Raises ``PossiblyInfiniteError`` if the surviving path
    classes do not stabilize below ``DEFAULT_LENGTH_BOUND``, or if more than
    ``PATH_CAP`` paths are enumerated on the way.
    """
    quiver = pres.quiver
    F = field
    nv = len(quiver.vertices)

    # validate relations
    parsed: list[list[tuple[object, Path]]] = []
    for ridx, rel in enumerate(pres.relations):
        terms: list[tuple[object, Path]] = []
        sig = None
        for coeff, arrows in rel:
            c = F.of(coeff)
            if c == F.zero:
                continue
            if len(arrows) < 2:
                raise NonAdmissibleError(
                    f"relation {ridx}: term of length {len(arrows)} (< 2)"
                )
            src = quiver.vertex_index(quiver.arrows[arrows[0]][1])
            here = src
            for a in arrows:
                if quiver.vertex_index(quiver.arrows[a][1]) != here:
                    raise AlgebraError(f"relation {ridx}: non-composable path")
                here = quiver.vertex_index(quiver.arrows[a][2])
            if sig is None:
                sig = (src, here)
            elif sig != (src, here):
                raise AlgebraError(f"relation {ridx}: terms not homogeneous in (source, target)")
            terms.append((c, (src, tuple(arrows))))
        if terms:
            parsed.append(terms)

    max_rel_len = max((len(p[1]) for rel in parsed for _, p in rel), default=2)

    # arrows by source vertex, in index order (keeps enumeration lexicographic)
    out_arrows: list[list[int]] = [[] for _ in range(nv)]
    for ai, (_, s, _) in enumerate(quiver.arrows):
        out_arrows[quiver.vertex_index(s)].append(ai)

    def enumerate_paths(upto: int) -> list[list[Path]]:
        by_len: list[list[Path]] = [[(v, ()) for v in range(nv)]]
        total = nv
        for ln in range(1, upto + 1):
            nxt: list[Path] = []
            for (src, arrows) in by_len[ln - 1]:
                tgt = _path_target(quiver, (src, arrows))
                for a in out_arrows[tgt]:
                    nxt.append((src, arrows + (a,)))
            total += len(nxt)
            if total > PATH_CAP:
                raise PossiblyInfiniteError(
                    f"more than {PATH_CAP} paths below length {upto}"
                )
            by_len.append(nxt)
        return by_len

    level = max(2, max_rel_len)
    while True:
        by_len = enumerate_paths(level)
        paths: list[Path] = [p for chunk in by_len for p in chunk]
        # coordinates ordered longest-first so pivots rewrite long into short
        order = sorted(range(len(paths)), key=lambda i: (-len(paths[i][1]), paths[i]))
        coord_of = {paths[i]: pos for pos, i in enumerate(order)}
        ncoords = len(paths)

        # span of x * r * y over all composable paths x, y within the level
        gens: list[tuple] = []
        for rel in parsed:
            rlen = max(len(p[1]) for _, p in rel)
            rsrc = rel[0][1][0]
            rtgt = _path_target(quiver, rel[0][1])
            for xlen in range(0, level - rlen + 1):
                for x in by_len[xlen]:
                    if _path_target(quiver, x) != rsrc:
                        continue
                    for ylen in range(0, level - rlen - xlen + 1):
                        for y in by_len[ylen]:
                            if y[0] != rtgt:
                                continue
                            vec = [F.zero] * ncoords
                            for c, (psrc, parr) in rel:
                                comp = (x[0], x[1] + parr + y[1])
                                vec[coord_of[comp]] = F.norm(vec[coord_of[comp]] + c)
                            gens.append(tuple(vec))
        ideal = Matrix(F, len(gens), ncoords, tuple(x for g in gens for x in g)).row_space()

        pivots = set(ideal.pivots)
        live = [paths[i] for pos, i in enumerate(order) if pos not in pivots]
        s = max((len(p[1]) for p in live), default=0)

        if level >= 2 * s + max_rel_len:
            break
        nxt = max(2 * s + max_rel_len, level + 1)
        if nxt > DEFAULT_LENGTH_BOUND:
            raise PossiblyInfiniteError(
                f"path classes still growing at length {level} (bound {DEFAULT_LENGTH_BOUND})"
            )
        level = nxt

    basis_paths = sorted(live, key=lambda p: (len(p[1]), p))
    index_of = {p: i for i, p in enumerate(basis_paths)}
    dim = len(basis_paths)

    # column c of the ideal's quotient projection is the class of live[c]
    proj, _ = ideal.quotient_maps()
    basis_index = [index_of[p] for p in live]

    def reduce_path(p: Path) -> tuple:
        """Class of path p in basis-path coordinates."""
        out = [F.zero] * dim
        for i, x in zip(basis_index, proj.row(coord_of[p])):
            out[i] = x
        return tuple(out)

    zero = (F.zero,) * dim
    mult_rows = []
    for p in basis_paths:
        row = []
        for q in basis_paths:
            if _path_target(quiver, p) != q[0]:
                row.append(zero)
            else:
                row.append(reduce_path((p[0], p[1] + q[1])))
        mult_rows.append(tuple(row))

    unit = [F.zero] * dim
    idem_indices = []
    for v in range(nv):
        i = index_of[(v, ())]
        idem_indices.append(i)
        unit[i] = F.one

    rad_vecs = [basis_paths[i] for i in range(dim) if len(basis_paths[i][1]) >= 1]
    rad_ent = tuple(F.one if j == index_of[p] else F.zero for p in rad_vecs for j in range(dim))
    rad = Matrix(F, len(rad_vecs), dim, rad_ent).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(_path_label(quiver, p) for p in basis_paths),
        mult=tuple(mult_rows),
        unit=tuple(unit),
        idempotent_indices=tuple(idem_indices),
        vertex_names=quiver.vertices,
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(
            "bound quiver construction failed validation "
            f"(raise the length bound?): {report.issues}"
        )
    return alg


def graded_dimension_by_degree(pres: Presentation, field: Field, max_degree: int = 16) -> int:
    """dim kQ/I for relations whose terms all have one length: the sum over
    d of (#paths of length d - rank I_d), with I_d spanned by the x*r*y of
    total length d.  Once a degree is zero every higher one is (A_{d+1} =
    A_d A_1), so the sum stops there; past ``max_degree`` it raises."""
    quiver = pres.quiver
    ends = [(quiver.vertex_index(s), quiver.vertex_index(t)) for _, s, t in quiver.arrows]
    # a path is (source, target, arrows); by_len[d] holds those of length d
    by_len = [[(v, v, ()) for v in range(len(quiver.vertices))]]
    rels = []
    for rel in pres.relations:
        terms = [(field.of(c), tuple(w)) for c, w in rel if field.of(c)]
        if terms:
            if len({len(w) for _, w in terms}) > 1:
                raise ValueError("relation not length-homogeneous")
            w = terms[0][1]
            rels.append((ends[w[0]][0], ends[w[-1]][1], len(w), terms))
    total = 0
    for d in range(max_degree + 1):
        if d:
            by_len.append([(s, ends[a][1], w + (a,)) for s, t, w in by_len[d - 1]
                           for a in range(len(ends)) if ends[a][0] == t])
        col = {w: i for i, (_, _, w) in enumerate(by_len[d])}
        rows = []
        for rs, rt, n, terms in rels:
            for k in range(d - n + 1):
                for _, xt, x in by_len[k]:
                    for ys, _, y in by_len[d - n - k]:
                        if xt == rs and ys == rt:
                            row = [0] * len(by_len[d])
                            for c, w in terms:
                                row[col[x + w + y]] += c
                            rows.append(row)
        rank = Matrix.from_rows(field, rows, cols=len(by_len[d])).rank() if rows else 0
        total += len(by_len[d]) - rank
        if len(by_len[d]) == rank:
            return total
    raise ValueError(f"degree {max_degree} still nonzero")


def independent_rows_by_growing_span(m: Matrix, start: int = 0) -> list[int]:
    """``Matrix.independent_rows`` as the derived-algebra builders and the
    projective cover once chose their bases: keep a row when it lies
    outside the span grown from the rows kept before it."""
    span, out = Subspace.zero(m.field, m.cols), []
    for i in range(m.rows):
        if not span.contains(m.row(i)):
            span = subspace_sum(span, Matrix(m.field, 1, m.cols, m.row(i)).row_space())
            out += [i] if i >= start else []
    return out


def reference_corner_algebra(a: Algebra, vertices: Sequence[str]) -> CornerData:
    """The corner algebra eAe for e the sum of the named vertex idempotents;
    the zero algebra for e = 0."""
    subset = list(vertices)
    if any(v not in a.vertex_names for v in subset) or len(set(subset)) != len(subset):
        raise ValueError(f"not a vertex subset: {vertices!r}")
    F = a.field
    e = a.idempotent_sum(subset)

    basis_rows: list[tuple] = []
    labels: list[str] = []
    span = Subspace.zero(F, a.dim)
    for v in subset:
        ev = a.idempotent_vec(v)
        basis_rows.append(ev)
        labels.append(f"e_{v}")
        span = subspace_sum(span, Matrix(F, 1, a.dim, ev).row_space())
    for i in range(a.dim):
        cand = a.mul_vec(a.mul_vec(e, a.basis_vec(i)), e)
        if any(x != F.zero for x in cand) and not span.contains(cand):
            basis_rows.append(cand)
            labels.append(a.basis_labels[i])
            span = subspace_sum(span, Matrix(F, 1, a.dim, cand).row_space())
    embed = Matrix(F, len(basis_rows), a.dim, tuple(x for r in basis_rows for x in r))
    cdim = embed.rows

    # one solve writes every product, the radical's corner and e in the basis
    targets = [a.mul_vec(x, y) for x in basis_rows for y in basis_rows]
    targets += [a.mul_vec(a.mul_vec(e, a.radical.basis.row(r)), e) for r in range(a.radical.dim)]
    targets.append(e)
    try:
        sol = embed.solve_left(Matrix(F, len(targets), a.dim, tuple(x for t in targets for x in t)))
    except InconsistentSystem:
        raise AlgebraError("corner product left the corner span") from None
    mult_rows = [tuple(sol.row(i * cdim + j) for j in range(cdim)) for i in range(cdim)]
    # the radical's rows lie between the products and e
    rad = Matrix(F, a.radical.dim, cdim, sol.entries[cdim ** 3:(sol.rows - 1) * cdim]).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(labels),
        mult=tuple(mult_rows),
        unit=sol.row(sol.rows - 1),
        idempotent_indices=tuple(range(len(subset))),
        vertex_names=tuple(subset),
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"corner algebra failed validation: {report.issues}")
    return CornerData(algebra=alg, embed=embed)


def reference_quotient_by_idempotent_ideal(a: Algebra, vertices: Sequence[str]) -> QuotientData:
    """The quotient A/AeA for e the sum of the named vertex idempotents.

    The projection is an algebra surjection; the section picks coordinate
    representatives (a linear, not multiplicative, splitting).
    """
    subset = list(vertices)
    if any(v not in a.vertex_names for v in subset) or len(set(subset)) != len(subset):
        raise ValueError(f"not a vertex subset: {vertices!r}")
    F, one, prod = a.field, a.field.one, a.sum_of_products
    e_idx = [a.idempotent_indices[a.vertex_names.index(v)] for v in subset]

    # the span of the b_i e b_j, products read off the sparse table
    vecs = []
    for i in range(a.dim):
        bie = [(c, m) for m, c in enumerate(prod((one, i, v) for v in e_idx)) if c]
        if not bie:
            continue
        for j in range(a.dim):
            v = prod((c, m, j) for c, m in bie)
            if any(v):
                vecs.append(v)
    ideal = Matrix(F, len(vecs), a.dim, tuple(x for v in vecs for x in v)).row_space()

    # ideal stability (single pass suffices; assert it)
    for r in range(ideal.dim):
        rv = [(c, m) for m, c in enumerate(ideal.basis.row(r)) if c]
        for i in range(a.dim):
            if not ideal.contains(prod((c, m, i) for c, m in rv)) or not ideal.contains(
                prod((c, i, m) for c, m in rv)
            ):
                raise AlgebraError("idempotent ideal span not stable")

    proj, sec = ideal.quotient_maps()
    push = proj.apply_row
    surviving = [v for v in a.vertex_names if v not in subset]
    idem_indices = []
    for v in surviving:
        img = push(a.idempotent_vec(v))
        ones = [k for k, x in enumerate(img) if x != F.zero]
        if len(ones) != 1 or img[ones[0]] != F.one:
            raise AlgebraError(f"idempotent e_{v} does not survive as a basis class")
        idem_indices.append(ones[0])

    # the section picks the basis elements off the ideal's pivots
    kept = [j for j in range(a.dim) if j not in ideal.pivots]
    labels = [a.basis_labels[j] for j in kept]
    mult_rows = [tuple(push(prod([(one, i, j)])) for j in kept) for i in kept]

    rad = (a.radical.basis @ proj).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(labels),
        mult=tuple(mult_rows),
        unit=push(a.unit),
        idempotent_indices=tuple(idem_indices),
        vertex_names=tuple(surviving),
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"quotient algebra failed validation: {report.issues}")
    return QuotientData(algebra=alg, projection=proj, section=sec)


ISO_EXHAUSTION_CAP = 4096
ISO_RANDOM_TRIES = 500


def reference_is_isomorphic(cat, x, y) -> IsoResult:
    """Whether x and y are isomorphic in ``cat``; the certificate of a YES
    is an isomorphism x -> y.  Invariants first (``dim``, then
    ``cat.invariant``), then Hom(x, y): its basis elements and pairwise sums,
    then every combination when the field is finite and small enough, else
    pseudorandom ones, ending in ``UndecidedIsomorphism``, never in NO."""
    F = cat.field
    if x.dim != y.dim:
        return IsoResult(False, None, f"total dimensions differ: {x.dim} != {y.dim}")
    ix, iy = cat.invariant(x), cat.invariant(y)
    if x.dim == 0:
        return IsoResult(True, cat.zero_mor(x, y), "zero modules")
    if ix != iy:
        return IsoResult(False, None, f"dimension vectors differ: {ix} != {iy}")
    if x == y:
        return IsoResult(True, cat.identity(x), "equal representations")
    hxy, hyx = cat.hom_basis(x, y), cat.hom_basis(y, x)
    if len(hxy) != len(hyx):
        return IsoResult(False, None,
                         f"hom spaces asymmetric: dim Hom(m,n)={len(hxy)}, dim Hom(n,m)={len(hyx)}")
    if not hxy:
        return IsoResult(False, None, "Hom(m,n) = 0")

    for cand in hom_combinations(hxy, F, False):
        if cand.is_isomorphism():
            return IsoResult(True, cand, "basis element or pairwise sum")
    if F.is_finite and F.p ** len(hxy) <= ISO_EXHAUSTION_CAP:
        for cand in hom_combinations(hxy, F, True):
            if cand.is_isomorphism():
                return IsoResult(True, cand, "exhaustive search")
        return IsoResult(False, None, "exhaustive search over Hom(m,n) found no isomorphism")

    rng = random.Random(0xC0FFEE + x.dim * 7919 + len(hxy))
    for _ in range(ISO_RANDOM_TRIES):
        cand = combine([F.of(rng.randint(-3, 3)) for _ in range(len(hxy))], hxy, cat.zero_mor(x, y))
        if cand.is_isomorphism():
            return IsoResult(True, cand, "pseudorandom combination")
    raise UndecidedIsomorphism("invariants agree but no invertible combination found within the retry bound")
