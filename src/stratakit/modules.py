"""Finite-dimensional right modules over a split basic algebra.

A ``RightModule`` of dimension d stores one d x d matrix per algebra basis
element; elements are row vectors and ``v * b_k = v @ action[k]``, so the
assignment ``b_k -> action[k]`` is multiplicative with no order flip.  A
``ModuleMap`` stores its matrix with shape (source dim) x (target dim) and
acts by ``v |-> v @ mat``; composition "f then g" is ``f.mat @ g.mat``.

Everything is immutable and every constructor is deterministic (canonical
RREF bases throughout), so structural equality of modules is meaningful
and modules can be used as cache keys.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

from .algebra import Algebra, opposite
from .linalg import Field, InconsistentSystem, InvariantError, Matrix, Subspace, Value, intertwiner_basis


def combine(coeffs: Sequence, items: Sequence, start):
    """``start`` plus the sum of c * x over the pairs (c, x) with c nonzero
    (x itself for c = 1).

    ``items`` are matrices or morphisms (anything with ``scale`` and ``+``);
    ``start`` fixes the result when every coefficient is zero.
    """
    out = start
    for c, x in zip(coeffs, items):
        if c != 0:
            out = out + (x if c == 1 else x.scale(c))
    return out


class RightModule(Value):
    algebra: Algebra
    dim: int
    action: tuple[Matrix, ...]

    def __init__(self, algebra: Algebra, dim: int, action: tuple[Matrix, ...]) -> None:
        self.__dict__.update(algebra=algebra, dim=dim, action=action)

    def __eq__(self, other) -> bool:
        # spelled out, as ``Matrix.__eq__``: every memo keyed by a module
        # compares with it
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.algebra, self.dim, self.action) == (other.algebra, other.dim, other.action)

    def action_of(self, a: Sequence) -> Matrix:
        """Action matrix of an arbitrary algebra element (coordinate vector):
        the sum of its nonzero terms, so a unit vector gives ``action[k]``
        itself."""
        terms = [x if c == 1 else x.scale(c) for c, x in zip(a, self.action) if c]
        if not terms:
            return Matrix.zero(self.algebra.field, self.dim, self.dim)
        return functools.reduce(Matrix.__add__, terms)

    def vertex_dims(self) -> tuple[int, ...]:
        """Dimension of M e_v for each vertex, in vertex order."""
        return tuple(
            self.action[i].rank() for i in self.algebra.idempotent_indices
        )


class RankPredicates:
    """Epi and iso read off ``rank()`` and the ends' ``dim``: right for
    every morphism whose kernel and cokernel live on its underlying spaces
    (module maps, and glued morphisms componentwise).  ``_same_ends`` is the
    check that ``+`` and ``-`` make first."""

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.rank() == self.source.dim

    def _same_ends(self, other) -> None:
        if self.source != other.source or self.target != other.target:
            raise ValueError("maps have different sources or targets")


class ModuleMap(Value, RankPredicates):
    source: RightModule
    target: RightModule
    mat: Matrix  # source.dim x target.dim

    def __init__(self, source: RightModule, target: RightModule, mat: Matrix) -> None:
        self.__dict__.update(source=source, target=target, mat=mat)

    def then(self, other: "ModuleMap") -> "ModuleMap":
        if self.target != other.source:
            raise ValueError("maps not composable")
        return ModuleMap(self.source, other.target, self.mat @ other.mat)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        self._same_ends(other)
        return ModuleMap(self.source, self.target, self.mat + other.mat)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        self._same_ends(other)
        return ModuleMap(self.source, self.target, self.mat - other.mat)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.mat.scale(c))

    @property
    def is_zero(self) -> bool:
        return self.mat.is_zero

    def rank(self) -> int:
        return self.mat.rank()


def identity_map(m: RightModule) -> ModuleMap:
    return ModuleMap(m, m, Matrix.identity(m.algebra.field, m.dim))


def zero_map(m: RightModule, n: RightModule) -> ModuleMap:
    return ModuleMap(m, n, Matrix.zero(m.algebra.field, m.dim, n.dim))


def zero_module(algebra: Algebra) -> RightModule:
    F = algebra.field
    return RightModule(algebra, 0, tuple(Matrix.zero(F, 0, 0) for _ in range(algebra.dim)))


def regular_module(algebra: Algebra) -> RightModule:
    """The algebra as a right module over itself (built once per algebra)."""
    cache = algebra.cache
    if "regular" not in cache:
        # row i of the action of b_k is b_i * b_k: column slice k of the table
        n, mult = algebra.dim, algebra.mult
        mats = [Matrix(algebra.field, n, n, tuple(x for i in range(n) for x in mult[i][k])) for k in range(n)]
        cache["regular"] = RightModule(algebra, n, tuple(mats))
    return cache["regular"]


def submodule(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    """Module structure on an action-closed subspace, with its inclusion."""
    if space.ambient != m.dim:
        raise ValueError("ambient mismatch")
    B, d, n = space.basis, space.dim, m.algebra.dim
    # one elimination of B for the images of B under every basis element
    images = Matrix(B.field, n * d, m.dim, tuple(x for k in range(n) for x in (B @ m.action[k]).entries))
    try:
        X = B.solve_left(images)
    except InconsistentSystem:
        raise ValueError("subspace not closed under the action") from None
    mats = tuple(Matrix(B.field, d, d, X.entries[k * d * d:(k + 1) * d * d]) for k in range(n))
    sub = RightModule(m.algebra, d, mats)
    return sub, ModuleMap(sub, m, B)


def restrict_scalars(m: RightModule, algebra: Algebra, rows: Matrix) -> RightModule:
    """``m`` as a module over ``algebra`` along a linear map into m's algebra.

    Row k of ``rows`` is the image of basis element k of ``algebra``, which
    then acts on m's space as that image does.  This is a module when the
    map is an algebra map (a projection onto a quotient algebra); for a
    section of one, or the embedding of a corner eAe, the caller passes to
    the sub- or quotient space of m on which it is.
    """
    return RightModule(algebra, m.dim, tuple(m.action_of(rows.row(k)) for k in range(algebra.dim)))


def quotient_module(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    """Quotient by an action-closed subspace, with its projection."""
    proj, sec = space.quotient_maps()
    mats = [sec @ m.action[k] @ proj for k in range(m.algebra.dim)]
    quo = RightModule(m.algebra, proj.cols, tuple(mats))
    return quo, ModuleMap(m, quo, proj)


def kernel(f: ModuleMap) -> tuple[RightModule, ModuleMap]:
    return submodule(f.source, f.mat.left_kernel())


def image(f: ModuleMap) -> tuple[RightModule, ModuleMap, ModuleMap]:
    """Image with its (epi from source, mono to target) factorization."""
    space = f.mat.row_space()
    img, incl = submodule(f.target, space)
    epi = ModuleMap(f.source, img, space.basis.solve_left(f.mat))
    return img, epi, incl


def cokernel(f: ModuleMap) -> tuple[RightModule, ModuleMap]:
    return quotient_module(f.target, f.mat.row_space())


def direct_sum(mods: Sequence[RightModule]) -> tuple[RightModule, list[ModuleMap], list[ModuleMap]]:
    if not mods:
        raise ValueError("direct_sum of nothing: pass the algebra's zero module instead")
    A = mods[0].algebra
    F = A.field
    dims = [m.dim for m in mods]
    total = sum(dims)
    offsets = [sum(dims[:i]) for i in range(len(mods))]
    mats = []
    for k in range(A.dim):
        ent = []
        for mi, m in enumerate(mods):
            left, right = (F.zero,) * offsets[mi], (F.zero,) * (total - offsets[mi] - m.dim)
            for r in range(m.dim):
                ent.extend(left + m.action[k].row(r) + right)
        mats.append(Matrix(F, total, total, tuple(ent)))
    big = RightModule(A, total, tuple(mats))
    unit = Matrix.identity(F, total)
    injs, projs = [], []
    for mi, m in enumerate(mods):
        lo, hi = offsets[mi], offsets[mi] + m.dim
        inj = Matrix(F, m.dim, total, unit.entries[lo * total:hi * total])
        injs.append(ModuleMap(m, big, inj))
        projs.append(ModuleMap(big, m, inj.transpose()))
    return big, injs, projs


# -- hom spaces --------------------------------------------------------------


def hom_basis(m: RightModule, n: RightModule) -> list[ModuleMap]:
    """RREF-canonical basis of the space of module maps m -> n.

    A matrix X intertwines iff action_m(g) @ X = X @ action_n(g) for every
    algebra generator g; generators suffice because intertwining is closed
    under products and linear combinations.
    """
    if m.algebra != n.algebra:
        raise ValueError("modules over different algebras")
    A = m.algebra
    pairs = [(m.action_of(g), n.action_of(g)) for g in A.generating_vectors()]
    return [ModuleMap(m, n, mat) for mat in intertwiner_basis(A.field, pairs, m.dim, n.dim)]


def hom_combinations(basis: Sequence, field: Field, exhaustive: bool) -> Iterator:
    """Deterministic candidate combinations of a hom basis, for searches
    for an isomorphism, a surjection or a filtration layer.

    Exhaustive (finite fields only): every nonzero combination up to a
    scalar, in ``itertools.product`` order of the coefficient tuples, each
    normalized so its first nonzero coefficient is 1 (scaling changes
    neither kernels, images nor invertibility).  Heuristic: the basis
    elements, then the pairwise sums b_i + b_j with i < j.
    """
    if not exhaustive:
        yield from basis
        for i, j in itertools.combinations(range(len(basis)), 2):
            yield basis[i] + basis[j]
        return
    if not field.is_finite:
        raise ValueError("exhaustive hom-space search needs a finite field")
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        i = next((k for k, c in enumerate(coeffs) if c != 0), None)
        if i is not None and coeffs[i] == 1:
            yield combine(coeffs[i + 1:], basis[i + 1:], basis[i])


# -- bimodules and their tensor/hom functors ------------------------------------


class Bimodule(NamedTuple):
    """A (left_algebra, right_algebra)-bimodule on row vectors.

    ``right_action[k]`` is multiplicative as usual; the left action composes
    through the opposite order (apply the right factor first), and the two
    actions commute.
    """

    left_algebra: Algebra
    right_algebra: Algebra
    dim: int
    left_action: tuple[Matrix, ...]
    right_action: tuple[Matrix, ...]

    def tensor_functor(self) -> "TensorFunctor":
        """X |-> X (x)_L B from right L-modules to right R-modules (L, R the
        left and right algebras).

        X (x)_L B is the quotient of X (x)_k B, whose coordinate i * dim B + j
        is x_i (x) b_j as in ``Matrix.kron``, by the rows of
        x.action[s] (x) I - I (x) left_action[s] over the basis l_s of L,
        that is, by the vectors x l_s (x) b - x (x) l_s b.
        """
        L, R = self.left_algebra, self.right_algebra
        F = R.field
        ident = Matrix.identity(F, self.dim)

        @functools.cache
        def relations(x: RightModule) -> Subspace:
            x_ident, n = Matrix.identity(F, x.dim), x.dim * self.dim
            rels = [x.action[s].kron(ident) - x_ident.kron(self.left_action[s]) for s in range(L.dim)]
            return Subspace.from_matrix(Matrix(F, L.dim * n, n, tuple(e for r in rels for e in r.entries)))

        @functools.cache
        def obj(x: RightModule) -> RightModule:
            proj, sec = relations(x).quotient_maps()
            x_ident = Matrix.identity(F, x.dim)
            acts = [sec @ x_ident.kron(self.right_action[k]) @ proj for k in range(R.dim)]
            return RightModule(R, proj.cols, tuple(acts))

        def mor(f: ModuleMap) -> ModuleMap:
            _, sec = relations(f.source).quotient_maps()
            proj, _ = relations(f.target).quotient_maps()
            return ModuleMap(obj(f.source), obj(f.target), sec @ f.mat.kron(ident) @ proj)

        return TensorFunctor(obj, mor, relations)

    def hom_functor(self) -> "HomFunctor":
        """X |-> Hom_R(B, X) from right R-modules to right L-modules, with
        (phi l)(b) = phi(l b).

        An element of Hom_R(B, X) is a dim B x dim X matrix; ``basis(x)`` is
        ``hom_basis`` from B as a right R-module to X, and ``coords(x, mats)``
        writes each matrix of ``mats`` in it.
        """
        L, R = self.left_algebra, self.right_algebra
        F = R.field
        db = self.dim
        as_module = RightModule(R, db, self.right_action)

        @functools.cache
        def basis(x: RightModule) -> tuple[Matrix, ...]:
            return tuple(f.mat for f in hom_basis(as_module, x))

        def coords(x: RightModule, mats: Sequence[Matrix]) -> Matrix:
            phis = basis(x)
            n = db * x.dim
            flat_basis = Matrix(F, len(phis), n, tuple(e for phi in phis for e in phi.entries))
            return flat_basis.solve_left(Matrix(F, len(mats), n, tuple(e for m in mats for e in m.entries)))

        @functools.cache
        def obj(x: RightModule) -> RightModule:
            phis = basis(x)
            acts = [coords(x, [self.left_action[k] @ phi for phi in phis]) for k in range(L.dim)]
            return RightModule(L, len(phis), tuple(acts))

        def mor(f: ModuleMap) -> ModuleMap:
            imgs = [phi @ f.mat for phi in basis(f.source)]
            return ModuleMap(obj(f.source), obj(f.target), coords(f.target, imgs))

        return HomFunctor(obj, mor, basis, coords)


class TensorFunctor(NamedTuple):
    obj: Callable[[RightModule], RightModule]
    mor: Callable[[ModuleMap], ModuleMap]
    relations: Callable[[RightModule], Subspace]  # kernel of X (x)_k B ->> X (x)_L B


class HomFunctor(NamedTuple):
    obj: Callable[[RightModule], RightModule]
    mor: Callable[[ModuleMap], ModuleMap]
    basis: Callable[[RightModule], tuple[Matrix, ...]]
    coords: Callable[[RightModule, Sequence[Matrix]], Matrix]


def validate_bimodule(b: Bimodule) -> None:
    L, R = b.left_algebra, b.right_algebra
    F = L.field
    ident, zero = Matrix.identity(F, b.dim), Matrix.zero(F, b.dim, b.dim)
    if combine(L.unit, b.left_action, zero) != ident or combine(R.unit, b.right_action, zero) != ident:
        raise ValueError("units must act as the identity on the bimodule")
    for i in range(R.dim):
        for j in range(R.dim):
            if b.right_action[i] @ b.right_action[j] != combine(R.mult[i][j], b.right_action, zero):
                raise ValueError("right action is not multiplicative")
    for i in range(L.dim):
        for j in range(L.dim):
            # (s s') . v applies s' first in row convention
            if b.left_action[j] @ b.left_action[i] != combine(L.mult[i][j], b.left_action, zero):
                raise ValueError("left action is not multiplicative")
    for i in range(L.dim):
        for j in range(R.dim):
            if b.left_action[i] @ b.right_action[j] != b.right_action[j] @ b.left_action[i]:
                raise ValueError("left and right actions do not commute")


def corner_bimodules(
    a: Algebra, gamma: Algebra, embed: Matrix, e_a: Matrix, a_e: Matrix
) -> tuple[Bimodule, Bimodule]:
    """eA as a (gamma, A)-bimodule and Ae as an (A, gamma)-bimodule, gamma = eAe.

    ``embed`` lists the basis of gamma as elements of A, and ``e_a`` and
    ``a_e`` the bases of eA and Ae inside A; every product is taken in A
    and written back in the basis it lands in.
    """
    F = a.field
    gammas = [embed.row(s) for s in range(gamma.dim)]
    units = [a.basis_vec(k) for k in range(a.dim)]

    def action(basis: Matrix, x: tuple, on_left: bool) -> Matrix:
        ent = tuple(y for v in basis.row_list()
                    for y in (a.mul_vec(x, v) if on_left else a.mul_vec(v, x)))
        return basis.solve_left(Matrix(F, basis.rows, a.dim, ent))

    ea = Bimodule(gamma, a, e_a.rows,
                  tuple(action(e_a, g, True) for g in gammas),
                  tuple(action(e_a, b, False) for b in units))
    ae = Bimodule(a, gamma, a_e.rows,
                  tuple(action(a_e, b, True) for b in units),
                  tuple(action(a_e, g, False) for g in gammas))
    return ea, ae


# -- the two submodule rules: M·S and its annihilator ---------------------------


def times(m: RightModule, elements: Sequence[Sequence]) -> Subspace:
    """M·S, the span of v·s over v in m and s in ``elements`` (algebra
    elements as coordinate vectors): the row space of the stacked
    ``m.action_of(s)``.  It is a submodule when S spans a right ideal (M rad A,
    M e A); an empty S gives the zero space."""
    acts = [m.action_of(s) for s in elements]
    ent = tuple(x for act in acts for x in act.entries)
    return Matrix(m.algebra.field, len(acts) * m.dim, m.dim, ent).row_space()


def annihilator(m: RightModule, elements: Sequence[Sequence]) -> Subspace:
    """{v : v·s = 0 for every s in ``elements``}: the left kernel of the
    ``m.action_of(s)`` side by side.  It is a submodule when S spans a left
    ideal (the socle for S a basis of rad A); an empty S gives the whole
    space."""
    acts = [m.action_of(s) for s in elements]
    ent = tuple(x for i in range(m.dim) for act in acts for x in act.row(i))
    return Matrix(m.algebra.field, m.dim, len(acts) * m.dim, ent).left_kernel()


def top(m: RightModule) -> tuple[RightModule, ModuleMap]:
    """The top M / M rad A, with its projection."""
    return quotient_module(m, times(m, m.algebra.radical.basis.row_list()))


# -- distinguished modules ----------------------------------------------------


def projective_module(algebra: Algebra, vertex: str) -> tuple[RightModule, ModuleMap]:
    """P(v) = e_v A as a submodule of the regular module (built once per algebra)."""
    cache = algebra.cache
    key = ("projective", vertex)
    if key not in cache:
        space = algebra.left_mult_matrix(algebra.idempotent_vec(vertex)).row_space()
        cache[key] = submodule(regular_module(algebra), space)
    return cache[key]


def simple_module(algebra: Algebra, vertex: str) -> RightModule:
    """S(v): the top of P(v) (built once per algebra)."""
    key = ("simple", vertex)
    if key not in algebra.cache:
        algebra.cache[key] = top(projective_module(algebra, vertex)[0])[0]
    return algebra.cache[key]


def dual_module(m: RightModule) -> RightModule:
    """Vector-space dual, a right module over the opposite algebra."""
    return RightModule(opposite(m.algebra), m.dim, tuple(a.transpose() for a in m.action))


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.mat.transpose())


def injective_module(algebra: Algebra, vertex: str) -> RightModule:
    """I(v) = D(e_v A^op) (built once per algebra)."""
    key = ("injective", vertex)
    if key not in algebra.cache:
        algebra.cache[key] = dual_module(projective_module(opposite(algebra), vertex)[0])
    return algebra.cache[key]


# -- covers and envelopes ------------------------------------------------------


def element_map_from_projective(
    pv: RightModule, incl_rows: Matrix, target: RightModule, u: Sequence
) -> Matrix:
    """Matrix of the map P(v) -> target sending the generator e_v to u.

    ``incl_rows`` gives P(v)'s basis as elements of the algebra; row t is an
    algebra element x, and the map sends x to u * x.
    """
    ent = tuple(x for t in range(incl_rows.rows)
                for x in target.action_of(incl_rows.row(t)).apply_row(u))
    return Matrix(target.algebra.field, incl_rows.rows, target.dim, ent)


class Cover(NamedTuple):
    projective: RightModule
    cover_map: ModuleMap
    summands: tuple[tuple[str, int], ...]  # (vertex, multiplicity)


def projective_cover(m: RightModule) -> Cover:
    """Minimal projective cover, built by lifting a basis of the top: at
    each vertex v, the rows of the action of e_v whose images in the top lie
    outside the span of those before them, read off one elimination."""
    A = m.algebra
    F = A.field
    if m.dim == 0:
        z = zero_module(A)
        return Cover(z, ModuleMap(z, m, Matrix.zero(F, 0, 0)), ())
    head, proj = top(m)

    pieces: list[tuple[str, tuple]] = []  # (vertex, generator image u in m)
    for v in A.vertex_names:
        ev = A.idempotent_vec(v)
        me_v = m.action_of(ev)
        kept = (me_v @ proj.mat).independent_rows()
        if len(kept) != head.action_of(ev).rank():
            raise InvariantError("top basis lifting failed")
        pieces += [(v, me_v.row(r)) for r in kept]

    summand_mods = []
    blocks = []
    counts: dict[str, int] = {}
    for v, u in pieces:
        pv, incl = projective_module(A, v)
        summand_mods.append(pv)
        blocks.append(element_map_from_projective(pv, incl.mat, m, u))
        counts[v] = counts.get(v, 0) + 1
    big, injs, _ = direct_sum(summand_mods)
    phi = ModuleMap(big, m, Matrix(F, big.dim, m.dim, tuple(x for blk in blocks for x in blk.entries)))
    if not phi.is_surjective():
        raise InvariantError("cover map not surjective")
    ker_space = phi.mat.left_kernel()
    if not times(big, A.radical.basis.row_list()).contains_space(ker_space):
        raise InvariantError("cover not essential")
    summands = tuple((v, counts[v]) for v in A.vertex_names if v in counts)
    return Cover(big, phi, summands)


class Envelope(NamedTuple):
    injective: RightModule
    envelope_map: ModuleMap


def injective_envelope(m: RightModule) -> Envelope:
    """Computed as the dual of the projective cover over the opposite algebra."""
    dm = dual_module(m)
    cov = projective_cover(dm)
    iota = dual_map(cov.cover_map)  # D(D(m)) -> D(P); D(D(m)) == m on the nose
    if iota.source != m:
        raise InvariantError("the dual of the cover of D(m) does not start at m")
    return Envelope(injective=iota.target, envelope_map=iota)

