"""Finite-dimensional right modules over a split basic algebra.

A ``RightModule`` of dimension d over an algebra of dimension n keeps its
action as one (n·d) x d matrix, the stack of the d x d blocks ``block(k)``
of the basis elements b_k; read as an n x d² matrix (``flat()``), row k is
block k.  Elements are row vectors and ``v * b_k = v @ block(k)``, so
b_k -> block(k) is multiplicative with no order flip.  A ``ModuleMap``
stores its matrix with shape (source dim) x (target dim) and acts by
``v |-> v @ mat``; composition "f then g" is ``f.mat @ g.mat``.

Everything is immutable and every constructor is deterministic (canonical
RREF bases throughout), so structural equality of modules (one comparison of
action matrices) is meaningful.  Over one algebra instance each action is one
live module, found in a weak table in the algebra's ``cache``, so equal
modules are one object and the answers kept on it (its blocks, top,
projective cover, dual, hom bases and resolution) are computed once per
value while any caller holds it.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Callable, Iterator, Sequence

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


def _swap_runs(entries: tuple, a: int, b: int, w: int) -> tuple:
    """``entries`` as an a x b grid of runs of w entries written as the b x a
    grid: a stack of a blocks of b rows put side by side, and back."""
    return tuple(itertools.chain.from_iterable(entries[(i * b + j) * w:(i * b + j + 1) * w]
                                               for j in range(b) for i in range(a)))


def _diagonal(field: Field, n: int, parts: Sequence[tuple[int, Matrix]]) -> Matrix:
    """The action of a direct sum: block k of each (dim, stack) on the diagonal of block k."""
    total, ent = sum(d for d, _ in parts), []
    for k in range(n):
        offset = 0
        for d, stack in parts:
            for r in range(k * d, (k + 1) * d):
                ent.extend((field.zero,) * offset + stack.row(r) + (field.zero,) * (total - offset - d))
            offset += d
    return Matrix(field, n * total, total, tuple(ent))


class RightModule(Value):
    """A right module; ``action`` is the (n·d) x d stack of its blocks.

    Each constructor is one product or elimination, plus a reordering of
    entries (``_swap_runs``) where blocks go side by side: ``restrict_scalars``
    and ``times`` multiply rows of algebra elements by ``flat()``, and so does
    ``annihilator``, then side by side; ``quotient_module`` multiplies the
    non-pivot rows of every block (the section is a row selection) by the
    projection; ``submodule`` multiplies the basis by the blocks side by side
    and solves once; ``element_map_from_projective`` is ``incl_rows @ U``,
    row k of U being u * b_k; the hom functor's object map multiplies the
    bimodule's stack by the hom basis side by side and solves once.
    ``regular_module``, ``direct_sum``, ``dual_module`` and the tensor
    functor's object map write the stack itself."""

    algebra: Algebra
    dim: int
    action: Matrix  # (algebra.dim * dim) x dim

    def __new__(cls, algebra: Algebra, dim: int, action: Matrix) -> "RightModule":
        # the live module with this action, if any: its table holds it weakly
        table = algebra.cache.get("modules")
        if table is None:
            table = algebra.cache["modules"] = weakref.WeakValueDictionary()
        m = table.get(action)
        if m is None:
            m = table[action] = super().__new__(cls)
            m.__dict__.update(algebra=algebra, dim=dim, action=action)
        return m

    def __init__(self, *args, **kwargs) -> None:
        pass  # ``__new__`` returned the module, built or found

    def block(self, k: int) -> Matrix:
        """The action matrix of b_k, sliced out once per module."""
        kept, d = self.__dict__.setdefault("_blocks", {}), self.dim
        if k not in kept:
            kept[k] = Matrix(self.algebra.field, d, d, self.action.entries[k * d * d:(k + 1) * d * d])
        return kept[k]

    def flat(self) -> Matrix:
        """``action`` as the n x d² matrix whose row k is block k, made once."""
        if "_flat" not in self.__dict__:
            self.__dict__["_flat"] = Matrix(self.algebra.field, self.algebra.dim, self.dim**2, self.action.entries)
        return self.__dict__["_flat"]

    def action_of(self, a: Sequence) -> Matrix:
        """Action matrix of an arbitrary algebra element (coordinate vector):
        one row combination of ``flat()``, and for a unit vector its block."""
        support = [k for k, c in enumerate(a) if c]
        if len(support) == 1 and a[support[0]] == 1:
            return self.block(support[0])
        return Matrix(self.algebra.field, self.dim, self.dim, self.flat().apply_row(a))

    def vertex_dims(self) -> tuple[int, ...]:
        """Dimension of M e_v for each vertex, in vertex order."""
        return tuple(self.block(i).rank() for i in self.algebra.idempotent_indices)


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

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.mat.is_identity

    def rank(self) -> int:
        return self.mat.rank()


def identity_map(m: RightModule) -> ModuleMap:
    return ModuleMap(m, m, Matrix.identity(m.algebra.field, m.dim))


def zero_map(m: RightModule, n: RightModule) -> ModuleMap:
    return ModuleMap(m, n, Matrix.zero(m.algebra.field, m.dim, n.dim))


def zero_module(algebra: Algebra) -> RightModule:
    return RightModule(algebra, 0, Matrix.zero(algebra.field, 0, 0))


def regular_module(algebra: Algebra) -> RightModule:
    """The algebra as a right module over itself (built once per algebra)."""
    cache = algebra.cache
    if "regular" not in cache:
        # row i of the block of b_k is b_i * b_k: column slice k of the table
        n, mult = algebra.dim, algebra.mult
        act = Matrix(algebra.field, n * n, n, tuple(x for k in range(n) for i in range(n) for x in mult[i][k]))
        cache["regular"] = RightModule(algebra, n, act)
    return cache["regular"]


def submodule(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    """Module structure on an action-closed subspace, with its inclusion."""
    if space.ambient != m.dim:
        raise ValueError("ambient mismatch")
    B, d, n, F = space.basis, space.dim, m.algebra.dim, space.field
    # row i of B times the blocks side by side is B_i b_0, ..., B_i b_{n-1}:
    # read as (d·n) x dim m, row i·n + k is the image of B_i under b_k
    images = B @ Matrix(F, m.dim, n * m.dim, _swap_runs(m.action.entries, n, m.dim, m.dim))
    try:
        X = B.solve_left(Matrix(F, d * n, m.dim, images.entries))
    except InconsistentSystem:
        raise ValueError("subspace not closed under the action") from None
    sub = RightModule(m.algebra, d, Matrix(F, n * d, d, _swap_runs(X.entries, d, n, d)))
    return sub, ModuleMap(sub, m, B)


def restrict_scalars(m: RightModule, algebra: Algebra, rows: Matrix) -> RightModule:
    """``m`` as a module over ``algebra`` along a linear map into m's algebra.

    Row k of ``rows`` is the image of basis element k of ``algebra``, which
    then acts on m's space as that image does: ``rows @ m.flat()``.  This is
    a module when the map is an algebra map (a projection onto a quotient
    algebra); for a section of one, or the embedding of a corner eAe, the
    caller passes to the sub- or quotient space of m on which it is.
    """
    d = m.dim
    return RightModule(algebra, d, Matrix(algebra.field, algebra.dim * d, d, (rows @ m.flat()).entries))


def quotient_module(m: RightModule, space: Subspace) -> tuple[RightModule, ModuleMap]:
    """Quotient by an action-closed subspace, with its projection."""
    proj, _ = space.quotient_maps()
    d, pivots = m.dim, set(space.pivots)
    # the section picks the non-pivot rows: section @ block is a row selection
    picked = tuple(x for r in range(m.action.rows) if r % d not in pivots for x in m.action.row(r))
    quo = RightModule(m.algebra, proj.cols, Matrix(space.field, m.algebra.dim * proj.cols, d, picked) @ proj)
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
    total = sum(m.dim for m in mods)
    big = RightModule(A, total, _diagonal(F, A.dim, [(m.dim, m.action) for m in mods]))
    unit = Matrix.identity(F, total)
    injs, projs = [], []
    lo = 0
    for m in mods:
        inj = Matrix(F, m.dim, total, unit.entries[lo * total:(lo + m.dim) * total])
        injs.append(ModuleMap(m, big, inj))
        projs.append(ModuleMap(big, m, inj.transpose()))
        lo += m.dim
    return big, injs, projs


# -- hom spaces --------------------------------------------------------------


def _kept(m: RightModule, key, build: Callable, *args):
    """``build(m, *args)``, made on the first call and kept on ``m`` under
    ``key``, as ``block`` keeps its blocks."""
    kept = m.__dict__.setdefault("_kept", {})
    if key not in kept:
        kept[key] = build(m, *args)
    return kept[key]


def hom_basis(m: RightModule, n: RightModule) -> tuple[ModuleMap, ...]:
    """RREF-canonical basis of the space of module maps m -> n, kept on m.

    A matrix X intertwines iff action_m(g) @ X = X @ action_n(g) for every
    algebra generator g; generators suffice because intertwining is closed
    under products and linear combinations.
    """
    return _kept(m, n, _hom_basis, n)


def _hom_basis(m: RightModule, n: RightModule) -> tuple[ModuleMap, ...]:
    if m.algebra != n.algebra:
        raise ValueError("modules over different algebras")
    A = m.algebra
    pairs = [(m.action_of(g), n.action_of(g)) for g in A.generating_vectors()]
    return tuple(ModuleMap(m, n, mat) for mat in intertwiner_basis(A.field, pairs, m.dim, n.dim))


def hom_combinations(basis: Sequence, field: Field, exhaustive: bool) -> Iterator:
    """Deterministic candidate combinations of a hom basis, for searches
    for a surjection or a filtration layer.

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


class Bimodule(Value):
    """A (left_algebra, right_algebra)-bimodule on row vectors, as two
    modules on one space whose actions commute: ``right`` over the right
    algebra, and ``left`` over the opposite of the left algebra (in row
    convention the left action applies the right factor first).
    """

    left_algebra: Algebra
    right_algebra: Algebra
    dim: int
    left: RightModule
    right: RightModule

    def tensor_functor(self) -> "TensorFunctor":
        """X |-> X (x)_L B from right L-modules to right R-modules (L, R the
        left and right algebras).

        X (x)_L B is the quotient of X (x)_k B, whose coordinate i * dim B + j
        is x_i (x) b_j as in ``Matrix.kron``, by the rows of
        x.block(s) (x) I - I (x) left.block(s) over the basis l_s of L,
        that is, by the vectors x l_s (x) b - x (x) l_s b.  As a right
        R-module, X (x)_k B is dim X copies of B, and the I (x) left.block(s)
        are the blocks of dim X copies of ``left``.
        """
        L, R = self.left_algebra, self.right_algebra
        F, db = R.field, self.dim
        ident = Matrix.identity(F, db)

        @functools.cache
        def relations(x: RightModule) -> Subspace:
            copies = _diagonal(F, L.dim, [(db, self.left.action)] * x.dim)
            return Subspace.from_matrix(x.action.kron(ident) - copies)

        @functools.cache
        def obj(x: RightModule) -> RightModule:
            free = RightModule(R, x.dim * db, _diagonal(F, R.dim, [(db, self.right.action)] * x.dim))
            return quotient_module(free, relations(x))[0]

        def mor(f: ModuleMap) -> ModuleMap:
            _, sec = relations(f.source).quotient_maps()
            proj, _ = relations(f.target).quotient_maps()
            return ModuleMap(obj(f.source), obj(f.target), sec @ f.mat.kron(ident) @ proj)

        return TensorFunctor(obj, mor, relations)

    def hom_functor(self) -> "HomFunctor":
        """X |-> Hom_R(B, X) from right R-modules to right L-modules, with
        (phi l)(b) = phi(l b).

        An element of Hom_R(B, X) is a dim B x dim X matrix; ``basis(x)`` is
        ``hom_basis`` from B as a right R-module to X, one flattened map per
        row, and ``coords(x, rows)`` writes each row of ``rows``, a flattened
        element, in it.
        """
        L, R = self.left_algebra, self.right_algebra
        F = R.field
        db = self.dim

        @functools.cache
        def basis(x: RightModule) -> Matrix:
            phis = hom_basis(self.right, x)
            return Matrix(F, len(phis), db * x.dim, tuple(e for phi in phis for e in phi.mat.entries))

        def coords(x: RightModule, rows: Matrix) -> Matrix:
            return basis(x).solve_left(rows)

        @functools.cache
        def obj(x: RightModule) -> RightModule:
            dx, flat = x.dim, basis(x)
            h, size = flat.rows, flat.cols
            # one product of the action stack and the basis side by side:
            # its block k is b_k phi_0, ..., b_k phi_{h-1} side by side, and
            # one after another they are rows k·h, ..., k·h + h - 1 of the action
            side = Matrix(F, db, h * dx, _swap_runs(flat.entries, h, db, dx))
            prod = (self.left.action @ side).entries
            images = itertools.chain.from_iterable(
                _swap_runs(prod[k * h * size:(k + 1) * h * size], db, h, dx) for k in range(L.dim))
            return RightModule(L, h, coords(x, Matrix(F, L.dim * h, size, tuple(images))))

        def mor(f: ModuleMap) -> ModuleMap:
            # phi @ f for every basis map phi, as one product of their stack
            flat = basis(f.source)
            images = Matrix(F, flat.rows * db, f.source.dim, flat.entries) @ f.mat
            return ModuleMap(obj(f.source), obj(f.target),
                             coords(f.target, Matrix(F, flat.rows, db * f.target.dim, images.entries)))

        return HomFunctor(obj, mor, basis, coords)


class TensorFunctor(Value):
    obj: Callable[[RightModule], RightModule]
    mor: Callable[[ModuleMap], ModuleMap]
    relations: Callable[[RightModule], Subspace]  # kernel of X (x)_k B ->> X (x)_L B


class HomFunctor(Value):
    obj: Callable[[RightModule], RightModule]
    mor: Callable[[ModuleMap], ModuleMap]
    basis: Callable[[RightModule], Matrix]  # one flattened map per row
    coords: Callable[[RightModule, Matrix], Matrix]


def validate_bimodule(b: Bimodule) -> None:
    ident = Matrix.identity(b.right_algebra.field, b.dim)
    if b.left.action_of(b.left_algebra.unit) != ident or b.right.action_of(b.right_algebra.unit) != ident:
        raise ValueError("units must act as the identity on the bimodule")
    for side, m in (("right", b.right), ("left", b.left)):
        n = m.algebra.dim
        if any(m.block(i) @ m.block(j) != m.action_of(m.algebra.mult[i][j]) for i in range(n) for j in range(n)):
            raise ValueError(f"{side} action is not multiplicative")
    for i in range(b.left_algebra.dim):
        for j in range(b.right_algebra.dim):
            if b.left.block(i) @ b.right.block(j) != b.right.block(j) @ b.left.block(i):
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

    def action(basis: Matrix, xs: Matrix, on_left: bool) -> Matrix:
        # row (k, t) is x_k * (basis row t), or the other way round
        ent = tuple(y for x in xs.row_list() for v in basis.row_list()
                    for y in (a.mul_vec(x, v) if on_left else a.mul_vec(v, x)))
        return basis.solve_left(Matrix(F, xs.rows * basis.rows, a.dim, ent))

    units, gamma_op, a_op = Matrix.identity(F, a.dim), opposite(gamma), opposite(a)
    ea = Bimodule(gamma, a, e_a.rows, RightModule(gamma_op, e_a.rows, action(e_a, embed, True)),
                  RightModule(a, e_a.rows, action(e_a, units, False)))
    ae = Bimodule(a, gamma, a_e.rows, RightModule(a_op, a_e.rows, action(a_e, units, True)),
                  RightModule(gamma, a_e.rows, action(a_e, embed, False)))
    return ea, ae


# -- the two submodule rules: M·S and its annihilator ---------------------------


def side_by_side(m: RightModule, elements: Matrix) -> Matrix:
    """The actions on m of the rows of ``elements`` side by side: row i of
    this d x (s·d) matrix is v_i s_0, ..., v_i s_{s-1}."""
    d, s = m.dim, elements.rows
    return Matrix(m.algebra.field, d, s * d, _swap_runs((elements @ m.flat()).entries, s, d, d))


def times(m: RightModule, elements: Matrix) -> Subspace:
    """M·S, the span of v·s over v in m and s a row of ``elements`` (algebra
    elements as coordinate rows): the row space of the stacked actions of
    the s.  It is a submodule when S spans a right ideal (M rad A, M e A);
    no rows give the zero space."""
    d = m.dim
    return Matrix(m.algebra.field, elements.rows * d, d, (elements @ m.flat()).entries).row_space()


def annihilator(m: RightModule, elements: Matrix) -> Subspace:
    """{v : v·s = 0 for every row s of ``elements``}: the left kernel of the
    actions of the s side by side.  It is a submodule when S spans a left
    ideal (the socle for S a basis of rad A); no rows give the whole
    space."""
    return side_by_side(m, elements).left_kernel()


def top(m: RightModule) -> tuple[RightModule, ModuleMap]:
    """The top M / M rad A, with its projection, kept on m."""
    return _kept(m, "top", _top)


def _top(m: RightModule) -> tuple[RightModule, ModuleMap]:
    return quotient_module(m, times(m, m.algebra.radical.basis))


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
    """S(v): the top of P(v), kept on it."""
    return top(projective_module(algebra, vertex)[0])[0]


def dual_module(m: RightModule) -> RightModule:
    """Vector-space dual, a right module over the opposite algebra, kept on m."""
    return _kept(m, "dual", _dual_module)


def _dual_module(m: RightModule) -> RightModule:
    d, e = m.dim, m.action.entries
    dual = tuple(e[(k * d + j) * d + i] for k in range(m.algebra.dim) for i in range(d) for j in range(d))
    return RightModule(opposite(m.algebra), d, Matrix(m.algebra.field, m.action.rows, d, dual))


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.mat.transpose())


def injective_module(algebra: Algebra, vertex: str) -> RightModule:
    """I(v) = D(e_v A^op), kept on e_v A^op."""
    return dual_module(projective_module(opposite(algebra), vertex)[0])


# -- covers and envelopes ------------------------------------------------------


def element_map_from_projective(
    pv: RightModule, incl_rows: Matrix, target: RightModule, u: Sequence
) -> Matrix:
    """Matrix of the map P(v) -> target sending the generator e_v to u.

    ``incl_rows`` gives P(v)'s basis as elements of the algebra; row t is an
    algebra element x, and the map sends x to u * x.
    """
    F, n, d = target.algebra.field, target.algebra.dim, target.dim
    side = Matrix(F, d, n * d, _swap_runs(target.action.entries, n, d, d))
    return incl_rows @ Matrix(F, n, d, side.apply_row(u))


class Cover(Value):
    projective: RightModule
    cover_map: ModuleMap
    summands: tuple[tuple[str, int], ...]  # (vertex, multiplicity)


def projective_cover(m: RightModule) -> Cover:
    """Minimal projective cover, kept on m, built by lifting a basis of the
    top: at each vertex v, the rows of the action of e_v whose images in the
    top lie outside the span of those before them, read off one elimination."""
    return _kept(m, "cover", _projective_cover)


def _projective_cover(m: RightModule) -> Cover:
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
    if not times(big, A.radical.basis).contains_space(ker_space):
        raise InvariantError("cover not essential")
    summands = tuple((v, counts[v]) for v in A.vertex_names if v in counts)
    return Cover(big, phi, summands)


class Envelope(Value):
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

