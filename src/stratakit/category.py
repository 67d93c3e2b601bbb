"""The computable-abelian-category interface and its module-category instance.

The recollement engine is generic: it only talks to categories through the
small method surface below (``invariant`` is an isomorphism invariant of
objects, and ``local(x)`` certifies that End(x) is a local ring), plus the
object and morphism conventions:

* every object has ``dim``, the dimension of its underlying space;
* every morphism has ``source``/``target``/``then``/``+``/``-``/``scale``/
  ``is_zero``/``is_identity``, its ``rank()`` and the pair
  ``is_surjective``/``is_isomorphism`` read off the rank.

Kernels, cokernels and images are computed on underlying spaces (in the
glued category componentwise), so mono, epi, iso and exactness are rank
counts: ``exact_at`` and ``ShortExactSequence`` test exactness, at the ends
too, without building a kernel or an image, and rank each map once.
``solve_in_hom`` and ``is_isomorphic``, one pass over a hom basis, are
written over this surface.  ``ModuleCategory`` wraps right modules over a
fixed algebra; the Macpherson-Vilonen category implements the same surface
for glued tuples.
"""

from __future__ import annotations

from .algebra import Algebra
from .linalg import InconsistentSystem, Matrix, UndecidedIsomorphism, Value
from .modules import (
    ModuleMap,
    RightModule,
    annihilator,
    cokernel,
    combine,
    hom_basis,
    identity_map,
    image,
    injective_module,
    kernel,
    projective_module,
    simple_module,
    times,
    zero_map,
)


class ModuleCategory:
    """mod-A for a fixed split basic algebra A."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.field = algebra.field

    # morphisms ----------------------------------------------------------

    def identity(self, x: RightModule) -> ModuleMap:
        return identity_map(x)

    def zero_mor(self, x: RightModule, y: RightModule) -> ModuleMap:
        return zero_map(x, y)

    def hom_basis(self, x: RightModule, y: RightModule):
        return hom_basis(x, y)

    def mor_coords(self, f: ModuleMap) -> tuple:
        return f.mat.entries

    def kernel(self, f: ModuleMap):
        return kernel(f)

    def cokernel(self, f: ModuleMap):
        return cokernel(f)

    def image(self, f: ModuleMap):
        return image(f)

    def invariant(self, x: RightModule) -> tuple[int, ...]:
        if x.algebra != self.algebra:
            raise ValueError("modules over different algebras")
        return x.vertex_dims()

    def local(self, x: RightModule) -> bool:
        """End(x) is local if x has a simple top (every proper submodule lies
        in the radical, so the non-surjective endomorphisms form an ideal)
        or, dually, a simple socle."""
        rad = self.algebra.radical.basis
        return x.dim - times(x, rad).dim == 1 or annihilator(x, rad).dim == 1

    # generating family ----------------------------------------------------

    def standard_samples(self) -> list[tuple[str, RightModule]]:
        """Simples, indecomposable projectives, indecomposable injectives."""
        out = []
        for v in self.algebra.vertex_names:
            out.append((f"S({v})", simple_module(self.algebra, v)))
        for v in self.algebra.vertex_names:
            out.append((f"P({v})", projective_module(self.algebra, v)[0]))
        for v in self.algebra.vertex_names:
            out.append((f"I({v})", injective_module(self.algebra, v)))
        return out


class Functor(Value):
    """A computable functor: deterministic callables on objects and on
    morphisms, named as in ``TensorFunctor`` and ``HomFunctor``; ``F(x)``
    applies ``obj`` and ``F.map(f)`` applies ``mor``."""

    obj: object  # callable obj -> obj
    mor: object  # callable mor -> mor

    def __call__(self, x):
        return self.obj(x)

    def map(self, f):
        return self.mor(f)


def exact_at(f, g, mono: bool = False, epi: bool = False) -> bool:
    """Exactness of X -f-> Y -g-> Z at Y: f ; g = 0 puts im f inside ker g,
    and the two are equal when rank f = dim ker g = dim Y - rank g.  With
    ``mono`` also at X (0 -> X, rank f = dim X) and with ``epi`` also at Z
    (Z -> 0, rank g = dim Z); each map is ranked once."""
    if not f.then(g).is_zero:
        return False
    rf, rg = f.rank(), g.rank()
    return (rf + rg == f.target.dim and (not mono or rf == f.source.dim)
            and (not epi or rg == g.target.dim))


class ShortExactSequence(Value):
    """0 -> sub -> middle -> quotient -> 0 in any category of the interface."""

    inclusion: object   # sub -> middle
    projection: object  # middle -> quotient

    @property
    def sub(self):
        return self.inclusion.source

    @property
    def middle(self):
        return self.inclusion.target

    @property
    def quotient(self):
        return self.projection.target

    def verify(self) -> bool:
        return exact_at(self.inclusion, self.projection, mono=True, epi=True)


def solve_in_hom(cat, source, target, compose, goal):
    """The h in Hom(source, target) with compose(h) == goal.

    ``compose`` must be linear in h (such as h |-> h ; g or h |-> g ; h).  h
    is solved for as a combination of ``cat.hom_basis(source, target)``: a
    plain linear solve could return a matrix that is not a morphism.  When
    several h solve it, the RREF-canonical basis and the elimination fix
    which one is returned.  When none does (a nonzero goal and a zero hom
    space included), this raises ``linalg.InconsistentSystem``.
    """
    F = cat.field
    basis = cat.hom_basis(source, target)
    if not basis:
        if goal.is_zero:
            return cat.zero_mor(source, target)
        raise InconsistentSystem("nonzero goal from a zero hom space")
    rows = [cat.mor_coords(compose(h)) for h in basis]
    ncols = len(rows[0])
    T = Matrix(F, len(rows), ncols, tuple(x for r in rows for x in r))
    sol = T.solve_left(Matrix(F, 1, ncols, tuple(cat.mor_coords(goal))))
    return combine(sol.row(0), basis, cat.zero_mor(source, target))


class IsoResult(Value):
    isomorphic: bool
    certificate: object | None  # explicit iso when YES
    reason: str                 # distinguishing invariant or search note


def is_isomorphic(cat, x, y) -> IsoResult:
    """Whether x and y are isomorphic in ``cat``; the certificate of a YES
    is an isomorphism x -> y.  Invariants first (``dim``, then
    ``cat.invariant``), then one pass over ``cat.hom_basis(x, y)``: with no
    isomorphism in it, NO if it is empty or a side is ``cat.local``, else
    ``UndecidedIsomorphism``, never NO.  If End(y) is local and phi: x -> y
    is an isomorphism, h |-> phi^-1 ; h is a linear bijection Hom(x, y) ->
    End(y) taking isomorphisms to units and back; the non-units of a local
    algebra form a proper subspace, which holds no basis.  If End(x) is
    local instead, End(y) is isomorphic to it whenever x is to y."""
    if x.dim != y.dim:
        return IsoResult(False, None, f"total dimensions differ: {x.dim} != {y.dim}")
    ix, iy = cat.invariant(x), cat.invariant(y)
    if x.dim == 0:
        return IsoResult(True, cat.zero_mor(x, y), "zero modules")
    if ix != iy:
        return IsoResult(False, None, f"dimension vectors differ: {ix} != {iy}")
    if x == y:
        return IsoResult(True, cat.identity(x), "equal representations")
    basis = cat.hom_basis(x, y)
    for h in basis:
        if h.is_isomorphism():
            return IsoResult(True, h, "basis element")
    if not basis:
        return IsoResult(False, None, "Hom(m,n) = 0")
    if cat.local(y) or cat.local(x):
        return IsoResult(False, None, "a side has a local End and no basis element of Hom(m,n) is invertible")
    raise UndecidedIsomorphism("no side has a local End and no basis element of Hom(m,n) is invertible")
