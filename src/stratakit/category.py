"""The computable-abelian-category interface and its module-category instance.

The recollement engine is generic: it only talks to categories through the
small method surface below (``invariant`` is an isomorphism invariant of
objects), plus the object and morphism conventions:

* every object has ``dim``, the dimension of its underlying space;
* every morphism has ``source``/``target``/``then``/``+``/``-``/``scale``/
  ``is_zero``/``is_identity``, its ``rank()`` and the pair
  ``is_surjective``/``is_isomorphism`` read off the rank.

Kernels, cokernels and images are computed on underlying spaces (in the
glued category componentwise), so mono, epi, iso and exactness are rank
counts: ``exact_at`` and ``ShortExactSequence`` test exactness, at the ends
too, without building a kernel or an image, and rank each map once.
``solve_in_hom`` and ``is_isomorphic``, the one isomorphism search, are
written over this surface.  ``ModuleCategory`` wraps right modules over a
fixed algebra; the Macpherson-Vilonen category implements the same surface
for glued tuples.
"""

from __future__ import annotations

import random

from .algebra import Algebra
from .linalg import InconsistentSystem, Matrix, UndecidedIsomorphism, Value
from .modules import (
    ModuleMap,
    RightModule,
    cokernel,
    combine,
    hom_basis,
    hom_combinations,
    identity_map,
    image,
    injective_module,
    kernel,
    projective_module,
    simple_module,
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


ISO_EXHAUSTION_CAP = 4096
ISO_RANDOM_TRIES = 500


def is_isomorphic(cat, x, y) -> IsoResult:
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
