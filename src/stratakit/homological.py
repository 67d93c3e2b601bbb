"""Minimal projective resolutions, Ext groups, and universal extensions.

Resolutions are minimal: each step is the projective cover of the previous
kernel, so differentials land in radicals and Ext dimensions read off
canonically.  A module has one resolution, kept and grown as longer ones
are asked for, so Ext in degrees 0, 1 and 2 builds each cover once.  Ext
classes are represented by cocycles P_n -> N reduced against the
coboundary space with a fixed RREF-canonical complement, which makes class
equality a representation equality for a fixed resolution.
"""

from __future__ import annotations

from .category import ModuleCategory, ShortExactSequence, solve_in_hom
from .linalg import InvariantError, Matrix, Subspace, Value
from .modules import (
    ModuleMap,
    RightModule,
    direct_sum,
    hom_basis,
    kernel,
    projective_cover,
    quotient_module,
    zero_map,
    zero_module,
)


class Resolution(Value):
    """P_n -> ... -> P_0 -> M -> 0 (exact), with minimal P_i."""

    module: RightModule
    terms: tuple[RightModule, ...]          # P_0, ..., P_n
    differentials: tuple[ModuleMap, ...]    # d_i: P_i -> P_{i-1} for i >= 1
    augmentation: ModuleMap                 # P_0 -> M

    def term(self, i: int) -> RightModule:
        if i < len(self.terms):
            return self.terms[i]
        return zero_module(self.module.algebra)

    def differential(self, i: int) -> ModuleMap:
        """d_i: P_i -> P_{i-1} (zero map once the resolution has stopped)."""
        if 1 <= i <= len(self.differentials):
            return self.differentials[i - 1]
        return zero_map(self.term(i), self.term(i - 1))


def projective_resolution(m: RightModule, length: int) -> Resolution:
    """Minimal projective resolution out to homological degree ``length``.

    One resolution of ``m`` is kept on it, as its cover is, and freed with
    it: a longer request extends it from its last cover, a shorter one gets
    its prefix, and one that has stopped (a zero kernel) is complete for any
    length.
    """
    kept = m.__dict__.setdefault("_kept", {})
    if "resolution" not in kept:
        cov = projective_cover(m)
        kept["resolution"] = Resolution(m, (cov.projective,), (), cov.cover_map), cov, False
    res, last, stopped = kept["resolution"]
    terms, diffs = list(res.terms), list(res.differentials)
    while not stopped and len(diffs) < length:
        ker_mod, ker_incl = kernel(last.cover_map)
        stopped = ker_mod.dim == 0
        if not stopped:
            last = projective_cover(ker_mod)
            terms.append(last.projective)
            diffs.append(last.cover_map.then(ker_incl))
    res = res._replace(terms=tuple(terms), differentials=tuple(diffs))
    kept["resolution"] = res, last, stopped
    return res._replace(terms=res.terms[:length + 1], differentials=res.differentials[:length])


class ExtClass(Value):
    """Degree-n class represented by a reduced cocycle P_n -> target."""

    degree: int
    source: RightModule
    target: RightModule
    cocycle: ModuleMap  # P_degree -> target, reduced modulo coboundaries


class ExtSpace(Value):
    degree: int
    source: RightModule
    target: RightModule
    dim: int
    classes: tuple[ExtClass, ...]
    coboundary_space: Subspace  # in flattened Hom(P_n, target) coordinates
    class_basis: Subspace       # the classes' reductions mod coboundaries, in RREF


def _flatten(f: ModuleMap) -> tuple:
    return f.mat.entries


def _unflatten(flat, p: RightModule, n: RightModule) -> ModuleMap:
    F = p.algebra.field
    return ModuleMap(p, n, Matrix(F, p.dim, n.dim, tuple(flat)))


def ext(m: RightModule, n: RightModule, degree: int) -> ExtSpace:
    """Ext^degree(m, n) as cohomology of Hom(P_*, n).

    Degree 0 agrees with the hom space (checked in tests); classes there are
    represented by their factorizations through the augmentation.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    F = m.algebra.field
    res = projective_resolution(m, degree + 1)
    p_n = res.term(degree)
    if p_n.dim == 0 or n.dim == 0:  # Ext is 0, and the coboundaries need no Hom(P_{n-1}, N)
        zero = Subspace.zero(F, p_n.dim * n.dim)
        return ExtSpace(degree, m, n, 0, (), zero, zero)
    homs = hom_basis(p_n, n)
    ambient = p_n.dim * n.dim

    # the cocycles are the kernel of h |-> d_{n+1} ; h, written through the
    # flattened hom basis
    d_in = res.differential(degree + 1)  # P_{n+1} -> P_n
    flat = Matrix(F, len(homs), ambient, tuple(e for h in homs for e in _flatten(h)))
    composites = Matrix(F, len(homs), d_in.source.dim * n.dim,
                        tuple(e for h in homs for e in _flatten(d_in.then(h))))
    cocycles = Subspace.from_matrix(composites.left_kernel().basis @ flat)

    cob_vecs = []
    if degree >= 1:
        d_here = res.differential(degree)  # P_n -> P_{n-1}
        for g in hom_basis(res.term(degree - 1), n):
            cob_vecs.append(_flatten(d_here.then(g)))
    coboundaries = Matrix(F, len(cob_vecs), ambient, tuple(x for v in cob_vecs for x in v)).row_space()

    # canonical complement: reduce each cocycle basis vector mod coboundaries,
    # take the RREF of the reductions, lift back through the section; as
    # proj after sec is the identity, the RREF rows are the classes' reductions
    proj, sec = coboundaries.quotient_maps()
    reduced = [proj.apply_row(cocycles.basis.row(i)) for i in range(cocycles.dim)]
    class_basis = Matrix(F, len(reduced), proj.cols, tuple(x for v in reduced for x in v)).row_space()
    classes = tuple(ExtClass(degree, m, n, _unflatten(sec.apply_row(class_basis.basis.row(i)), p_n, n))
                    for i in range(class_basis.dim))
    return ExtSpace(degree, m, n, len(classes), classes, coboundaries, class_basis)


def reduce_cocycle(space: ExtSpace, f: ModuleMap) -> tuple:
    """Coordinates of the class of cocycle ``f`` in the ExtSpace basis:
    its reduction read off the pivots of the kept class basis."""
    proj, _ = space.coboundary_space.quotient_maps()
    reduced = Matrix(f.mat.field, 1, proj.cols, proj.apply_row(_flatten(f)))
    return space.class_basis.basis.solve_left(reduced).row(0)


def _pushout_extension(res: Resolution, f: ModuleMap) -> ShortExactSequence:
    """0 -> T -> E -> M -> 0 for a cocycle f: P_1 -> T, with E the cokernel
    of (f, -d_1): P_1 -> T + P_0.  As d_1 maps P_1 onto K = ker(aug), this
    is the pushout of K -> P_0 along the map K -> T that f factors through."""
    m, T = res.module, f.target
    big, injs, _ = direct_sum([T, res.term(0)])
    glue = f.mat.hstack(-res.differential(1).mat)
    relations = glue.row_space()
    e_mod, coker_proj = quotient_module(big, relations)
    # E -> M descends (t, p) |-> aug(p) through the cokernel's section
    descend = Matrix.zero(f.mat.field, T.dim, m.dim).stack(res.augmentation.mat)
    if not (glue @ descend).is_zero:
        raise InvariantError("the augmentation does not vanish on the pushout relations")
    _, sec = relations.quotient_maps()
    ses = ShortExactSequence(injs[0].then(coker_proj), ModuleMap(e_mod, m, sec @ descend))
    if not ses.verify():
        raise InvariantError("pushout did not produce a short exact sequence")
    return ses


def _connecting_map(ses: ShortExactSequence, res: Resolution) -> ModuleMap:
    """The map P_1 -> sub whose class is the connecting class of ``ses``."""
    # lift the augmentation through the projection (projectivity of P_0)
    l0 = solve_in_hom(ModuleCategory(res.module.algebra), res.term(0), ses.middle,
                      lambda h: h.then(ses.projection), res.augmentation)
    g = res.differential(1).then(l0)  # lands in the image of the inclusion
    return ModuleMap(res.term(1), ses.sub, ses.inclusion.mat.solve_left(g.mat))


class UniversalExtension(Value):
    multiplicities: tuple[int, ...]
    middle: RightModule  # E in 0 -> sum of B_i^{d_i} -> E -> M -> 0


def universal_extension(m: RightModule, targets: list[RightModule]) -> UniversalExtension:
    """Extension of m by each B_i^{dim Ext^1(m, B_i)} killing the connecting classes.

    Each target must have a local endomorphism ring, certified by
    ``ModuleCategory.local`` (a simple top or a simple socle).  The induced maps
    Hom(sum B_i^{d_i}, B_j) -> Ext^1(m, B_j) are surjective; asserted.
    """
    A = m.algebra
    F = A.field
    if not all(map(ModuleCategory(A).local, targets)):
        raise ValueError("extension target lacks a local endomorphism ring certificate")
    spaces = [ext(m, b, 1) for b in targets]
    mults = tuple(s.dim for s in spaces)
    if all(d == 0 for d in mults):
        return UniversalExtension(multiplicities=mults, middle=m)

    res = projective_resolution(m, 2)
    T, injs, _ = direct_sum([b for b, space in zip(targets, spaces) for _ in space.classes])
    cocycles = [cls.cocycle for space in spaces for cls in space.classes]
    stacked = zero_map(res.term(1), T)
    for f, inj in zip(cocycles, injs):
        stacked = stacked + f.then(inj)
    ses = _pushout_extension(res, stacked)

    # surjectivity of Hom(T, B_j) -> Ext^1(m, B_j) via the connecting map
    to_sub = _connecting_map(ses, res)
    for b, space in zip(targets, spaces):
        if space.dim == 0:
            continue
        rank_rows = [reduce_cocycle(space, to_sub.then(h)) for h in hom_basis(T, b)]
        rk = Matrix(F, len(rank_rows), space.dim, tuple(x for r in rank_rows for x in r)).rank()
        if rk != space.dim:
            raise InvariantError("universal extension failed to surject onto Ext^1")
    return UniversalExtension(multiplicities=mults, middle=ses.middle)
