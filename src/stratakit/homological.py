"""Minimal projective resolutions, Ext groups, and universal extensions.

Resolutions are minimal: each step is the projective cover of the previous
kernel, so differentials land in radicals and Ext dimensions read off
canonically.  Ext classes are represented by cocycles P_n -> N reduced
against the coboundary space with a fixed RREF-canonical complement, which
makes class equality a representation equality for a fixed resolution.
"""

from __future__ import annotations

from typing import NamedTuple

from .category import ModuleCategory, ShortExactSequence, solve_in_hom
from .linalg import InvariantError, Matrix, Subspace
from .modules import (
    ModuleMap,
    RightModule,
    cokernel,
    direct_sum,
    hom_basis,
    kernel,
    projective_cover,
    top,
    zero_map,
    zero_module,
)


class Resolution(NamedTuple):
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

    Kept in the cache of ``m``'s algebra, so each resolution is built once
    per algebra instance and freed with it.
    """
    cache = m.algebra.cache
    key = ("resolution", m, length)
    if key in cache:
        return cache[key]
    cov = projective_cover(m)
    terms = [cov.projective]
    diffs: list[ModuleMap] = []
    aug = cov.cover_map
    prev_cover = cov
    for i in range(1, length + 1):
        ker_mod, ker_incl = kernel(prev_cover.cover_map)
        if ker_mod.dim == 0:
            break
        cov_i = projective_cover(ker_mod)
        terms.append(cov_i.projective)
        diffs.append(cov_i.cover_map.then(ker_incl))
        prev_cover = cov_i
    res = cache[key] = Resolution(module=m, terms=tuple(terms), differentials=tuple(diffs),
                                  augmentation=aug)
    return res


class ExtClass(NamedTuple):
    """Degree-n class represented by a reduced cocycle P_n -> target."""

    degree: int
    source: RightModule
    target: RightModule
    cocycle: ModuleMap  # P_degree -> target, reduced modulo coboundaries


class ExtSpace(NamedTuple):
    degree: int
    source: RightModule
    target: RightModule
    dim: int
    classes: tuple[ExtClass, ...]
    coboundary_space: Subspace  # in flattened Hom(P_n, target) coordinates


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
        return ExtSpace(degree, m, n, 0, (), Subspace.zero(F, p_n.dim * n.dim))
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
    # take the RREF of the reductions, lift back through the section
    classes: list[ExtClass] = []
    if cocycles.dim > 0:
        proj, sec = coboundaries.quotient_maps()
        reduced = [proj.apply_row(cocycles.basis.row(i)) for i in range(cocycles.dim)]
        red_space = Matrix(F, len(reduced), proj.cols, tuple(x for v in reduced for x in v)).row_space()
        for i in range(red_space.dim):
            lifted = sec.apply_row(red_space.basis.row(i))
            classes.append(ExtClass(degree, m, n, _unflatten(lifted, p_n, n)))
    dim = len(classes)
    return ExtSpace(degree, m, n, dim, tuple(classes), coboundaries)


def ext_dim(m: RightModule, n: RightModule, degree: int) -> int:
    if degree == 0:
        return len(hom_basis(m, n))
    return ext(m, n, degree).dim


def reduce_cocycle(space: ExtSpace, f: ModuleMap) -> tuple:
    """Coordinates of the class of cocycle ``f`` in the ExtSpace basis."""
    F = f.source.algebra.field
    flat = _flatten(f)
    proj, _ = space.coboundary_space.quotient_maps()
    reduced = proj.apply_row(flat)
    if space.dim == 0:
        if any(x != F.zero for x in reduced):
            raise InvariantError("nonzero class in a zero Ext space")
        return ()
    basis_rows = [proj.apply_row(_flatten(c.cocycle)) for c in space.classes]
    B = Matrix(F, len(basis_rows), proj.cols, tuple(x for r in basis_rows for x in r))
    return B.solve_left(Matrix(F, 1, proj.cols, reduced)).row(0)


def _kernel_epi(res: Resolution) -> tuple[ModuleMap, ModuleMap]:
    """The epi P_1 ->> K = ker(aug) and the inclusion K -> P_0, whose
    composite is d_1."""
    ker_mod, ker_incl = kernel(res.augmentation)
    epi_mat = ker_incl.mat.solve_left(res.differential(1).mat)
    return ModuleMap(res.term(1), ker_mod, epi_mat), ker_incl


def _cocycle_to_kernel_map(epi: ModuleMap, f: ModuleMap) -> ModuleMap:
    """Factor a degree-1 cocycle P_1 -> N through the epi P_1 ->> K."""
    return ModuleMap(epi.target, f.target, epi.mat.solve_right(f.mat))


def _pushout_extension(res: Resolution, fbar: ModuleMap, ker_incl: ModuleMap) -> ShortExactSequence:
    """Pushout of K -> P_0 along fbar: K -> T, giving 0 -> T -> E -> M -> 0."""
    m = res.module
    T = fbar.target
    p0 = res.term(0)
    A = m.algebra
    F = A.field
    big, injs, _ = direct_sum([T, p0])
    glue = ModuleMap(
        fbar.source,
        big,
        fbar.mat.hstack(-ker_incl.mat),
    )
    e_mod, coker_proj = cokernel(glue)
    incl = injs[0].then(coker_proj)
    # E -> M: descend (t, p) |-> aug(p); solve through the cokernel projection
    lifted = coker_proj.mat.solve_right(
        Matrix.zero(F, T.dim, m.dim).stack(res.augmentation.mat)
    )
    ses = ShortExactSequence(incl, ModuleMap(e_mod, m, lifted))
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


class UniversalExtension(NamedTuple):
    multiplicities: tuple[int, ...]
    middle: RightModule  # E in 0 -> sum of B_i^{d_i} -> E -> M -> 0


def universal_extension(m: RightModule, targets: list[RightModule]) -> UniversalExtension:
    """Extension of m by each B_i^{dim Ext^1(m, B_i)} killing the connecting classes.

    Each target must have a local endomorphism ring; under the split
    assumption it is enough that it has a simple top (or is itself simple),
    which is what gets checked.  The induced maps
    Hom(sum B_i^{d_i}, B_j) -> Ext^1(m, B_j) are surjective; asserted.
    """
    A = m.algebra
    F = A.field
    for b in targets:
        if b.dim == 0:
            raise ValueError("zero module is not a valid extension target")
        if b.dim > 1 and top(b)[0].dim != 1 and len(hom_basis(b, b)) != 1:
            raise ValueError("extension target lacks a local endomorphism ring certificate")
    spaces = [ext(m, b, 1) for b in targets]
    mults = tuple(s.dim for s in spaces)
    if all(d == 0 for d in mults):
        return UniversalExtension(multiplicities=mults, middle=m)

    res = projective_resolution(m, 2)
    epi, ker_incl = _kernel_epi(res)
    fbars: list[ModuleMap] = []
    blocks: list[RightModule] = []
    for b, space in zip(targets, spaces):
        for cls in space.classes:
            fbars.append(_cocycle_to_kernel_map(epi, cls.cocycle))
            blocks.append(b)
    T, injs, projs = direct_sum(blocks)
    stacked = None
    for fb, inj in zip(fbars, injs):
        piece = fb.then(inj)
        stacked = piece if stacked is None else stacked + piece
    ses = _pushout_extension(res, stacked, ker_incl)

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
