"""Recollements of abelian categories, concretely and generically.

``make_idempotent_recollement`` builds the six-functor package attached to
an idempotent e = sum of vertex idempotents of a split basic algebra A:

    mod-(A/AeA)  --embed-->  mod-A  --restrict-->  mod-(eAe)

with (i_left -| i_embed -| i_right) and (j_lower -| j_restrict -| j_roof)
adjoint triples:

    i_embed     restriction of scalars along A ->> A/AeA
    i_left      M |-> M/(M e A)              (largest quotient killed by e)
    i_right     M |-> {m : m e A = 0}        (largest submodule killed by e)
    j_restrict  M |-> M e                     over the corner algebra eAe
    j_lower     X |-> X (x)_{eAe} eA
    j_roof      X |-> Hom_{eAe}(Ae, X)

``verify_recollement`` and ``intermediate_extension`` are generic: they
only use the category interface, so the Macpherson-Vilonen instance reuses
them unchanged.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Sequence

from .algebra import Algebra, CornerData, QuotientData, corner_algebra, quotient_by_idempotent_ideal
from .category import (
    Functor,
    ModuleCategory,
    exact_at,
    is_isomorphic,
    solve_in_hom,
)
from .linalg import InvariantError, Matrix, Subspace, Value
from .modules import (
    Bimodule,
    ModuleMap,
    RightModule,
    corner_bimodules,
    quotient_module,
    restrict_scalars,
    side_by_side,
    submodule,
    times,
)


class Recollement(Value, frozen=False):
    """Six functors plus the unit/counit components of both adjoint triples.

    Unit/counit naming: for an adjunction (L -| R), ``unit``: id -> R L and
    ``counit``: L R -> id.  Here:

    * ``unit_quot(X): X -> i_embed(i_left(X))``   [(i_left -| i_embed) unit]
    * ``counit_quot(Z): i_left(i_embed(Z)) -> Z``
    * ``unit_sub(Z): Z -> i_right(i_embed(Z))``   [(i_embed -| i_right) unit]
    * ``counit_sub(X): i_embed(i_right(X)) -> X``
    * ``unit_jl(U): U -> j_restrict(j_lower(U))`` [(j_lower -| j_restrict) unit]
    * ``counit_jl(X): j_lower(j_restrict(X)) -> X``
    * ``unit_jr(X): X -> j_roof(j_restrict(X))``  [(j_restrict -| j_roof) unit]
    * ``counit_jr(U): j_restrict(j_roof(U)) -> U``
    """

    cat_z: object
    cat_c: object
    cat_u: object
    i_embed: Functor
    i_left: Functor
    i_right: Functor
    j_restrict: Functor
    j_lower: Functor
    j_roof: Functor
    unit_quot: Callable
    counit_quot: Callable
    unit_sub: Callable
    counit_sub: Callable
    unit_jl: Callable
    counit_jl: Callable
    unit_jr: Callable
    counit_jr: Callable
    label: str = ""
    degenerate: str | None = None  # "zero-U" (e=0) or "zero-Z" (e=1)
    data: IdempotentRecollementData | None = None  # None for the glued recollement

    def __post_init__(self) -> None:
        # reports of ``verify`` by sample tuple; no field, so a ``_replace``
        # copy starts with none and is verified afresh
        self.reports = {}

    def verify(self, samples: Sequence[tuple[str, object]]) -> RecollementReport:
        """``verify_recollement`` on ``samples``, run once per sample tuple
        and kept on this object."""
        key = tuple(samples)
        if key not in self.reports:
            self.reports[key] = verify_recollement(self, samples)
        return self.reports[key]


class IdempotentRecollementData(Value):
    vertices: tuple[str, ...]
    e: tuple
    corner: CornerData  # eAe, the zero algebra when e = 0
    quotient: QuotientData  # A/AeA
    e_a: Matrix  # basis rows of eA inside A
    a_e: Matrix  # basis rows of Ae inside A
    ea: Bimodule  # eA over (eAe, A), on the basis e_a
    ae: Bimodule  # Ae over (A, eAe), on the basis a_e


def idempotent_recollement_data(a: Algebra, vertices: Sequence[str]) -> IdempotentRecollementData:
    vs = tuple(vertices)
    if any(v not in a.vertex_names for v in vs) or len(set(vs)) != len(vs):
        raise ValueError(f"not a vertex subset: {vertices!r}")
    e = a.idempotent_sum(vs)
    corner = corner_algebra(a, vs)
    e_a = a.left_mult_matrix(e).row_space().basis
    a_e = a.right_mult_matrix(e).row_space().basis
    ea, ae = corner_bimodules(a, corner.algebra, corner.embed, e_a, a_e)
    return IdempotentRecollementData(
        vertices=vs, e=e, corner=corner, quotient=quotient_by_idempotent_ideal(a, vs, a_e, e_a),
        e_a=e_a, a_e=a_e, ea=ea, ae=ae,
    )


def make_idempotent_recollement(a: Algebra, vertices: Sequence[str]) -> Recollement:
    """The recollement of mod-A defined by e = sum of the given vertex
    idempotents, built once per vertex tuple while a caller holds it:
    ``a.cache`` keeps it weakly, so a battery that builds one after another
    holds one at a time."""
    key = ("recollement", tuple(vertices))
    kept = a.cache[key]() if key in a.cache else None
    if kept is not None:
        return kept
    data = idempotent_recollement_data(a, vertices)
    F = a.field
    e = data.e
    quot = data.quotient
    q_alg = quot.algebra
    gamma = data.corner.algebra

    cat_c = ModuleCategory(a)
    cat_z = ModuleCategory(q_alg)
    cat_u = ModuleCategory(gamma)

    degenerate = None
    if not data.vertices:
        degenerate = "zero-U"
    elif len(data.vertices) == len(a.vertex_names):
        degenerate = "zero-Z"

    de, na = data.e_a.rows, data.a_e.rows

    # e as a 1 x de row over the basis of eA, and as a 1 x na row over Ae
    e_row = Matrix(F, 1, a.dim, e)
    e_in_ea = data.e_a.solve_left(e_row)
    e_in_ae = data.a_e.solve_left(e_row)
    # j_lower = - (x)_Gamma eA and j_roof = Hom_Gamma(Ae, -)
    tensor = data.ea.tensor_functor()
    hom = data.ae.hom_functor()

    # ---- object/morphism constructions: each object map restricts scalars
    # along an algebra map (or a section or corner embedding, on the
    # subquotient where it is one)

    @functools.cache
    def restrict_space(m: RightModule) -> Subspace:
        return times(m, e_row)  # M e

    @functools.cache
    def j_restrict_obj(m: RightModule) -> RightModule:
        return submodule(restrict_scalars(m, gamma, data.corner.embed), restrict_space(m))[0]

    def j_restrict_mor(f: ModuleMap) -> ModuleMap:
        BM = restrict_space(f.source).basis
        BN = restrict_space(f.target).basis
        return ModuleMap(j_restrict_obj(f.source), j_restrict_obj(f.target), BN.solve_left(BM @ f.mat))

    @functools.cache
    def i_embed_obj(z: RightModule) -> RightModule:
        return restrict_scalars(z, a, quot.projection)

    def i_embed_mor(f: ModuleMap) -> ModuleMap:
        return ModuleMap(i_embed_obj(f.source), i_embed_obj(f.target), f.mat)

    @functools.cache
    def killed_space(m: RightModule) -> Subspace:
        return times(m, data.e_a)  # M e A

    @functools.cache
    def over_quotient(m: RightModule) -> RightModule:
        return restrict_scalars(m, q_alg, quot.section)  # a module on M/MeA and on {v : v A e = 0}

    @functools.cache
    def i_left_obj(m: RightModule) -> RightModule:
        return quotient_module(over_quotient(m), killed_space(m))[0]

    def i_left_mor(f: ModuleMap) -> ModuleMap:
        WM, WN = killed_space(f.source), killed_space(f.target)
        _, secM = WM.quotient_maps()
        projN, _ = WN.quotient_maps()
        return ModuleMap(i_left_obj(f.source), i_left_obj(f.target), secM @ f.mat @ projN)

    @functools.cache
    def ae_actions(m: RightModule) -> Matrix:
        return side_by_side(m, data.a_e)  # row i is v_i * (Ae row t) over t

    @functools.cache
    def sub_space(m: RightModule) -> Subspace:
        return ae_actions(m).left_kernel()  # {v : v A e = 0}, annihilator(m, data.a_e)

    @functools.cache
    def i_right_obj(m: RightModule) -> RightModule:
        return submodule(over_quotient(m), sub_space(m))[0]

    def i_right_mor(f: ModuleMap) -> ModuleMap:
        BM = sub_space(f.source).basis
        BN = sub_space(f.target).basis
        return ModuleMap(i_right_obj(f.source), i_right_obj(f.target), BN.solve_left(BM @ f.mat))

    # ---- units and counits -------------------------------------------------

    def unit_quot(m: RightModule) -> ModuleMap:
        projW, _ = killed_space(m).quotient_maps()
        return ModuleMap(m, i_embed_obj(i_left_obj(m)), projW)

    def counit_quot(z: RightModule) -> ModuleMap:
        src = i_left_obj(i_embed_obj(z))
        if src != z:
            raise InvariantError("i_left . i_embed is not the identity on the nose")
        return ModuleMap(src, z, Matrix.identity(F, z.dim))

    def unit_sub(z: RightModule) -> ModuleMap:
        tgt = i_right_obj(i_embed_obj(z))
        if tgt != z:
            raise InvariantError("i_right . i_embed is not the identity on the nose")
        return ModuleMap(z, tgt, Matrix.identity(F, z.dim))

    def counit_sub(m: RightModule) -> ModuleMap:
        S = sub_space(m)
        return ModuleMap(i_embed_obj(i_right_obj(m)), m, S.basis)

    def unit_jl(x: RightModule) -> ModuleMap:
        # x |-> class(x (x) e) inside (j_lower x) e
        tgt_parent = tensor.obj(x)
        projT, _ = tensor.relations(x).quotient_maps()
        down = Matrix.identity(F, x.dim).kron(e_in_ea) @ projT
        return ModuleMap(x, j_restrict_obj(tgt_parent), restrict_space(tgt_parent).basis.solve_left(down))

    def counit_jl(m: RightModule) -> ModuleMap:
        # class(v (x) m_j) |-> v * m_j
        src_u = j_restrict_obj(m)
        BM = restrict_space(m).basis
        dx = src_u.dim
        # row i of BM times the actions of eA side by side is the rows (i, t)
        big = Matrix(F, dx * de, m.dim, (BM @ side_by_side(m, data.e_a)).entries)
        W = tensor.relations(src_u)
        if not (W.basis @ big).is_zero:
            raise InvariantError("counit not well defined on the tensor quotient")
        _, secT = W.quotient_maps()
        return ModuleMap(tensor.obj(src_u), m, secT @ big)

    def unit_jr(m: RightModule) -> ModuleMap:
        # m |-> (ae |-> m*(ae)) in Hom_Gamma(Ae, Me)
        mu = j_restrict_obj(m)
        # row (i, t) is e_i * (Ae row t), written in the basis of M e by one solve
        rows = ae_actions(m).entries
        coords = restrict_space(m).basis.solve_left(Matrix(F, m.dim * na, m.dim, rows))
        return ModuleMap(m, hom.obj(mu), hom.coords(mu, Matrix(F, m.dim, na * mu.dim, coords.entries)))

    def counit_jr(x: RightModule) -> ModuleMap:
        # phi |-> phi(e): the values at e of the basis maps, one product of
        # their flattened stack with e (x) I, combined by the coordinates of
        # each basis vector of (j_roof x) e
        roof = hom.obj(x)
        values = hom.basis(x) @ Matrix(F, na, 1, e_in_ae.entries).kron(Matrix.identity(F, x.dim))
        return ModuleMap(j_restrict_obj(roof), x, restrict_space(roof).basis @ values)

    label = f"e=({'+'.join(data.vertices) if data.vertices else '0'}) in {'x'.join(a.vertex_names)}"
    r = Recollement(
        cat_z=cat_z,
        cat_c=cat_c,
        cat_u=cat_u,
        i_embed=Functor(i_embed_obj, i_embed_mor),
        i_left=Functor(i_left_obj, i_left_mor),
        i_right=Functor(i_right_obj, i_right_mor),
        j_restrict=Functor(j_restrict_obj, j_restrict_mor),
        j_lower=Functor(tensor.obj, tensor.mor),
        j_roof=Functor(hom.obj, hom.mor),
        unit_quot=unit_quot,
        counit_quot=counit_quot,
        unit_sub=unit_sub,
        counit_sub=counit_sub,
        unit_jl=unit_jl,
        counit_jl=counit_jl,
        unit_jr=unit_jr,
        counit_jr=counit_jr,
        label=label,
        degenerate=degenerate,
        data=data,
    )
    a.cache[key] = weakref.ref(r)
    return r


# ---------------------------------------------------------------------------
# generic verification and derived constructions


class CheckResult(Value):
    axiom: str
    subject: str
    ok: bool
    note: str = ""

    def __init__(self, axiom: str, subject: str, ok: bool, note: str = "") -> None:
        # spelled out: built thousands of times a run, at half the generic cost
        self.__dict__.update(axiom=axiom, subject=subject, ok=ok, note=note)


class RecollementReport(Value):
    label: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]


def _is_identity_on(f, x) -> bool:
    """Whether the morphism f is the identity of the object x."""
    return f.source == x and f.is_identity


def verify_recollement(r: Recollement, center_samples: Sequence[tuple[str, object]]) -> RecollementReport:
    """Check (R1)-(R4) on the given sample objects.

    The axioms quantify over all objects; this runs them on a finite sample
    list (named in the report).  The Z/U samples are the images of the
    center samples under i_left and j_restrict.  Each unit and counit is
    computed once per object for this verification: several axioms read
    the same component, and a component that raises is not cached, so it
    raises in every check that reads it.  Each axiom runs once per distinct
    object of each sample list: the functors are deterministic, so samples
    with equal values share its answer, and each keeps its own row.
    """
    r = r._replace(**{name: functools.cache(getattr(r, name)) for name in (
        "unit_quot", "counit_quot", "unit_sub", "counit_sub",
        "unit_jl", "counit_jl", "unit_jr", "counit_jr")})
    out: list[CheckResult] = []
    z_samples = [(f"i_left({n})", r.i_left(x)) for n, x in center_samples]
    u_samples = [(f"j_restrict({n})", r.j_restrict(x)) for n, x in center_samples]

    answers: dict = {}  # (side, axiom, object) -> (ok, note)

    def record(side, axiom, subject, x, check, note=""):
        # ``side`` (C, Z or U) names the sample list: when e is 0 or 1 an
        # object of Z or U can equal one of C, and the same axiom name is
        # then a different check there
        key = (side, axiom, x)
        if key not in answers:
            # a corrupted functor package may fail to even typecheck; that is
            # a check failure, not a crash of the verifier
            try:
                answers[key] = (bool(check(x)), note)
            except Exception as exc:  # noqa: BLE001
                answers[key] = (False, f"raised {type(exc).__name__}: {exc}")
        out.append(CheckResult(axiom, subject, *answers[key]))

    # (R1) triangle identities, 2 per adjunction
    for name, x in center_samples:
        record("C", "R1:i_left-|i_embed", name, x, lambda x: _is_identity_on(
            r.i_left.map(r.unit_quot(x)).then(r.counit_quot(r.i_left(x))), r.i_left(x)))
        record("C", "R1:i_embed-|i_right", name, x, lambda x: _is_identity_on(
            r.unit_sub(r.i_right(x)).then(r.i_right.map(r.counit_sub(x))), r.i_right(x)))
        record("C", "R1:j_lower-|j_restrict", name, x, lambda x: _is_identity_on(
            r.unit_jl(r.j_restrict(x)).then(r.j_restrict.map(r.counit_jl(x))), r.j_restrict(x)))
        record("C", "R1:j_restrict-|j_roof", name, x, lambda x: _is_identity_on(
            r.j_restrict.map(r.unit_jr(x)).then(r.counit_jr(r.j_restrict(x))), r.j_restrict(x)))
    for name, z in z_samples:
        record("Z", "R1:i_left-|i_embed", name, z, lambda z: _is_identity_on(
            r.unit_quot(r.i_embed(z)).then(r.i_embed.map(r.counit_quot(z))), r.i_embed(z)))
        record("Z", "R1:i_embed-|i_right", name, z, lambda z: _is_identity_on(
            r.i_embed.map(r.unit_sub(z)).then(r.counit_sub(r.i_embed(z))), r.i_embed(z)))
    for name, u in u_samples:
        record("U", "R1:j_lower-|j_restrict", name, u, lambda u: _is_identity_on(
            r.j_lower.map(r.unit_jl(u)).then(r.counit_jl(r.j_lower(u))), r.j_lower(u)))
        record("U", "R1:j_restrict-|j_roof", name, u, lambda u: _is_identity_on(
            r.unit_jr(r.j_roof(u)).then(r.j_roof.map(r.counit_jr(u))), r.j_roof(u)))

    # (R2) fully faithful embeddings via unit/counit isomorphisms
    for name, z in z_samples:
        record("Z", "R2:i_left.i_embed=id", name, z, lambda z: r.counit_quot(z).is_isomorphism())
        record("Z", "R2:i_right.i_embed=id", name, z, lambda z: r.unit_sub(z).is_isomorphism())
    for name, u in u_samples:
        record("U", "R2:j_restrict.j_lower=id", name, u, lambda u: r.unit_jl(u).is_isomorphism())
        record("U", "R2:j_restrict.j_roof=id", name, u, lambda u: r.counit_jr(u).is_isomorphism())

    # (R3) j_restrict i_embed = 0 and the adjoint consequences
    for name, z in z_samples:
        record("Z", "R3:j_restrict.i_embed=0", name, z, lambda z: r.j_restrict(r.i_embed(z)).dim == 0)
    for name, u in u_samples:
        record("U", "R3:i_left.j_lower=0", name, u, lambda u: r.i_left(r.j_lower(u)).dim == 0)
        record("U", "R3:i_right.j_roof=0", name, u, lambda u: r.i_right(r.j_roof(u)).dim == 0)

    # (R4) the two adjunction exact sequences, with end conditions
    def seq1(x):
        eps = r.counit_jl(x)  # j_lower j_restrict X -> X
        eta = r.unit_quot(x)  # X -> i_embed i_left X
        return exact_at(eps, eta, epi=True)

    def kin(x):
        k_obj, _ = r.cat_c.kernel(r.counit_jl(x))
        return r.j_restrict(k_obj).dim == 0

    def seq2(x):
        mu = r.counit_sub(x)  # i_embed i_right X -> X
        nu = r.unit_jr(x)     # X -> j_roof j_restrict X
        return exact_at(mu, nu, mono=True)

    def kout(x):
        c_obj, _ = r.cat_c.cokernel(r.unit_jr(x))
        return r.j_restrict(c_obj).dim == 0

    for name, x in center_samples:
        record("C", "R4:jl->X->il->0", name, x, seq1)
        record("C", "R4:K in image(i_embed)", name, x, kin, "kernel of the counit is killed by j_restrict")
        record("C", "R4:0->ir->X->jr", name, x, seq2)
        record("C", "R4:K' in image(i_embed)", name, x, kout, "cokernel of the unit is killed by j_restrict")
    return RecollementReport(label=r.label, results=tuple(out))


class IntermediateExtension(Value):
    obj: object                 # the image j_!* x in the center category
    from_lower: object          # epi  j_lower(x) ->> j_!* x
    into_roof: object           # mono j_!* x -> j_roof(x)


def intermediate_extension(r: Recollement, x) -> IntermediateExtension:
    """Image of the canonical map j_lower(x) -> j_roof(x).

    The canonical map is the adjoint transpose of the identity: invert the
    counit j_restrict(j_roof(x)) -> x, transpose along (j_lower -| j_restrict).
    Raises ``InvariantError`` unless i_left/i_right kill the image and
    j_restrict returns x.
    """
    cat = r.cat_c
    counit = r.counit_jr(x)  # j_restrict(j_roof x) -> x, an iso by (R2)
    inv = solve_in_hom(r.cat_u, x, counit.source, lambda g: g.then(counit), r.cat_u.identity(x))
    if not (_is_identity_on(inv.then(counit), x) and _is_identity_on(counit.then(inv), counit.source)):
        raise InvariantError("the counit j_restrict j_roof x -> x has no two-sided inverse")
    canon = r.j_lower.map(inv).then(r.counit_jl(r.j_roof(x)))
    img, epi, mono = cat.image(canon)
    if r.i_left(img).dim != 0:
        raise InvariantError("intermediate extension has a Z quotient")
    if r.i_right(img).dim != 0:
        raise InvariantError("intermediate extension has a Z subobject")
    if not is_isomorphic(r.cat_u, r.j_restrict(img), x).isomorphic:
        raise InvariantError("j_restrict does not recover the argument")
    return IntermediateExtension(obj=img, from_lower=epi, into_roof=mono)
