"""The Macpherson-Vilonen gluing of two module categories.

Input: algebras R (the closed side) and S (the open side), an (S, R)
bimodule M realizing the right exact functor F = (-) (x)_S M, an (R, S)
bimodule N realizing the left exact functor G = Hom_S(N, -), and a pairing
theta: M (x)_R N -> S.  The pairing induces the natural transformation

    eps_X : F(X) -> G(X),    eps_X(x (x) m)(n) = x . theta(m (x) n),

and the glued category has objects (X_U, X_Z, alpha, beta) with
beta . alpha = eps_{X_U}.  ``MVCategory`` holds F and G (``cat.F``,
``cat.G``) and computes eps (``cat.eps(x)``).  Kernels and cokernels are
componentwise with induced connecting maps (G preserves the kernels, F the
cokernels).  The category implements the same computable-category surface
as module categories, so the generic recollement machinery runs on it
unchanged; its recollement's center category ``r.cat_c`` is the
``MVCategory``.
"""

from __future__ import annotations

import functools

from .algebra import Algebra, build_bound_quiver_algebra, opposite
from .linalg import InvariantError, Matrix, Value
from .modules import (
    Bimodule,
    ModuleMap,
    RankPredicates,
    RightModule,
    combine,
    identity_map,
    side_by_side,
    validate_bimodule,
    zero_map,
    zero_module,
)
from .modules import cokernel as module_cokernel
from .modules import hom_basis as module_hom
from .modules import image as module_image
from .modules import kernel as module_kernel
from .recollement import Recollement
from .category import Functor, ModuleCategory


class MVDataError(ValueError):
    pass


class MVData(Value):
    z_algebra: Algebra   # R
    u_algebra: Algebra   # S
    m: Bimodule          # left S, right R
    n: Bimodule          # left R, right S
    theta: Matrix        # (dim m * dim n) x dim S

    def __post_init__(self):
        if self.m.left_algebra != self.u_algebra or self.m.right_algebra != self.z_algebra:
            raise MVDataError("m must be a (u_algebra, z_algebra)-bimodule")
        if self.n.left_algebra != self.z_algebra or self.n.right_algebra != self.u_algebra:
            raise MVDataError("n must be a (z_algebra, u_algebra)-bimodule")
        if self.theta.rows != self.m.dim * self.n.dim or self.theta.cols != self.u_algebra.dim:
            raise MVDataError("theta has the wrong shape")
        validate_mv_data(self)


def validate_mv_data(d: MVData) -> None:
    """Bimodule axioms, balance of theta over R, and S-S equivariance.

    theta sends u (x) w to (u kron w) @ theta, so each axiom compares two
    matrices whose row i * dim N + j is the value on m_i (x) n_j.
    """
    validate_bimodule(d.m)
    validate_bimodule(d.n)
    F, S, theta = d.u_algebra.field, d.u_algebra, d.theta
    id_m, id_n = Matrix.identity(F, d.m.dim), Matrix.identity(F, d.n.dim)
    for r in range(d.z_algebra.dim):
        if d.m.right.block(r).kron(id_n) @ theta != id_m.kron(d.n.left.block(r)) @ theta:
            raise MVDataError("theta is not balanced over the closed-side algebra")
    for s in range(S.dim):
        sv = S.basis_vec(s)
        if d.m.left.block(s).kron(id_n) @ theta != theta @ S.left_mult_matrix(sv):
            raise MVDataError("theta is not left equivariant")
        if id_m.kron(d.n.right.block(s)) @ theta != theta @ S.right_mult_matrix(sv):
            raise MVDataError("theta is not right equivariant")


# ---------------------------------------------------------------------------
# objects, morphisms, category


class MVObject(Value):
    x_u: RightModule
    x_z: RightModule
    alpha: ModuleMap  # F(x_u) -> x_z
    beta: ModuleMap   # x_z -> G(x_u)

    @property
    def dim(self) -> int:
        return self.x_u.dim + self.x_z.dim


class MVMorphism(Value, RankPredicates):
    source: MVObject
    target: MVObject
    f_u: ModuleMap
    f_z: ModuleMap

    def then(self, other: "MVMorphism") -> "MVMorphism":
        if self.target != other.source:
            raise ValueError("maps not composable")
        return MVMorphism(self.source, other.target, self.f_u.then(other.f_u), self.f_z.then(other.f_z))

    def __add__(self, other: "MVMorphism") -> "MVMorphism":
        self._same_ends(other)
        return MVMorphism(self.source, self.target, self.f_u + other.f_u, self.f_z + other.f_z)

    def __sub__(self, other: "MVMorphism") -> "MVMorphism":
        self._same_ends(other)
        return MVMorphism(self.source, self.target, self.f_u - other.f_u, self.f_z - other.f_z)

    def scale(self, c) -> "MVMorphism":
        return MVMorphism(self.source, self.target, self.f_u.scale(c), self.f_z.scale(c))

    @property
    def is_zero(self) -> bool:
        return self.f_u.is_zero and self.f_z.is_zero

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.f_u.mat.is_identity and self.f_z.mat.is_identity

    def rank(self) -> int:
        return self.f_u.rank() + self.f_z.rank()


class MVCategory:
    """The glued abelian category, as a computable category handle, with
    the functors F = (-) (x)_S M and G = Hom_S(N, -) and the natural
    transformation eps: F -> G from theta that it glues along."""

    def __init__(self, data: MVData):
        self.data = data
        self.field = data.u_algebra.field
        self.cat_u = ModuleCategory(data.u_algebra)
        self.cat_z = ModuleCategory(data.z_algebra)
        self.F = data.m.tensor_functor()
        self.G = data.n.hom_functor()

    def eps(self, x: RightModule) -> ModuleMap:
        d = self.data
        F = self.field
        dx, dm, dn = x.dim, d.m.dim, d.n.dim
        # theta's row j * dn + t is theta(m_j (x) n_t), acting on x; row i of
        # their actions side by side holds the matrices (i, j), one after another
        v_mat_rows = self.G.coords(x, Matrix(F, dx * dm, dn * dx, side_by_side(x, d.theta).entries))
        W = self.F.relations(x)
        if not (W.basis @ v_mat_rows).is_zero:
            raise InvariantError("eps not well defined on the tensor quotient")
        _, secT = W.quotient_maps()
        return ModuleMap(self.F.obj(x), self.G.obj(x), secT @ v_mat_rows)

    # object helpers --------------------------------------------------------

    def make_object(self, x_u, x_z, alpha, beta) -> MVObject:
        if not (alpha.then(beta) - self.eps(x_u)).is_zero:
            raise MVDataError("beta . alpha differs from eps: not a glued object")
        return MVObject(x_u, x_z, alpha, beta)

    # morphisms ---------------------------------------------------------------

    def identity(self, x: MVObject) -> MVMorphism:
        return MVMorphism(x, x, identity_map(x.x_u), identity_map(x.x_z))

    def zero_mor(self, x: MVObject, y: MVObject) -> MVMorphism:
        return MVMorphism(x, y, zero_map(x.x_u, y.x_u), zero_map(x.x_z, y.x_z))

    def invariant(self, x: MVObject) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return x.x_u.vertex_dims(), x.x_z.vertex_dims()

    def local(self, x: MVObject) -> bool:
        """End(x) = k, a local ring: one hom basis element, the identity's span."""
        return len(self.hom_basis(x, x)) == 1

    def mor_coords(self, f: MVMorphism) -> tuple:
        return f.f_u.mat.entries + f.f_z.mat.entries

    def hom_basis(self, x: MVObject, y: MVObject) -> list[MVMorphism]:
        hu = module_hom(x.x_u, y.x_u)
        hz = module_hom(x.x_z, y.x_z)
        nu, nz = len(hu), len(hz)
        if nu + nz == 0:
            return []
        F = self.field
        # prism defect is linear in (f_u, f_z); solve for its kernel
        rows = []
        for k in range(nu + nz):
            if k < nu:
                fu, fz = hu[k], None
                d1 = self.F.mor(fu).then(y.alpha)
                d2 = x.beta.then(self.G.mor(fu))
            else:
                fu, fz = None, hz[k - nu]
                d1 = x.alpha.then(fz).scale(-1)
                d2 = fz.then(y.beta).scale(-1)
            rows.append(d1.mat.entries + d2.mat.entries)
        ker = Matrix(F, len(rows), len(rows[0]), tuple(x for r in rows for x in r)).left_kernel()

        zu, zz = zero_map(x.x_u, y.x_u), zero_map(x.x_z, y.x_z)
        return [MVMorphism(x, y, combine(coeffs[:nu], hu, zu), combine(coeffs[nu:], hz, zz))
                for coeffs in ker.basis.row_list()]

    # kernels, cokernels, images ------------------------------------------------

    def _subobject(self, x: MVObject, m_u: ModuleMap, m_z: ModuleMap) -> MVObject:
        """The subobject of x on monos m_u into x_u and m_z into x_z: alpha
        restricts through m_z, beta corestricts through the mono G(m_u).
        A kernel's or an image's monos make both land; a solve raises if not."""
        a_mat = m_z.mat.solve_left(self.F.mor(m_u).then(x.alpha).mat)
        b_mat = self.G.mor(m_u).mat.solve_left(m_z.then(x.beta).mat)
        s_u, s_z = m_u.source, m_z.source
        return self.make_object(s_u, s_z, ModuleMap(self.F.obj(s_u), s_z, a_mat),
                                ModuleMap(s_z, self.G.obj(s_u), b_mat))

    def kernel(self, f: MVMorphism) -> tuple[MVObject, MVMorphism]:
        _, iu = module_kernel(f.f_u)
        _, iz = module_kernel(f.f_z)
        k_obj = self._subobject(f.source, iu, iz)
        return k_obj, MVMorphism(k_obj, f.source, iu, iz)

    def cokernel(self, f: MVMorphism) -> tuple[MVObject, MVMorphism]:
        """Componentwise, through the sections s_u, s_z of p_u, p_z: beta_c = s_z ; beta ; G(p_u),
        alpha_c = F(s_u) ; alpha ; p_z with F's morphism formula on the linear s_u, a right inverse
        of F(p_u) as p_u (x) I keeps X_u's relations in c_u's.  Both squares are checked."""
        x = f.target
        (cu, pu), (cz, pz) = module_cokernel(f.f_u), module_cokernel(f.f_z)
        s_u, s_z = (g.mat.row_space().quotient_maps()[1] for g in (f.f_u, f.f_z))
        alpha_c = ModuleMap(self.F.obj(cu), cz, self.F.mor(ModuleMap(cu, x.x_u, s_u)).mat @ x.alpha.mat @ pz.mat)
        g_pu = self.G.mor(pu).mat
        beta_c = ModuleMap(cz, self.G.obj(cu), s_z @ x.beta.mat @ g_pu)
        if self.F.mor(pu).mat @ alpha_c.mat != x.alpha.mat @ pz.mat or pz.mat @ beta_c.mat != x.beta.mat @ g_pu:
            raise InvariantError("the connecting maps do not descend to the cokernel")
        c_obj = self.make_object(cu, cz, alpha_c, beta_c)
        return c_obj, MVMorphism(x, c_obj, pu, pz)

    def image(self, f: MVMorphism) -> tuple[MVObject, MVMorphism, MVMorphism]:
        # F(e_u) is onto, so im(F(m_u) ; alpha) = im(alpha ; e_z ; m_z) lies in im m_z
        _, eu, mu = module_image(f.f_u)
        _, ez, mz = module_image(f.f_z)
        i_obj = self._subobject(f.target, mu, mz)
        return i_obj, MVMorphism(f.source, i_obj, eu, ez), MVMorphism(i_obj, f.target, mu, mz)


# ---------------------------------------------------------------------------
# the recollement


def mv_recollement(data: MVData) -> Recollement:
    cat = MVCategory(data)
    F = cat.field
    cat_z = cat.cat_z
    cat_u = cat.cat_u

    @functools.cache
    def i_embed_obj(z: RightModule) -> MVObject:
        zu = zero_module(data.u_algebra)
        fz = cat.F.obj(zu)
        gz = cat.G.obj(zu)
        return MVObject(
            zu, z,
            ModuleMap(fz, z, Matrix.zero(F, fz.dim, z.dim)),
            ModuleMap(z, gz, Matrix.zero(F, z.dim, gz.dim)),
        )

    def i_embed_mor(f: ModuleMap) -> MVMorphism:
        src, tgt = i_embed_obj(f.source), i_embed_obj(f.target)
        return MVMorphism(src, tgt, zero_map(src.x_u, tgt.x_u), f)

    @functools.cache
    def i_left_obj(x: MVObject) -> RightModule:
        return module_cokernel(x.alpha)[0]

    def i_left_mor(f: MVMorphism) -> ModuleMap:
        _, sec = f.source.alpha.mat.row_space().quotient_maps()
        c_tgt, p_tgt = module_cokernel(f.target.alpha)
        return ModuleMap(i_left_obj(f.source), c_tgt, sec @ f.f_z.mat @ p_tgt.mat)

    @functools.cache
    def i_right_obj(x: MVObject) -> RightModule:
        return module_kernel(x.beta)[0]

    def i_right_mor(f: MVMorphism) -> ModuleMap:
        k_src, i_src = module_kernel(f.source.beta)
        k_tgt, i_tgt = module_kernel(f.target.beta)
        return ModuleMap(k_src, k_tgt, i_tgt.mat.solve_left(i_src.then(f.f_z).mat))

    def j_restrict_obj(x: MVObject) -> RightModule:
        return x.x_u

    def j_restrict_mor(f: MVMorphism) -> ModuleMap:
        return f.f_u

    @functools.cache
    def j_lower_obj(u: RightModule) -> MVObject:
        fu = cat.F.obj(u)
        return MVObject(u, fu, identity_map(fu), cat.eps(u))

    def j_lower_mor(f: ModuleMap) -> MVMorphism:
        return MVMorphism(j_lower_obj(f.source), j_lower_obj(f.target), f, cat.F.mor(f))

    @functools.cache
    def j_roof_obj(u: RightModule) -> MVObject:
        gu = cat.G.obj(u)
        return MVObject(u, gu, cat.eps(u), identity_map(gu))

    def j_roof_mor(f: ModuleMap) -> MVMorphism:
        return MVMorphism(j_roof_obj(f.source), j_roof_obj(f.target), f, cat.G.mor(f))

    # units and counits (all componentwise canonical)
    def unit_quot(x: MVObject) -> MVMorphism:
        c, p = module_cokernel(x.alpha)
        return MVMorphism(x, i_embed_obj(c), zero_map(x.x_u, zero_module(data.u_algebra)), p)

    def counit_quot(z: RightModule) -> ModuleMap:
        if i_left_obj(i_embed_obj(z)) != z:
            raise InvariantError("i_left i_embed z differs from z")
        return identity_map(z)

    def unit_sub(z: RightModule) -> ModuleMap:
        if i_right_obj(i_embed_obj(z)) != z:
            raise InvariantError("i_right i_embed z differs from z")
        return identity_map(z)

    def counit_sub(x: MVObject) -> MVMorphism:
        k, i = module_kernel(x.beta)
        return MVMorphism(i_embed_obj(k), x, zero_map(zero_module(data.u_algebra), x.x_u), i)

    def unit_jl(u: RightModule) -> ModuleMap:
        if j_restrict_obj(j_lower_obj(u)) != u:
            raise InvariantError("j_restrict j_lower u differs from u")
        return identity_map(u)

    def counit_jl(x: MVObject) -> MVMorphism:
        return MVMorphism(j_lower_obj(x.x_u), x, identity_map(x.x_u), x.alpha)

    def unit_jr(x: MVObject) -> MVMorphism:
        return MVMorphism(x, j_roof_obj(x.x_u), identity_map(x.x_u), x.beta)

    def counit_jr(u: RightModule) -> ModuleMap:
        if j_restrict_obj(j_roof_obj(u)) != u:
            raise InvariantError("j_restrict j_roof u differs from u")
        return identity_map(u)

    return Recollement(
        cat_z=cat_z,
        cat_c=cat,
        cat_u=cat_u,
        i_embed=Functor(i_embed_obj, i_embed_mor),
        i_left=Functor(i_left_obj, i_left_mor),
        i_right=Functor(i_right_obj, i_right_mor),
        j_restrict=Functor(j_restrict_obj, j_restrict_mor),
        j_lower=Functor(j_lower_obj, j_lower_mor),
        j_roof=Functor(j_roof_obj, j_roof_mor),
        unit_quot=unit_quot,
        counit_quot=counit_quot,
        unit_sub=unit_sub,
        counit_sub=counit_sub,
        unit_jl=unit_jl,
        counit_jl=counit_jl,
        unit_jr=unit_jr,
        counit_jr=counit_jr,
        label="Macpherson-Vilonen gluing",
    )


def mv_intermediate_table(cat: MVCategory, u: RightModule) -> MVObject:
    """j_!* by the closed formula: (X_U, im eps, corestricted eps, inclusion)."""
    eps = cat.eps(u)
    img, epi, mono = module_image(eps)
    return cat.make_object(u, img, epi, mono)


def mv_data_from_spec(spec, field) -> MVData:
    """Build MVData from the parsed file block (see specfile.MVSpec)."""
    z_alg = build_bound_quiver_algebra(spec.z_presentation, field)
    u_alg = build_bound_quiver_algebra(spec.u_presentation, field)

    def build_bimodule(bspec, left_alg, right_alg) -> Bimodule:
        dim = bspec.dim

        def action(raw: dict, alg: Algebra, which: str) -> RightModule:
            out = []
            for label in alg.basis_labels:
                if label not in raw:
                    raise MVDataError(f"missing {which} action matrix for basis element {label}")
                rows = raw[label]
                if len(rows) != dim:
                    raise MVDataError(f"{which} action for {label}: expected {dim} rows")
                out.extend(Matrix.from_rows(field, rows, cols=dim).entries)
            unknown = set(raw) - set(alg.basis_labels)
            if unknown:
                raise MVDataError(f"{which} action names unknown basis elements {sorted(unknown)}")
            return RightModule(alg, dim, Matrix(field, alg.dim * dim, dim, tuple(out)))

        # the left action is a right module over the opposite algebra
        return Bimodule(left_alg, right_alg, dim, action(bspec.left, opposite(left_alg), "left"),
                        action(bspec.right, right_alg, "right"))

    m = build_bimodule(spec.m, u_alg, z_alg)
    n = build_bimodule(spec.n, z_alg, u_alg)
    theta_rows = spec.theta
    if len(theta_rows) != m.dim * n.dim:
        raise MVDataError(f"theta: expected {m.dim * n.dim} rows, got {len(theta_rows)}")
    theta = Matrix.from_rows(field, theta_rows, cols=u_alg.dim)
    return MVData(z_algebra=z_alg, u_algebra=u_alg, m=m, n=n, theta=theta)
