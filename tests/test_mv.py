import itertools
import json
import random
import subprocess
import sys

import pytest

from stratakit.category import is_isomorphic, solve_in_hom
from stratakit.corpus import fixture_bytes
from stratakit.linalg import Matrix, UndecidedIsomorphism
from stratakit.modules import ModuleMap, simple_module
from stratakit.mv import (
    MVCategory,
    MVDataError,
    mv_data_from_spec,
    mv_intermediate_table,
    mv_recollement,
)
from stratakit.recollement import intermediate_extension, verify_recollement
from stratakit.specfile import parse_spec

from oracles import mv_cokernel_by_solve, mv_i_left_mor_by_solve, mv_subobject_pairs
from support import load_fixture, mv_direct_sum

MV_FIXTURES = ["FIX-MV-ID", "FIX-MV-ZERO", "FIX-MV-PROD", "FIX-MV-PAIR"]


def data_of(fix):
    spec = load_fixture(fix)
    return mv_data_from_spec(spec.mv, spec.field)


@pytest.fixture(scope="module")
def all_data():
    return {fix: data_of(fix) for fix in MV_FIXTURES}


def generating_objects(r, data):
    out = []
    for w in data.u_algebra.vertex_names:
        su = simple_module(data.u_algebra, w)
        out.append((f"j_lower(S_u({w}))", r.j_lower(su)))
        out.append((f"j_roof(S_u({w}))", r.j_roof(su)))
        out.append((f"j_!*(S_u({w}))", intermediate_extension(r, su).obj))
    for v in data.z_algebra.vertex_names:
        sz = simple_module(data.z_algebra, v)
        out.append((f"i_embed(S_z({v}))", r.i_embed(sz)))
    return out


def test_axioms_on_all_mv_fixtures(all_data):
    for fix, data in all_data.items():
        r = mv_recollement(data)
        rep = verify_recollement(r, generating_objects(r, data))
        assert rep.ok, (fix, rep.failures()[:4])


def test_theta_zero_table_values(all_data):
    data = all_data["FIX-MV-ZERO"]
    r = mv_recollement(data)
    k = simple_module(data.u_algebra, "1")
    jl = r.j_lower(k)
    jr = r.j_roof(k)
    assert (jl.x_u.dim, jl.x_z.dim) == (1, 1)
    assert (jr.x_u.dim, jr.x_z.dim) == (1, 1)
    ie = intermediate_extension(r, k)
    assert (ie.obj.x_u.dim, ie.obj.x_z.dim) == (1, 0)  # im eps = 0


def test_theta_id_intermediate_extension(all_data):
    data = all_data["FIX-MV-ID"]
    r = mv_recollement(data)
    k = simple_module(data.u_algebra, "1")
    ie = intermediate_extension(r, k)
    assert (ie.obj.x_u.dim, ie.obj.x_z.dim) == (1, 1)  # im eps = whole line


def test_product_category_when_bimodules_vanish(all_data):
    data = all_data["FIX-MV-PROD"]
    cat = MVCategory(data)
    r = mv_recollement(data)
    k = simple_module(data.u_algebra, "1")
    jl, jr = r.j_lower(k), r.j_roof(k)
    # with M = N = 0 everything is componentwise; both adjoints are plain pairs
    assert jl.x_z.dim == 0 and jr.x_z.dim == 0
    ok = is_isomorphic(cat, jl, jr).isomorphic
    assert ok


def test_closed_formula_matches_generic(all_data):
    for fix, data in all_data.items():
        r = mv_recollement(data)
        cat = r.cat_c
        for w in data.u_algebra.vertex_names:
            su = simple_module(data.u_algebra, w)
            generic = intermediate_extension(r, su).obj
            table = mv_intermediate_table(cat, su)
            ok = is_isomorphic(cat, generic, table).isomorphic
            assert ok, (fix, w)


def mv_simples(data):
    """All simples: the embedded closed-side simples plus the intermediate
    extensions of the open-side simples.  Simplicity and pairwise
    non-isomorphism are asserted."""
    r = mv_recollement(data)
    cat = r.cat_c
    out = []
    for v in data.z_algebra.vertex_names:
        obj = r.i_embed(simple_module(data.z_algebra, v))
        assert _mv_is_simple(cat, r, obj), f"embedded simple at {v} is not simple"
        out.append((f"i_embed(S_z({v}))", obj))

    for w in data.u_algebra.vertex_names:
        ie = intermediate_extension(r, simple_module(data.u_algebra, w))
        obj = ie.obj
        table = mv_intermediate_table(cat, simple_module(data.u_algebra, w))
        ok = is_isomorphic(cat, obj, table).isomorphic
        assert ok, "generic intermediate extension disagrees with the closed formula"
        assert _mv_is_simple(cat, r, obj), f"intermediate extension at {w} is not simple"
        out.append((f"j_!*(S_u({w}))", obj))
    for (n1, a), (n2, b) in itertools.combinations(out, 2):
        iso = is_isomorphic(cat, a, b).isomorphic
        assert not iso, f"simples {n1} and {n2} are isomorphic"
    return out


def _mv_is_simple(cat, r, t):
    """Simplicity through the recollement classification: either a simple
    closed-side object with zero open part, or a simple open restriction
    with t isomorphic to its intermediate extension."""
    if t.dim == 0:
        return False
    if t.x_u.dim == 0:
        return t.x_z.dim == 1  # split basic: simples are one-dimensional
    if t.x_u.dim != 1:
        return False
    ie = intermediate_extension(r, t.x_u)
    ok = is_isomorphic(cat, t, ie.obj).isomorphic
    return ok


def test_simples_classification(all_data):
    for fix, data in all_data.items():
        names = [n for n, _ in mv_simples(data)]
        assert len(names) == len(data.z_algebra.vertex_names) + len(data.u_algebra.vertex_names)


def test_simples_against_subobject_oracle(all_data):
    """Exhaustive subobject enumeration confirms simplicity on the tiny fixtures."""
    for fix, data in all_data.items():
        cat = MVCategory(data)
        for name, t in mv_simples(data):
            pairs = mv_subobject_pairs(cat, t)
            proper = [
                (wu, wz)
                for wu, wz in pairs
                if not (wu.dim == 0 and wz.dim == 0)
                and not (wu.dim == t.x_u.dim and wz.dim == t.x_z.dim)
            ]
            assert proper == [], (fix, name, [(wu.dim, wz.dim) for wu, wz in proper])


def test_exact_retraction_componentwise(all_data):
    """The closed-side retraction sends kernels/cokernels to kernels/cokernels."""
    rng = random.Random(23)
    for fix, data in all_data.items():
        cat = MVCategory(data)
        r = mv_recollement(data)
        objs = [o for _, o in generating_objects(r, data)]
        for _ in range(20):
            x, y = rng.choice(objs), rng.choice(objs)
            basis = cat.hom_basis(x, y)
            if not basis:
                continue
            f = basis[0]
            for h in basis[1:]:
                if rng.random() < 0.5:
                    f = f + h
            k_obj, k_mono = cat.kernel(f)
            from stratakit.modules import kernel as module_kernel

            kz, _ = module_kernel(f.f_z)
            assert k_obj.x_z == kz
            c_obj, c_epi = cat.cokernel(f)
            from stratakit.modules import cokernel as module_cokernel

            cz, _ = module_cokernel(f.f_z)
            assert c_obj.x_z == cz


def test_cokernel_and_i_left_read_through_sections_match_the_solves(all_data):
    """A glued cokernel's connecting maps and i^* of a glued morphism, read
    through the sections of the cokernel projections, equal the maps solved
    through the projections, on every hom-basis morphism between the
    samples of each fixture."""
    for fix, data in all_data.items():
        cat = MVCategory(data)
        r = mv_recollement(data)
        objs = [o for _, o in generating_objects(r, data)]
        for x, y in itertools.product(objs, repeat=2):
            for f in cat.hom_basis(x, y):
                assert cat.cokernel(f) == mv_cokernel_by_solve(cat, f), fix
                assert r.i_left.mor(f) == mv_i_left_mor_by_solve(f), fix


def test_direct_sum_universal_maps(all_data):
    for fix, data in all_data.items():
        cat = MVCategory(data)
        r = mv_recollement(data)
        objs = [o for _, o in generating_objects(r, data)]
        total, injs, projs = mv_direct_sum(cat, objs[:3])
        for inj, proj in zip(injs, projs):
            assert (inj.then(proj) - cat.identity(inj.source)).is_zero
        assert total.dim == sum(o.dim for o in objs[:3])


def test_universal_property_probes(all_data):
    """Randomized kernel/cokernel universal-property probes per fixture."""
    for fix, data in all_data.items():
        cat = MVCategory(data)
        r = mv_recollement(data)
        base = [o for _, o in generating_objects(r, data)]
        objs = list(base)
        for i in range(len(base)):
            for j in range(i, len(base)):
                objs.append(mv_direct_sum(cat, [base[i], base[j]])[0])
        rng = random.Random(41)
        probes = 0
        attempts = 0
        while probes < 100 and attempts < 4000:
            attempts += 1
            x, y, t = rng.choice(objs), rng.choice(objs), rng.choice(objs)
            basis = cat.hom_basis(x, y)
            if not basis:
                continue
            f = basis[0]
            for h in basis[1:]:
                if rng.random() < 0.5:
                    f = f + h
            k_obj, k_mono = cat.kernel(f)
            c_obj, c_epi = cat.cokernel(f)
            # kernel: competing g: t -> x with g;f = 0 factor uniquely
            for g in cat.hom_basis(t, x):
                if g.then(f).is_zero:
                    h = solve_in_hom(cat, t, k_obj, lambda h: h.then(k_mono), g)
                    assert h is not None
                    assert (h.then(k_mono) - g).is_zero
                    probes += 1
            # cokernel: competing g: y -> t with f;g = 0 descend uniquely
            for g in cat.hom_basis(y, t):
                if f.then(g).is_zero:
                    h = solve_in_hom(cat, c_obj, t, lambda h: c_epi.then(h), g)
                    assert h is not None
                    assert (c_epi.then(h) - g).is_zero
                    probes += 1
        assert probes >= 100, (fix, probes)


def test_invalid_theta_rejected():
    spec = load_fixture("FIX-MV-ID")
    data = data_of("FIX-MV-ID")
    # corrupt theta shape
    with pytest.raises(MVDataError):
        bad = data._replace(theta=Matrix.zero(data.u_algebra.field, 3, 1))


def test_object_triangle_enforced(all_data):
    data = all_data["FIX-MV-ID"]
    cat = MVCategory(data)
    k = simple_module(data.u_algebra, "1")
    r = mv_recollement(data)
    jl = r.j_lower(k)
    # replacing beta by zero breaks beta.alpha = eps (eps is nonzero here)
    from stratakit.modules import zero_map

    with pytest.raises(MVDataError):
        cat.make_object(jl.x_u, jl.x_z, jl.alpha, zero_map(jl.x_z, jl.beta.target))


def test_naturality_checked_on_generators(all_data):
    for fix, data in all_data.items():
        cat = MVCategory(data)
        from stratakit.modules import hom_basis, regular_module

        reg = regular_module(data.u_algebra)
        sample = hom_basis(reg, reg)
        for w in data.u_algebra.vertex_names:
            sample += hom_basis(reg, simple_module(data.u_algebra, w))
        for f in sample:
            lhs = cat.F.mor(f).then(cat.eps(f.target))
            rhs = cat.eps(f.source).then(cat.G.mor(f))
            assert (lhs - rhs).is_zero, (fix, "eps fails naturality on a sample morphism")


RETYPED_FIELDS = [{"kind": "Q"}, {"kind": "GF", "p": 3}]


def open_simple_cubed(file, field):
    """The glued category of the bundled fixture ``file`` retyped over
    ``field``, and j_lower(S_u(1))^3 in it: End is M_3(k), whose RREF basis
    has no invertible element."""
    raw = json.loads(fixture_bytes(file))
    raw["field"] = field
    spec = parse_spec(raw)
    data = mv_data_from_spec(spec.mv, spec.field)
    r = mv_recollement(data)
    cat = r.cat_c
    return cat, mv_direct_sum(cat, [r.j_lower(simple_module(data.u_algebra, "1"))] * 3)[0]


@pytest.mark.parametrize("field", RETYPED_FIELDS, ids=["Q", "GF3"])
def test_glued_cube_is_isomorphic_to_itself(field):
    """X_U = S_u(1)^3 and X_Z = 0 in the product gluing: equal
    representations decide it before any hom basis is computed."""
    cat, x = open_simple_cubed("fix_mv_prod.json", field)
    assert (x.x_u.dim, x.x_z.dim) == (3, 0) and len(cat.hom_basis(x, x)) == 9
    res = is_isomorphic(cat, x, x)
    assert res.isomorphic and res.certificate.is_isomorphism()
    assert res.reason == "equal representations"


@pytest.mark.parametrize("field", RETYPED_FIELDS, ids=["Q", "GF3"])
def test_glued_cube_with_conjugated_structure_maps(field):
    """alpha and beta conjugated by g in GL_3 give an object isomorphic
    through (id, g) but not equal.  End = M_3(k) is not local on either
    side, and no basis element of Hom(x, y) is invertible, so the one pass
    over the hom basis cannot decide it: UNDECIDED, never NO."""
    cat, x = open_simple_cubed("fix_mv_id.json", field)
    F = cat.field
    g = Matrix.from_rows(F, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    g_inv = g.solve_left(Matrix.identity(F, 3))
    y = cat.make_object(x.x_u, x.x_z, x.alpha.then(ModuleMap(x.x_z, x.x_z, g)),
                        ModuleMap(x.x_z, x.x_z, g_inv).then(x.beta))
    assert x != y and (x.x_u.dim, x.x_z.dim) == (3, 3)
    assert not (cat.local(x) or cat.local(y))
    assert not any(h.is_isomorphism() for h in cat.hom_basis(x, y))
    with pytest.raises(UndecidedIsomorphism):
        is_isomorphic(cat, x, y)


MISMATCHED_ENDS = """
import json

from stratakit.corpus import fixture_bytes
from stratakit.modules import simple_module, zero_map
from stratakit.mv import mv_data_from_spec, mv_recollement
from stratakit.specfile import parse_spec

spec = parse_spec(json.loads(fixture_bytes("fix_mv_zero.json")))
data = mv_data_from_spec(spec.mv, spec.field)
r = mv_recollement(data)
cat = r.cat_c
x = r.j_lower(simple_module(data.u_algebra, "1"))
# x's components with zero structure maps: glued, since eps = 0 here, and
# different from x, whose alpha is the identity
y = cat.make_object(x.x_u, x.x_z, zero_map(x.alpha.source, x.x_z), zero_map(x.x_z, x.beta.target))
assert x != y and (x.x_u, x.x_z) == (y.x_u, y.x_z)
f, g = cat.identity(x), cat.identity(y)
for op in (lambda: f.then(g), lambda: f + g, lambda: f - g):
    try:
        op()
    except ValueError:
        print("raised", __debug__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_glued_morphisms_reject_mismatched_ends(flags):
    """then, + and - on glued morphisms whose ends differ only in their
    structure maps raise, with asserts stripped too."""
    res = subprocess.run([sys.executable, *flags, "-c", MISMATCHED_ENDS], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"raised {not flags}\n" * 3
