"""The rank predicates and ``exact_at`` against the object route they replace.

Mono, epi and exactness (at the ends too) are read off ranks and
dimensions; the oracle here builds the kernel, cokernel and image objects
and reads their dimensions, in mod-A on the fixtures' standard samples and
in the Macpherson-Vilonen glued category on the samples the CLI checks.
"""

import pytest

from stratakit.category import ModuleCategory, ShortExactSequence, exact_at
from stratakit.cli import _mv_samples
from stratakit.mv import MVCategory, mv_data_from_spec, mv_recollement
from stratakit.specfile import build_algebra

from support import is_injective, load_fixture

MODULE_FIXTURES = ["FIX-A2", "FIX-A3", "FIX-NAK", "FIX-DUAL", "FIX-KRO", "FIX-LOOP"]
MV_FIXTURES = ["FIX-MV-ID", "FIX-MV-ZERO", "FIX-MV-PROD", "FIX-MV-PAIR"]


def module_case(fix):
    cat = ModuleCategory(build_algebra(load_fixture(fix)))
    return cat, [x for _, x in cat.standard_samples()]


def mv_case(fix):
    spec = load_fixture(fix)
    data = mv_data_from_spec(spec.mv, spec.field)
    r = mv_recollement(data)
    return r.cat_c, [x for _, x in _mv_samples(r, data)]


def cases():
    return [pytest.param(module_case, fix, id=fix) for fix in MODULE_FIXTURES] + [
        pytest.param(mv_case, fix, id=fix) for fix in MV_FIXTURES]


def morphisms(cat, samples):
    """Between each pair of samples: the zero morphism, each hom-basis
    morphism, and the sum of the basis."""
    out = []
    for x in samples:
        for y in samples:
            basis = cat.hom_basis(x, y)
            out.append(cat.zero_mor(x, y))
            out.extend(basis)
            if len(basis) > 1:
                out.append(sum(basis[1:], basis[0]))
    return out


def oracle_exact(cat, f, g):
    return f.then(g).is_zero and cat.image(f)[0].dim == cat.kernel(g)[0].dim


@pytest.mark.parametrize("build, fix", cases())
def test_rank_predicates_match_kernel_and_cokernel(build, fix):
    cat, samples = build(fix)
    maps = morphisms(cat, samples)
    seen = set()
    for f in maps:
        ker, incl = cat.kernel(f)
        coker, proj = cat.cokernel(f)
        assert is_injective(f) == (ker.dim == 0)
        assert f.is_surjective() == (coker.dim == 0)
        assert f.is_isomorphism() == (ker.dim == 0 and coker.dim == 0)
        seen.add((is_injective(f), f.is_surjective()))
        for a, b in ((incl, f), (f, proj)):
            assert exact_at(a, b) and oracle_exact(cat, a, b)
        assert ShortExactSequence(incl, cat.image(f)[1]).verify()
    assert {(False, False), (True, True)} <= seen


@pytest.mark.parametrize("build, fix", cases())
def test_exact_at_matches_image_and_kernel(build, fix):
    """Composable pairs of sample morphisms: exact, zero but not exact, and
    nonzero composites; with ``mono``/``epi``, also exact at the ends."""
    cat, samples = build(fix)
    maps = morphisms(cat, samples)
    mono = [cat.kernel(f)[0].dim == 0 for f in maps]
    epi = [cat.cokernel(g)[0].dim == 0 for g in maps]
    verdicts = set()
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            if g.source != f.target:
                continue
            got = exact_at(f, g)
            assert got == oracle_exact(cat, f, g)
            assert exact_at(f, g, mono=True) == (got and mono[i])
            assert exact_at(f, g, epi=True) == (got and epi[j])
            assert exact_at(f, g, mono=True, epi=True) == (got and mono[i] and epi[j])
            verdicts.add((got, f.then(g).is_zero))
    assert verdicts == {(True, True), (False, True), (False, False)}
