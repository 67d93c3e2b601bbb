"""The bound quiver builder against two references and against answers
known from outside the program.

* ``oracles.bound_quiver_algebra_by_dense_span`` is the dense builder the
  Gröbner basis replaced: wherever it builds, the two algebras are equal
  (labels, products, unit, idempotents, radical), and wherever it raises,
  the builder raises the same error class.
* ``oracles.graded_dimension_by_degree`` counts dimensions degree by degree
  for relations whose terms all have one length, sharing no code with
  either builder.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from stratakit.algebra import (
    NonAdmissibleError,
    PossiblyInfiniteError,
    Presentation,
    Quiver,
    build_bound_quiver_algebra,
)
from stratakit.cli import main
from stratakit.corpus import corpus_index
from stratakit.linalg import GF2, GF3, QQ
from stratakit.specfile import parse_spec

from oracles import bound_quiver_algebra_by_dense_span, graded_dimension_by_degree
from support import auslander_algebra, generated_specs, load_fixture

GOLDEN = Path(__file__).parent / "golden"


def _differential_inputs():
    for entry in corpus_index():
        pres = load_fixture(entry.name).presentation
        for F in (GF2, GF3, QQ):
            yield f"{entry.name} over {F}", pres, F
    specs = [(path.name, json.loads(path.read_text())) for path in sorted(GOLDEN.glob("*.input.json"))]
    specs += [(f"generated {seed}/{i}", data)
              for seed in (101, 202) for i, data in enumerate(generated_specs(seed, 60))]
    for name, data in specs:
        spec = parse_spec(data, name=name)
        yield name, spec.presentation, spec.field


def _outcome(build, pres, F):
    """The algebra ``build`` makes, or the class of the error it raises."""
    try:
        return build(pres, F)
    except ValueError as e:
        return type(e)


def test_builder_matches_the_dense_span():
    outcomes = []
    for name, pres, F in _differential_inputs():
        want = _outcome(bound_quiver_algebra_by_dense_span, pres, F)
        assert _outcome(build_bound_quiver_algebra, pres, F) == want, name
        outcomes.append(want if isinstance(want, type) else "built")
    # both kinds of refusal and plenty of algebras are compared
    assert {PossiblyInfiniteError, NonAdmissibleError} < set(outcomes)
    assert outcomes.count("built") > 100


def test_a_shorter_tip_sends_a_rule_back_to_pending():
    """xyx = yy and xyx = xy on two loops, every other path of length 3
    zero.  The second relation reduces to xy - yy, whose tip xy lies inside
    the tip of the rule xyx -> yy, so that rule goes back to pending; it is
    what makes yy zero (xyx - yy rewrites to yyx - yy, and yyx = 0)."""
    q = Quiver(("1",), (("x", "1", "1"), ("y", "1", "1")))
    rels = [[(1, list("xyx")), (-1, list("yy"))], [(1, list("xyx")), (-1, list("xy"))]]
    rels += [[(1, list(p))] for p in itertools.product("xy", repeat=3) if p != tuple("xyx")]
    pres = Presentation.from_names(q, rels)
    a = build_bound_quiver_algebra(pres, QQ)
    assert a.basis_labels == ("e_1", "x", "y", "x*x", "y*x")
    assert a == bound_quiver_algebra_by_dense_span(pres, QQ)


def binomial_presentations(seed: int, count: int) -> list[tuple[Presentation, object]]:
    """``count`` presentations drawn from ``random.Random(seed)`` alone: 1-3
    vertices, 1-4 arrows with random ends (loops and cycles included), each
    path of length 2 a binomial p + c q with another path q of the same
    ends (c in {-1, 1, 2}) with probability 0.6, a monomial with 0.1, and
    free otherwise, each path of length 3 zero with probability 0.1 and
    every path of length 4 zero, over GF(2), GF(3) or Q.  The binomials'
    overlaps make the completion add binomials of length 3 on some inputs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vs = tuple(str(i) for i in range(1, rng.randint(1, 3) + 1))
        arrows = tuple((f"a{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(1, 4)))

        def paths(n):
            return [p for p in itertools.product(arrows, repeat=n)
                    if all(a[2] == b[1] for a, b in zip(p, p[1:]))]

        rels = []
        two = paths(2)
        for p in two:
            r = rng.random()
            same = [q for q in two if q != p and (q[0][1], q[-1][2]) == (p[0][1], p[-1][2])]
            if r < 0.6 and same:
                rels.append([(1, [a[0] for a in p]), (rng.choice([-1, 1, 2]), [a[0] for a in rng.choice(same)])])
            elif r < 0.7:
                rels.append([(1, [a[0] for a in p])])
        rels += [[(1, [a[0] for a in p])] for p in paths(3) if rng.random() < 0.1]
        rels += [[(1, [a[0] for a in p])] for p in paths(4)]
        out.append((Presentation.from_names(Quiver(vs, arrows), rels), rng.choice((GF2, GF3, QQ))))
    return out


def test_builder_dimension_matches_the_graded_count():
    """On the seeded binomial family and on the Auslander algebras (the
    count takes seconds from n = 5 on)."""
    inputs = binomial_presentations(8, 100) + [(auslander_algebra(n), GF3) for n in (2, 3, 4)]
    for pres, F in inputs:
        assert build_bound_quiver_algebra(pres, F).dim == graded_dimension_by_degree(pres, F)
    assert sum(any(len(rel) == 2 for rel in pres.relations) for pres, _ in inputs) > 50


def loops_with_cube_zero(k: int) -> Presentation:
    """One vertex, k loops, every path of length 3 zero: dimension 1 + k + k^2."""
    q = Quiver(("1",), tuple((f"x{i}", "1", "1") for i in range(k)))
    return Presentation.from_names(q, [[(1, list(w))] for w in itertools.product([a[0] for a in q.arrows], repeat=3)])


def test_four_loops_with_cube_zero():
    """Dimension 21; the dense span ran past its path cap here."""
    pres = loops_with_cube_zero(4)
    assert build_bound_quiver_algebra(pres, GF2).dim == 21 == graded_dimension_by_degree(pres, GF2)


@pytest.mark.parametrize("F", [GF3, QQ], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_auslander_algebra_dimension(n, F):
    """dim Hom(k[x]/(x^i), k[x]/(x^j)) = min(i, j), summed: n(n+1)(2n+1)/6."""
    assert build_bound_quiver_algebra(auslander_algebra(n), F).dim == n * (n + 1) * (2 * n + 1) // 6


def test_loop_algebra():
    """Three loops a0, a1, a2 with a0a0, a0a1, a0a2, a1a1, a2a1, a2a2 zero:
    e, the three arrows, a1a0, a1a2, a2a0 and a1a2a0."""
    q = Quiver(("1",), tuple((f"a{i}", "1", "1") for i in range(3)))
    rels = [[(1, list(p))] for p in (("a0", "a0"), ("a0", "a1"), ("a0", "a2"),
                                     ("a1", "a1"), ("a2", "a1"), ("a2", "a2"))]
    a = build_bound_quiver_algebra(Presentation.from_names(q, rels), GF2)
    assert a.dim == 8
    assert a.basis_labels[-1] == "a1*a2*a0"


def test_bad_fixtures_keep_their_error_class():
    with pytest.raises(PossiblyInfiniteError):
        build_bound_quiver_algebra(load_fixture("FIX-BAD-INF").presentation, GF2)
    with pytest.raises(NonAdmissibleError):
        build_bound_quiver_algebra(load_fixture("FIX-BAD-NONADM").presentation, GF2)


def test_infinite_groebner_basis_is_refused_quickly():
    """xyx - yxy has an infinite Gröbner basis in the builder's order, with
    tips xyx and x y^k x y for every k >= 2, so completion meets the length
    bound on a tip."""
    q = Quiver(("1",), (("x", "1", "1"), ("y", "1", "1")))
    pres = Presentation.from_names(q, [[(1, ["x", "y", "x"]), (-1, ["y", "x", "y"])]])
    start = time.process_time()
    with pytest.raises(PossiblyInfiniteError, match="tip of length"):
        build_bound_quiver_algebra(pres, QQ)
    assert time.process_time() - start < 1.0


def test_cli_validates_four_loops(tmp_path, capsys):
    names = [f"x{i}" for i in range(4)]
    spec = {"field": {"kind": "GF", "p": 3},
            "quiver": {"vertices": ["1"], "arrows": [{"name": x, "from": "1", "to": "1"} for x in names]},
            "relations": [{"terms": [{"coeff": 1, "path": list(w)}]} for w in itertools.product(names, repeat=3)]}
    path = tmp_path / "four_loops.json"
    path.write_text(json.dumps(spec))
    assert main(["validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["verdict"] == "PASS"
    check = next(c for c in report["checks"] if c["name"] == "validate_algebra")
    assert check["details"]["dimension"] == 21
