"""Reports are byte-identical to the committed golden files, each input
runs its stratification structure checks exactly once, and a few work
counters (hashes, dense products, solves) stay under fixed bounds.

The golden files in ``tests/golden/`` were captured before the analysis
session refactor (one algebra, stratification and gluing datum per input),
so they pin "reports unchanged across a refactor", which the determinism
test (two runs of the same code) cannot.  A file named
``<fixture>.<mode>.json`` is the output of

    stratakit check <fixture>.json --mode <mode> --seed 0

run on the bundled fixture, or on ``<fixture>.input.json`` beside it for
inputs that are not bundled (the C_3 radical-square-zero cycle over Q, the
same without its sign pattern so that ``eps`` decides all eight, its twin
over GF(3) and an A_5 path algebra over GF(3), which reach paths the
GF(2)/GF(3) fixtures do not: the porism reports of the two C_3 inputs pin
the heuristic and the exhaustive order of the hom-space search; and FIX-A3
over Q, whose ``hw``, ``recollement`` and ``simples`` reports pin how those
modes render values over Q; and the V poset x < z > y over GF(3), the
quiver 1 -> 2 <- 3 with 2 on top, the one input whose order is not total:
its lower sets {x} and {y} are incomparable, and {x, y} is the down-set of
no one element; and the 2-cycle a: 1 -> 2, b: 2 -> 1 with ba = 0 over
GF(3) on the antichain s, t, whose report is the one (S3) failure: the
corner at 1 holds the cycle ab inside {s, t} but not inside {s}; and
the square a*b, c*d over Q with the relation -2/5 a*b + 3/7 c*d, whose
coefficients are parsed from text and inverted), and
``corpus.seed11.json`` that of
``stratakit corpus --seed 11``.  Regenerate one only for an intended
change of its report, and say so in the change.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stratakit import algebra, analyze, category, recollement, strat
from stratakit.algebra import Algebra
from stratakit.cli import checks_porism, checks_simples, main
from stratakit.corpus import fixture_bytes
from stratakit.linalg import Matrix, Subspace, UndecidedIsomorphism
from stratakit.modules import RightModule
from stratakit.specfile import build_algebra, parse_spec
from stratakit.strat import Stratification, StratificationError

from support import count_calls, generated_specs, path_spec, stratification_of

GOLDEN = Path(__file__).parent / "golden"
STRATIFIED = ("fix_a3", "fix_nak")
MODES = ("recollement", "simples", "porism", "eps", "hw", "homological")
# inputs kept in tests/golden/ as <name>.input.json
EXTRA_CASES = [("c3_q", "eps"), ("c3_q", "homological"), ("c3_q", "porism"),
               ("c3_q_all", "eps"), ("c3_gf3", "porism"), ("c3_gf3", "eps"),
               ("a5_gf3", "recollement"), ("a3_q", "hw"), ("a3_q", "recollement"),
               ("a3_q", "simples"), ("v_gf3", "eps"), ("v_gf3", "hw"), ("v_gf3", "porism"),
               ("v_gf3", "homological"), ("cyc2_anti_gf3", "simples"), ("sq_q", "hw")]
CHECK_CASES = ([(f, m) for f in STRATIFIED for m in MODES] + [("fix_mv_pair", "recollement")]
               + EXTRA_CASES)
WITH_STRATIFICATION = STRATIFIED + ("c3_q", "c3_q_all", "c3_gf3", "a3_q", "v_gf3", "cyc2_anti_gf3", "sq_q")


def run_counting(monkeypatch, argv):
    """Exit code, stdout and the number of structure-check runs of one CLI call."""
    calls = []
    original = Stratification.run_structure_checks

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Stratification, "run_structure_checks", counted)
    monkeypatch.delenv("STRATAKIT_SEED", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), len(calls)


def input_bytes(fixture: str) -> bytes:
    extra = GOLDEN / f"{fixture}.input.json"
    return extra.read_bytes() if extra.exists() else fixture_bytes(f"{fixture}.json")


def expected_code(golden: str) -> int:
    return 0 if json.loads(golden)["summary"]["verdict"] == "PASS" else 2


@pytest.mark.parametrize("fixture,mode", CHECK_CASES, ids=[f"{f}-{m}" for f, m in CHECK_CASES])
def test_check_report_matches_golden(tmp_path, monkeypatch, fixture, mode):
    path = tmp_path / f"{fixture}.json"  # the report names the input by its file stem
    path.write_bytes(input_bytes(fixture))
    golden = (GOLDEN / f"{fixture}.{mode}.json").read_text()
    code, out, structure_checks = run_counting(
        monkeypatch, ["check", str(path), "--mode", mode, "--seed", "0"])
    assert out == golden
    assert code == expected_code(golden)
    # the stratification is built and checked once, in validation, and then
    # shared with the mode's battery
    assert structure_checks == (1 if fixture in WITH_STRATIFICATION else 0)


def test_rational_coefficients_are_parsed_and_inverted():
    """The square over Q takes its relation's coefficients from text: the
    Gröbner basis divides by -2/5, so a*b = 15/14 c*d, a ``Fraction``."""
    a = build_algebra(parse_spec(json.loads(input_bytes("sq_q"))))
    labels = a.basis_labels
    ab = a.mul_vec(a.basis_vec(labels.index("a")), a.basis_vec(labels.index("b")))
    assert ab == tuple(Fraction(15, 14) if label == "c*d" else 0 for label in labels)


def test_corpus_report_matches_golden(monkeypatch):
    golden = (GOLDEN / "corpus.seed11.json").read_text()
    code, out, structure_checks = run_counting(monkeypatch, ["corpus", "--seed", "11"])
    assert out == golden
    assert code == expected_code(golden) == 0
    # one run per stratified fixture: A2, A3, DUAL, KRO, LOOP, NAK
    assert structure_checks == 6


def test_corpus_report_is_the_same_under_optimize():
    """No verdict rests on an ``assert``: with asserts stripped the corpus
    report is still byte for byte the golden one."""
    env = {k: v for k, v in os.environ.items() if k != "STRATAKIT_SEED"}
    res = subprocess.run([sys.executable, "-O", "-m", "stratakit.cli", "corpus", "--seed", "11"],
                         capture_output=True, env=env)
    assert res.stdout == (GOLDEN / "corpus.seed11.json").read_bytes()
    assert res.returncode == 0, res.stderr


def test_eps_on_c3_over_q_hashes_each_value_once(monkeypatch):
    """A work counter, not a timing: the value types keep their hash, so
    deciding one sign pattern of C_3 over Q computes 591 structural hashes
    of matrices, subspaces, algebras and modules (13,258 when every lookup
    re-hashes a module with its algebra's multiplication table)."""
    computed = []
    for cls in (Matrix, Subspace, Algebra, RightModule):
        def counted(self, original=cls.__hash__):
            if "_hash" not in self.__dict__:
                computed.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    monkeypatch.delenv("STRATAKIT_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", str(GOLDEN / "c3_q.input.json"), "--mode", "eps", "--seed", "0"])
    assert code == 0
    assert len(computed) <= 3300


def test_validate_reads_basis_products_off_the_table(tmp_path, monkeypatch):
    """A work counter: validating the linearly oriented A_6 over GF(3)
    (dimension 21) reads the products of basis elements off the structure
    table and makes 525 dense ``mul_vec`` products (30,969 when each of the
    21^3 associativity triples took three), and 5,916 sparse sums of
    products (19,986 when the associativity check also ran the triples
    whose two inner products are both zero)."""
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(path_spec(6)))
    calls = count_calls(monkeypatch, Algebra, "mul_vec")
    sums = count_calls(monkeypatch, Algebra, "sum_of_products")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", str(path)]) == 0
    assert len(calls) <= 2000
    assert len(sums) <= 7000


def test_recollement_check_computes_each_unit_once(tmp_path, monkeypatch):
    """A work counter: one verification computes each unit and counit once
    per object, so ``check --mode recollement`` on FIX-A3 makes 498
    ``solve_left`` calls (851 when every axiom recomputed the components
    it reads)."""
    path = tmp_path / "fix_a3.json"
    path.write_bytes(fixture_bytes("fix_a3.json"))
    calls = count_calls(monkeypatch, Matrix, "solve_left")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path), "--mode", "recollement", "--seed", "0"]) == 0
    assert len(calls) <= 650


def test_corpus_asks_each_question_once(monkeypatch):
    """Work counters: each battery answers each question once per input.
    ``corpus --seed 11`` runs 22 axiom batteries on 18 recollement builds
    (28 on 24 when the (S2) check and the recollement battery each built
    and verified the principal recollement at a top stratum), at most 46
    filtration searches (119 when every sign pattern searched again) and
    at most 22 exactness facts (52).  Each build makes one quotient A/AeA
    and one corner eAe, and no other code makes either, so the run makes
    18 of each (36 quotients and 30 corners when each lower-set algebra and
    each corner of (S3) was built again beside the layer recollements).
    Only the algebras built from the input are validated, 18 of them: each
    corner and quotient is certified against the algebra it comes from
    (54 validations while each was validated afresh, 84 before that).  Two more
    batteries repeat one by value, but in another fixture: FIX-NAK's
    A_{<=x} equals FIX-A2's and FIX-LOOP's A_{<=z} equals FIX-KRO's.  No
    memo outlives its input, so those two stay."""
    batteries = count_calls(monkeypatch, recollement, "verify_recollement")
    builds = count_calls(monkeypatch, recollement, "idempotent_recollement_data")
    searches = count_calls(monkeypatch, strat, "filtration_search")
    facts = count_calls(monkeypatch, analyze, "_exactness")
    quotients = count_calls(monkeypatch, recollement, "quotient_by_idempotent_ideal")
    corners = count_calls(monkeypatch, recollement, "corner_algebra")
    validations = count_calls(monkeypatch, algebra, "validate_algebra")
    code, out, _ = run_counting(monkeypatch, ["corpus", "--seed", "11"])
    assert out == (GOLDEN / "corpus.seed11.json").read_text()
    assert code == 0
    assert (len(batteries), len(builds), len(quotients), len(corners)) == (22, 18, 18, 18)
    assert len(validations) <= 18
    assert len(searches) <= 46
    assert len(facts) <= 22


def test_corpus_solves_against_reduced_bases_by_their_pivots(monkeypatch):
    """Work counters of the exact kernel on ``corpus --seed 11``: nearly
    every ``solve_left`` is against a matrix in RREF with full row rank (a
    subspace basis, a submodule inclusion, a hom basis), which reads the
    coordinates off its pivots instead of eliminating [A | I], and an
    elimination is kept on the matrix it reduced.  No ``solve_left``
    takes the [A | I] route (the only ``hstack`` in ``linalg``), so each of
    the 6 ``hstack`` calls left glues a universal extension.  There were
    1,763 ``hstack`` calls and 36,644 matrices when every solve eliminated
    [A | I] and nothing kept its RREF, and 12 ``hstack`` calls while each
    extension was pushed out along a kernel module.

    A module keeps its action as one matrix, so each constructor is one
    product or elimination, and comparing two modules compares one matrix;
    a product with an identity factor returns the other factor, so it
    builds no matrix; the hom functor maps a morphism by one product; and
    equal modules over one algebra are one object, which keeps its top,
    cover and hom bases: the run makes 13,675 matrices, 6,064 products and
    2,973 matrix comparisons (16,430, 6,470 and 6,273 while every module
    construction made a new object, 25,509, 9,429 and 11,889 with one
    matrix per algebra basis element, 23,778, 6,754 and 6,285 while every product built
    its result, 17,897, 6,497 and 6,323 while every corner and quotient
    was validated afresh and a triangle identity subtracted the identity,
    16,831, 6,512 and 6,428 while synthesis certified each layer by Ext^1
    against every simple and isomorphism was searched beyond a hom basis)."""
    callers = []
    hstack = Matrix.hstack
    monkeypatch.setattr(Matrix, "hstack",
                        lambda a, b: callers.append(sys._getframe(1).f_code.co_name) or hstack(a, b))
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    comparisons = count_calls(monkeypatch, Matrix, "__eq__")
    code, out, _ = run_counting(monkeypatch, ["corpus", "--seed", "11"])
    assert out == (GOLDEN / "corpus.seed11.json").read_text()
    assert code == 0
    assert "solve_left" not in callers
    assert len(callers) <= 6
    assert len(matrices) <= 15_000
    assert len(products) <= 6_400
    assert len(comparisons) <= 3_300


def test_eps_asks_each_sign_independent_question_once(tmp_path, monkeypatch):
    """Deciding all eight sign patterns of C_3 over Q takes 3 filtration
    searches and 6 exactness facts, one per stratum and side (24 and 24
    when every pattern asked its own): each stratum algebra is
    one-dimensional, so the patterns ask the same questions."""
    path = tmp_path / "c3_q_all.json"
    path.write_bytes(input_bytes("c3_q_all"))
    searches = count_calls(monkeypatch, strat, "filtration_search")
    facts = count_calls(monkeypatch, analyze, "_exactness")
    code, out, _ = run_counting(monkeypatch, ["check", str(path), "--mode", "eps", "--seed", "0"])
    assert out == (GOLDEN / "c3_q_all.eps.json").read_text()
    assert code == 0
    assert (len(searches), len(facts)) == (3, 6)


def test_no_isomorphism_question_the_cli_asks_is_left_undecided(tmp_path, monkeypatch):
    """Every question ``is_isomorphic`` is asked by ``corpus --seed 11``,
    by every golden (input, mode) pair and by the simples and porism
    batteries of ``generated_specs(101, 30)``, wherever the stratification
    passes its checks, has a side with a local endomorphism ring (P(t),
    std(b) and the simples have a simple top, and in the glued category
    j_!*(S_u) has End = k), so one pass over a hom basis decides each.
    There are 256 questions (728 while the standard families' tops and
    socles were compared with L(b) by ``is_isomorphic``, not by dimension
    vector)."""
    asked, undecided = [], []
    real = category.is_isomorphic

    def watched(cat, x, y):
        asked.append(None)
        try:
            return real(cat, x, y)
        except UndecidedIsomorphism:
            undecided.append((x, y))
            raise

    for owner in (category, recollement, strat):
        monkeypatch.setattr(owner, "is_isomorphic", watched)
    run_counting(monkeypatch, ["corpus", "--seed", "11"])
    for fixture, mode in CHECK_CASES:
        path = tmp_path / f"{fixture}.json"
        path.write_bytes(input_bytes(fixture))
        run_counting(monkeypatch, ["check", str(path), "--mode", mode, "--seed", "0"])
    strata = 0
    for raw in generated_specs(101, 30):
        try:
            s = stratification_of(parse_spec(raw))
        except StratificationError:
            continue
        strata += 1
        checks_simples(s)
        checks_porism(s)
    assert undecided == []
    assert (strata, len(asked)) == (28, 256)
