import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratakit.algebra import AlgebraError
from stratakit.cli import main
from stratakit.corpus import fixture_bytes
from stratakit.linalg import InvariantError, UndecidedIsomorphism
from stratakit.specfile import SpecError, parse_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fixture_path(tmp_path, name):
    p = tmp_path / name
    p.write_bytes(fixture_bytes(name))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    code, out = run_cli(capsys, "validate", fixture_path(tmp_path, "fix_a2.json"))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["verdict"] == "PASS"
    assert data["input"]["sha256"]
    assert data["timing"] is None


def test_validate_schema_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"field": {"kind": "GF", "p": 2}}')
    code = main(["validate", str(p)])
    assert code == 1


def test_validate_unknown_key_rejected(tmp_path):
    p = tmp_path / "extra.json"
    data = json.loads(fixture_bytes("fix_a2.json"))
    data["surprise"] = 1
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 1


def test_validate_invariant_failure(tmp_path, capsys):
    code, out = run_cli(capsys, "validate", fixture_path(tmp_path, "fix_bad_inf.json"))
    assert code == 2
    data = json.loads(out)
    assert data["summary"]["verdict"] == "FAIL"
    fails = [c for c in data["checks"] if c["verdict"] == "FAIL"]
    assert fails and fails[0]["witness"]["error"] == "POSSIBLY-INFINITE"


def test_check_modes_a2(tmp_path, capsys):
    path = fixture_path(tmp_path, "fix_a2.json")
    for mode in ("recollement", "simples", "porism", "eps", "hw"):
        code, out = run_cli(capsys, "check", path, "--mode", mode)
        assert code == 0, (mode, out)
    code, out = run_cli(capsys, "check", path, "--mode", "homological", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert any(c["name"] == "homological(n<=4)" and c["verdict"] == "PASS" for c in data["checks"])


def test_check_eps_verdicts_embedded(tmp_path, capsys):
    path = fixture_path(tmp_path, "fix_nak.json")
    code, out = run_cli(capsys, "check", path, "--mode", "eps", "--oracle")
    assert code == 0  # NO verdicts are results, not failures
    data = json.loads(out)
    eps_checks = [c for c in data["checks"] if c["name"].startswith("eps(")]
    assert len(eps_checks) == 4
    assert all(c["verdict"] == "NO" for c in eps_checks)
    assert all(c["witness"] is not None for c in eps_checks)


@pytest.mark.parametrize("mode", ["eps", "porism", "hw"])
def test_oracle_flag_changes_only_options(tmp_path, capsys, mode):
    """Over a finite field every filtration search is exhaustive, so
    ``--oracle`` changes nothing but the recorded option."""
    path = fixture_path(tmp_path, "fix_nak.json")
    code, out = run_cli(capsys, "check", path, "--mode", mode)
    code_oracle, out_oracle = run_cli(capsys, "check", path, "--mode", mode, "--oracle")
    plain, oracle = json.loads(out), json.loads(out_oracle)
    assert code_oracle == code
    assert (plain["options"]["oracle"], oracle["options"]["oracle"]) == (False, True)
    oracle["options"]["oracle"] = False
    assert oracle == plain


def test_oracle_over_rationals_exit3(tmp_path, capsys):
    data = json.loads(fixture_bytes("fix_a2.json"))
    data["field"] = {"kind": "Q"}
    p = tmp_path / "q.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p), "--mode", "eps", "--oracle"]) == 3


def test_missing_stratification_block(tmp_path, capsys):
    data = json.loads(fixture_bytes("fix_a2.json"))
    del data["stratification"]
    p = tmp_path / "nostrat.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p), "--mode", "eps"]) == 1


def undecided(*args, **kwargs):
    raise UndecidedIsomorphism("invariants agree but no invertible combination found")


@pytest.mark.parametrize("fixture, mode, search", [
    ("fix_mv_pair.json", "recollement", "stratakit.category.is_isomorphic"),
    ("fix_a3.json", "simples", "stratakit.strat.is_isomorphic"),
])
def test_check_reports_an_undecided_isomorphism(tmp_path, capsys, monkeypatch, fixture, mode, search):
    """An undecided isomorphism question is one ERROR check and exit 2:
    neither a traceback nor a FAIL."""
    import stratakit.mv, stratakit.strat  # noqa: F401  every layer binds the real search first
    monkeypatch.setattr(search, undecided)
    code, out = run_cli(capsys, "check", fixture_path(tmp_path, fixture), "--mode", mode)
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [c["verdict"] for c in checks if c["verdict"] not in ("PASS", "YES")] == ["ERROR"]
    assert checks[-1]["name"] == mode
    assert checks[-1]["witness"] == {"error": "UNDECIDED",
                                     "message": "invariants agree but no invertible combination found"}


def test_check_reports_a_program_fault_as_an_internal_error(capsys, monkeypatch):
    """A fault that escapes a battery is one ERROR check and exit 2, as in
    ``corpus``: not a traceback with exit 1, which malformed input owns.
    A5 over GF(3) has no stratification block, so the fault reaches the
    recollement battery itself."""
    def fault(*args, **kwargs):
        raise AlgebraError("quotient table is inconsistent")

    monkeypatch.setattr("stratakit.recollement.quotient_by_idempotent_ideal", fault)
    path = Path(__file__).parent / "golden" / "a5_gf3.input.json"
    code, out = run_cli(capsys, "check", str(path), "--mode", "recollement")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["verdict"]) for c in checks] == [("validate_algebra", "PASS"), ("recollement", "ERROR")]
    assert checks[-1]["witness"] == {"error": "INTERNAL-ERROR",
                                     "message": "AlgebraError: quotient table is inconsistent"}


def test_a_fault_in_a_layer_build_is_no_stratification_fail(tmp_path, capsys, monkeypatch):
    """The stratification check fails only on what the poset and the
    structure checks report about the input (``PosetError``,
    ``StratificationError``).  A program fault while a layer algebra is
    built reaches ``check`` as an INTERNAL-ERROR and ends ``corpus``'s
    fixture pipeline as an ERROR."""
    def fault(*args, **kwargs):
        raise AlgebraError("derived table is inconsistent")

    monkeypatch.setattr("stratakit.algebra._derived_algebra", fault)
    code, out = run_cli(capsys, "check", fixture_path(tmp_path, "fix_a2.json"), "--mode", "recollement")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["verdict"]) for c in checks] == [("recollement", "ERROR")]
    assert checks[0]["witness"] == {"error": "INTERNAL-ERROR", "message": "AlgebraError: derived table is inconsistent"}
    code, out = run_cli(capsys, "corpus", "--filter", "hw")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["verdict"]) for c in checks] == [
        ("FIX-A2/pipeline", "ERROR"), ("FIX-A3/pipeline", "ERROR")]
    assert checks[0]["witness"]["error"] == "AlgebraError: derived table is inconsistent"


def test_corpus_reports_an_undecided_synthesis_as_a_pipeline_error(capsys, monkeypatch):
    monkeypatch.setattr("stratakit.strat.synthesize_projective_cover", undecided)
    code, out = run_cli(capsys, "corpus", "--filter", "hw")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["verdict"]) for c in checks] == [
        ("FIX-A2/pipeline", "ERROR"), ("FIX-A3/pipeline", "ERROR")]
    assert checks[0]["witness"]["error"].startswith("UndecidedIsomorphism: ")


def test_corpus_reports_a_fault_in_synthesis_as_a_pipeline_error_not_a_fail(capsys, monkeypatch):
    """Only what synthesis reports about the mathematics is a FAIL; a
    program fault inside it ends the fixture's pipeline as an ERROR."""
    def fault(*args, **kwargs):
        raise InvariantError("pushout did not produce a short exact sequence")

    monkeypatch.setattr("stratakit.strat.universal_extension", fault)
    code, out = run_cli(capsys, "corpus", "--filter", "hw")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["verdict"]) for c in checks] == [
        ("FIX-A2/pipeline", "ERROR"), ("FIX-A3/pipeline", "ERROR")]
    assert checks[0]["witness"]["error"] == "InvariantError: pushout did not produce a short exact sequence"


def test_corpus_filter(capsys):
    code, out = run_cli(capsys, "corpus", "--filter", "mv")
    assert code == 0
    data = json.loads(out)
    names = {c["name"].split("/")[0] for c in data["checks"]}
    assert names == {"FIX-MV-ID", "FIX-MV-PAIR", "FIX-MV-PROD", "FIX-MV-ZERO"}


def test_corpus_filter_with_an_unknown_tag_exits_1_and_lists_the_tags(capsys):
    """A misspelt tag checks nothing, so it must not pass as an empty PASS."""
    assert main(["corpus", "--filter", "hws"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["unknown corpus tag 'hws'; known tags: eps, hw, mv, negative, strat"]


def test_corpus_negative_controls(capsys):
    code, out = run_cli(capsys, "corpus", "--filter", "negative")
    assert code == 0
    data = json.loads(out)
    assert all(c["verdict"] == "PASS" for c in data["checks"])
    assert {c["name"].split("/")[0] for c in data["checks"]} == {"FIX-BAD-INF", "FIX-BAD-NONADM"}


def test_corpus_deterministic(capsys):
    code1, out1 = run_cli(capsys, "corpus", "--filter", "mv", "--seed", "7")
    code2, out2 = run_cli(capsys, "corpus", "--filter", "mv", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRATAKIT_SEED", "99")
    code, out = run_cli(capsys, "validate", fixture_path(tmp_path, "fix_a2.json"))
    assert json.loads(out)["seed"] == 99
    monkeypatch.delenv("STRATAKIT_SEED")


def test_malformed_seed_flag_exits_1(capsys):
    assert main(["corpus", "--seed", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--seed" in captured.err


def test_malformed_seed_env_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRATAKIT_SEED", "abc")
    assert main(["validate", fixture_path(tmp_path, "fix_a2.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["STRATAKIT_SEED must be an integer, got 'abc'"]


def test_entry_point_runs():
    res = subprocess.run(
        [sys.executable, "-m", "stratakit.cli", "corpus", "--filter", "negative"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0


def test_spec_rejects_unknown_relation_keys():
    data = json.loads(fixture_bytes("fix_nak.json"))
    data["relations"][0]["comment"] = "nope"
    with pytest.raises(SpecError):
        parse_spec(data)


def test_spec_rational_coefficients():
    data = {
        "field": {"kind": "Q"},
        "quiver": {
            "vertices": ["1"],
            "arrows": [{"name": "x", "from": "1", "to": "1"}],
        },
        "relations": [{"terms": [{"coeff": "3/4", "path": ["x", "x"]}]}],
    }
    spec = parse_spec(data)
    from stratakit.specfile import build_algebra

    a = build_algebra(spec)
    assert a.dim == 2  # x^2 = 0 after scaling by the unit 3/4


def test_epsilon_block_in_file(tmp_path, capsys):
    data = json.loads(fixture_bytes("fix_loop.json"))
    data["stratification"]["epsilon"] = {"u": "+", "z": "-"}
    p = tmp_path / "eps.json"
    p.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check", str(p), "--mode", "eps", "--oracle")
    assert code == 0
    rep = json.loads(out)
    eps_checks = [c for c in rep["checks"] if c["name"].startswith("eps(")]
    assert len(eps_checks) == 1  # the fixed sign function, not the enumeration
    assert eps_checks[0]["verdict"] == "YES"


def test_check_mv_recollement_mode(tmp_path, capsys):
    p = tmp_path / "mv.json"
    p.write_bytes(fixture_bytes("fix_mv_zero.json"))
    code, out = run_cli(capsys, "check", str(p), "--mode", "recollement")
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["checks"]]
    assert "mv-recollement" in names
    assert any(n.startswith("mv-middle-formula") for n in names)


def test_check_homological_deep_flag(tmp_path, capsys):
    p = tmp_path / "a2.json"
    p.write_bytes(fixture_bytes("fix_a2.json"))
    code, out = run_cli(capsys, "check", str(p), "--mode", "homological", "--n", "3", "--deep")
    assert code == 0
    data = json.loads(out)
    hom = [c for c in data["checks"] if c["name"].startswith("homological")]
    assert hom and "projectives" in hom[0]["details"]["note"]


def test_check_reports_deterministic(tmp_path, capsys):
    path = fixture_path(tmp_path, "fix_loop.json")
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "check", path, "--mode", "eps", "--seed", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_homological_mode_emits_table(tmp_path, capsys):
    path = fixture_path(tmp_path, "fix_nak.json")
    code, out = run_cli(capsys, "check", path, "--mode", "homological", "--n", "2")
    assert code == 2  # NAK is not 2-homological
    data = json.loads(out)
    hom = [c for c in data["checks"] if c["name"].startswith("homological")][0]
    assert hom["verdict"] == "FAIL"
    assert hom["witness"]["degree"] == 2
    table = hom["details"]["comparison_table"]
    assert table and table[-1]["rank"] == 0 and table[-1]["dim_target"] == 1


# ---------------------------------------------------------------------------
# malformed inputs end in one line on stderr, never in a traceback


def loop_spec(field, coeff):
    """One vertex with a loop x and the relation coeff * x*x."""
    return {
        "field": field,
        "quiver": {"vertices": ["1"], "arrows": [{"name": "x", "from": "1", "to": "1"}]},
        "relations": [{"terms": [{"coeff": coeff, "path": ["x", "x"]}]}],
    }


def write_spec(tmp_path, data):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    return str(p)


def one_line_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return code, captured.err.strip()


GF3 = {"kind": "GF", "p": 3}
Q = {"kind": "Q"}


@pytest.mark.parametrize("field,coeff,message", [
    (GF3, 0.5, "not an exact number: 0.5"),
    (Q, 0.1, "not an exact number: 0.1"),
    (Q, True, "not an exact number: True"),
    (GF3, "abc", "Invalid literal for Fraction: 'abc'"),
    (GF3, "1/3", "1/3 has no image in GF(3)"),
])
def test_inexact_relation_coefficient_is_a_schema_error(tmp_path, capsys, field, coeff, message):
    path = write_spec(tmp_path, loop_spec(field, coeff))
    code, err = one_line_error(capsys, ["validate", path])
    assert code == 1
    assert err == f"schema error: relations[0].terms[0].coeff: {message}"


def test_exact_decimal_string_is_accepted(tmp_path, capsys):
    code, out = run_cli(capsys, "validate", write_spec(tmp_path, loop_spec(Q, "0.1")))
    assert code == 0 and json.loads(out)["checks"][0]["details"]["dimension"] == 2


@pytest.mark.parametrize("where", ["m.left_u", "theta"])
def test_inexact_mv_entry_is_a_schema_error(tmp_path, capsys, where):
    data = json.loads(fixture_bytes("fix_mv_id.json"))
    if where == "theta":
        data["mv"]["theta"] = [[1.0]]
        entry = "mv.theta[0][0]"
    else:
        data["mv"]["m"]["left_u"]["e_1"] = [[0.5]]
        entry = "mv.m.left_u[e_1][0][0]"
    code, err = one_line_error(capsys, ["validate", write_spec(tmp_path, data)])
    assert code == 1
    assert err.startswith(f"schema error: {entry}: not an exact number")


@pytest.mark.parametrize("relation,message", [
    ([{"coeff": 1, "path": ["a", "a"]}], "relation 0: non-composable path"),
    ([{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["d", "d"]}],
     "relation 0: terms not homogeneous in (source, target)"),
])
def test_malformed_relation_is_a_build_failure(tmp_path, capsys, relation, message):
    data = {
        "field": GF3,
        "quiver": {"vertices": ["1", "2", "3"], "arrows": [
            {"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"},
            {"name": "c", "from": "1", "to": "3"}, {"name": "d", "from": "3", "to": "3"}]},
        "relations": [{"terms": relation}],
    }
    code, out = run_cli(capsys, "validate", write_spec(tmp_path, data))
    assert code == 2
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "build" and check["verdict"] == "FAIL"
    assert check["witness"] == {"error": "INVALID", "message": message}


def test_eps_without_epsilon_above_eight_strata(tmp_path, capsys):
    vs = [str(i) for i in range(9)]
    data = {
        "field": {"kind": "GF", "p": 2},
        "quiver": {"vertices": vs, "arrows": []},
        "stratification": {"poset": {"elements": [f"s{v}" for v in vs], "leq": []},
                           "rho": {v: f"s{v}" for v in vs}},
    }
    code, err = one_line_error(capsys, ["check", write_spec(tmp_path, data), "--mode", "eps"])
    assert code == 1
    assert err == "schema error: epsilon required above 8 strata"


@pytest.mark.parametrize("n", ["-1", "x"])
def test_degree_bound_must_be_non_negative(tmp_path, capsys, n):
    path = fixture_path(tmp_path, "fix_a2.json")
    code, err = one_line_error(capsys, ["check", path, "--mode", "homological", "--n", n])
    assert code == 1
    assert "--n" in err and "expected a non-negative integer" in err


@pytest.mark.parametrize("path,value,message", [
    (["quiver", "arrows"], 5, "quiver.arrows: expected a list"),
    (["quiver", "arrows", 0, "name"], 7, "quiver.arrows[0].name: expected a string"),
    (["quiver", "arrows", 0, "from"], ["1"], "quiver.arrows[0].from: expected a string"),
    (["quiver", "arrows", 0, "to"], ["2"], "quiver.arrows[0].to: expected a string"),
    (["relations"], 3, "relations: expected a list"),
    (["relations"], [{"terms": 1}], "relations[0].terms: expected a list"),
    (["stratification", "poset", "leq"], 1, "stratification.poset.leq: expected a list"),
    (["stratification", "rho"], ["x", "y"], "stratification.rho: expected an object"),
    (["mv", "m", "left_u"], [[1]], "mv.m.left_u: expected an object"),
    (["mv", "z", "relations"], 3, "mv.z.relations: expected a list"),
], ids=["arrows", "arrow-name", "arrow-from", "arrow-to", "relations", "terms", "leq", "rho", "left_u",
        "mv-relations"])
def test_malformed_json_shape_is_a_schema_error(tmp_path, capsys, path, value, message):
    data = json.loads(fixture_bytes("fix_mv_id.json" if path[0] == "mv" else "fix_a2.json"))
    *keys, last = path
    entry = data
    for key in keys:
        entry = entry[key]
    entry[last] = value
    code, err = one_line_error(capsys, ["validate", write_spec(tmp_path, data)])
    assert code == 1
    assert err == f"schema error: {message}"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_path_is_a_schema_error(tmp_path, capsys, kind):
    path = tmp_path / "no_such.json" if kind == "missing" else tmp_path
    code, err = one_line_error(capsys, ["check", str(path), "--mode", "eps"])
    assert code == 1
    assert err.startswith(f"schema error: {path}: cannot read")


def test_boolean_bimodule_dimension_is_a_schema_error(tmp_path, capsys):
    data = json.loads(fixture_bytes("fix_mv_id.json"))
    data["mv"]["m"]["dim"] = True
    code, err = one_line_error(capsys, ["validate", write_spec(tmp_path, data)])
    assert code == 1
    assert err == "schema error: mv.m.dim: expected a nonnegative integer"


def test_input_algebra_is_validated_once(tmp_path, capsys, monkeypatch):
    """The build validates the input and raises on failure, so the report's
    validate_algebra row needs no second validation.  The full lower-set
    quotient is structurally equal to the input and validated on its own,
    so the input is told apart by identity."""
    from stratakit import algebra, cli

    validated, built = [], []
    original_validate, original_build = algebra.validate_algebra, cli.build_algebra

    def counting_validate(a):
        validated.append(a)
        return original_validate(a)

    def keeping_build(spec):
        built.append(original_build(spec))
        return built[-1]

    monkeypatch.setattr(algebra, "validate_algebra", counting_validate)
    # a validation through a name bound in cli counts too
    monkeypatch.setattr(cli, "validate_algebra", counting_validate, raising=False)
    monkeypatch.setattr(cli, "build_algebra", keeping_build)
    code, out = run_cli(capsys, "check", fixture_path(tmp_path, "fix_a3.json"), "--mode", "recollement")
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "validate_algebra"
    (a,) = built
    assert sum(1 for x in validated if x is a) == 1


ROOT = Path(__file__).resolve().parent.parent
START = {"stratakit", "cli", "algebra", "linalg", "report", "specfile"}


def loaded_modules(argv) -> set[str]:
    """The modules that a fresh interpreter has loaded after ``main(argv)``,
    or after importing the CLI when ``argv`` is None."""
    run = "" if argv is None else f"main({argv!r})\n"
    code = "import sys\nfrom stratakit.cli import main\n" + run + "print(*sorted(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def layers(modules: set[str]) -> set[str]:
    """The stratakit modules among ``modules``, package prefix dropped."""
    return {m.removeprefix("stratakit.") for m in modules if m.startswith("stratakit")}


LAZY = {"fractions", "decimal", "hashlib", "_hashlib"}


def test_each_command_loads_only_its_layers(tmp_path):
    """Every invocation is a fresh interpreter, so a layer the command does
    not run must not be imported: importing it would compile and build it on
    every start.  Nor does a run over GF(3) load ``fractions`` (with the
    ``decimal`` it imports), which only a value that is not an int needs,
    or ``hashlib``, whose OpenSSL module costs milliseconds: the input's
    digest comes from the built-in SHA-256."""
    a5 = str(ROOT / "tests" / "golden" / "a5_gf3.input.json")
    bare = loaded_modules(None)
    assert layers(bare) == START
    assert not bare & LAZY
    validate = loaded_modules(["validate", a5])
    check = loaded_modules(["check", a5, "--mode", "recollement"])
    assert layers(validate) == START
    assert layers(check) == START | {"category", "modules", "recollement"}
    assert not (validate | check) & LAZY
    porism = layers(loaded_modules(["check", fixture_path(tmp_path, "fix_a3.json"), "--mode", "porism"]))
    assert "strat" in porism
    assert not porism & {"analyze", "mv", "corpus"}


def test_a7_recollements_agree_over_gf3_and_q(tmp_path, capsys):
    """Linearly oriented A_7 (dimension 28), large enough that most entries
    the kernel meets are zero: ``check --mode recollement`` passes every
    check over GF(3) and over Q, and both name the same checks."""
    vs = [str(i) for i in range(1, 8)]
    quiver = {"vertices": vs, "arrows": [{"name": f"a{i}", "from": vs[i - 1], "to": vs[i]} for i in range(1, 7)]}
    verdicts = []
    for field in ({"kind": "GF", "p": 3}, {"kind": "Q"}):
        path = tmp_path / f"a7_{field['kind']}.json"
        path.write_text(json.dumps({"field": field, "quiver": quiver, "relations": []}))
        code, out = run_cli(capsys, "check", str(path), "--mode", "recollement")
        assert code == 0
        verdicts.append({c["name"]: c["verdict"] for c in json.loads(out)["checks"]})
    assert verdicts[0] == verdicts[1]
    assert verdicts[0] == {"validate_algebra": "PASS", **{f"recollement(e_{v})": "PASS" for v in vs}}
