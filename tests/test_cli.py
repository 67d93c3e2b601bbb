import json
import subprocess
import sys

import pytest

from stratakit.cli import main
from stratakit.corpus import fixture_bytes
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


def test_corpus_filter(capsys):
    code, out = run_cli(capsys, "corpus", "--filter", "mv")
    assert code == 0
    data = json.loads(out)
    names = {c["name"].split("/")[0] for c in data["checks"]}
    assert names == {"FIX-MV-ID", "FIX-MV-PAIR", "FIX-MV-PROD", "FIX-MV-ZERO"}


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
