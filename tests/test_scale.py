"""Scale, gated on work counters: ``check --mode recollement`` on the
linearly oriented path algebra A_7 over GF(3) (dimension 28), run through
``cli.main`` in-process.

Wall time on a shared host swings too much to gate on, so this pins upper
bounds on the exact kernel's work instead: matrix products, matrix
constructions and matrix comparisons.  A module keeps its action as one
matrix, so the run makes 6,689 products, 17,029 matrices and 6,957
comparisons; with one action matrix per algebra basis element it made
25,763, 44,414 and 78,198.  A bound moves only with a line in CHANGES.md.
"""

import contextlib
import io
import json

from stratakit.cli import main
from stratakit.linalg import Matrix

from support import count_calls, path_spec

N = 7


def test_recollement_check_on_a7_is_counter_gated(tmp_path, monkeypatch):
    path = tmp_path / "a7.json"
    path.write_text(json.dumps(path_spec(N)))
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    comparisons = count_calls(monkeypatch, Matrix, "__eq__")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--mode", "recollement", "--seed", "0"])
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out.getvalue())["checks"]}
    assert code == 0
    assert verdicts == {"validate_algebra": "PASS", **{f"recollement(e_{v})": "PASS" for v in range(1, N + 1)}}
    assert len(products) <= 7_000
    assert len(matrices) <= 17_900
    assert len(comparisons) <= 7_300
