"""Scale, gated on work counters: ``check --mode recollement`` on the
linearly oriented path algebra A_7 over GF(3) (dimension 28), run through
``cli.main`` in-process.

Wall time on a shared host swings too much to gate on, so this pins upper
bounds on the exact kernel's work instead: matrix products, matrix
constructions and matrix comparisons.  A module keeps its action as one
matrix, the hom functor's object map is one product, and validation
settles the split-semisimple check by one dimension count, so the run
makes 5,302 products, 9,585 matrices and 7,211 comparisons; with one
action matrix per algebra basis element it made 25,763, 44,414 and
78,198.  It also pins the recollement's intermediates: i_left and i_right
restrict each module to A/AeA once between them, and i_right and unit_jr
read one side-by-side action of Ae, so the run makes 434
``restrict_scalars`` and 310 ``side_by_side`` calls, against 589 and 450
when each built its own.  The kernel skips work that is already done:
a product with an identity factor returns the other factor, and a matrix
already in RREF is its own elimination, so only 2,250 of the products
run the summing loop (all 5,316 did while nothing was recognised) and
319 eliminations meet a matrix that is not reduced.  ``validate_algebra``
runs once, on the input: each corner and quotient the layers build is
certified against the algebra it comes from (15 validations, and 11,130
matrices, while each was validated afresh).  A bound moves only with a
line in CHANGES.md.
"""

import contextlib
import io
import json

from stratakit import algebra, modules, mv, recollement, strat
from stratakit.cli import main
from stratakit.linalg import Matrix

from support import count_calls, path_spec

N = 7


def test_recollement_check_on_a7_is_counter_gated(tmp_path, monkeypatch):
    path = tmp_path / "a7.json"
    path.write_text(json.dumps(path_spec(N)))
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    matmul, rref = Matrix.__matmul__, Matrix.rref
    loop_products, eliminations = [], []

    def product(a, b):
        out = matmul(a, b)
        if out is not a and out is not b:
            loop_products.append(None)
        return out

    def elimination(m):
        fresh = "_rref" not in m.__dict__
        out = rref(m)
        if fresh and out[0] is not m:
            eliminations.append(None)
        return out

    monkeypatch.setattr(Matrix, "__matmul__", product)
    monkeypatch.setattr(Matrix, "rref", elimination)
    matrices = count_calls(monkeypatch, Matrix, "__init__")
    comparisons = count_calls(monkeypatch, Matrix, "__eq__")
    # every module that calls them by its own name
    restrictions = [count_calls(monkeypatch, m, "restrict_scalars") for m in (modules, recollement, strat)]
    side_actions = [count_calls(monkeypatch, m, "side_by_side") for m in (modules, recollement, mv)]
    validations = count_calls(monkeypatch, algebra, "validate_algebra")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--mode", "recollement", "--seed", "0"])
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out.getvalue())["checks"]}
    assert code == 0
    assert verdicts == {"validate_algebra": "PASS", **{f"recollement(e_{v})": "PASS" for v in range(1, N + 1)}}
    assert len(products) <= 5_600
    assert len(matrices) <= 10_200
    assert len(comparisons) <= 7_300
    assert sum(map(len, restrictions)) <= 450
    assert sum(map(len, side_actions)) <= 330
    assert len(loop_products) <= 2_400
    assert len(eliminations) <= 340
    assert len(validations) == 1
