"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of CLI invocations (a *pass*).  The seed
chooses the inputs inside each invocation and the order of the pass, never
how many invocations of which kind it holds: the work of a pass has to stay
about the same from seed to seed, or the spread between runs would measure
the seed instead of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GF3 = {"kind": "GF", "p": 3}
Q = {"kind": "Q"}

# Name -> verdict map of `stratakit corpus` at the commit that added the benchmark.
CORPUS_VERDICTS = Path(__file__).with_name("corpus_verdicts.json")

# path-gf3: A_n path algebras over GF(3).  The seed orients every arrow, but
# keeps the lengths of the maximal uniformly oriented runs: the dimension of
# A_n is n plus l(l+1)/2 per run of length l, so free orientations would
# move the dimension of A_6 between 11 and 21 and the cost by about 3x.
# Arrangements of the same run lengths make the same calls, to within 0.2 %,
# though their eliminations differ in size by up to 10 %.  A_6 is the
# largest algebra (dimension 12), yet small enough that a pass repeats three
# to five times in a run.
PATH_RUNS = {4: (2, 1), 5: (2, 2), 6: (2, 1, 1, 1)}
# Algebras that are also validated on their own.  With four invocations
# per pass, op_p50_s is the mean of the recollement checks on A_4 and A_5,
# which steadies it more than the time of one short invocation would.
PATH_VALIDATED = (6,)

# strat-q: each mode once, on fixed algebra families over Q.  C_n is the
# radical-square-zero cycle, A_n the linearly oriented path.  Only n = 3:
# over Q the cost of A_4 depends on the seeded order (eps takes 5.4 to 8.7 s
# across seeds), and a pass short enough to repeat three to five times in a
# run keeps the mean time of each invocation steady (porism on C_4 alone
# takes 2.6 s).
STRAT_CELLS = (("eps", "C", 3), ("porism", "C", 3), ("hw", "A", 3), ("homological", "C", 3))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its report must say.

    ``expect`` is the exact name -> verdict map, or None when the reference
    comes from running ``twin`` (the same arguments on a GF(3) twin input).
    """

    label: str
    args: tuple[str, ...]
    expect: dict | None = None
    twin: tuple[str, ...] | None = None


def _write(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec, indent=1, sort_keys=True))
    return str(path)


def path_algebra(n: int, rng: random.Random) -> dict:
    runs = list(PATH_RUNS[n])
    rng.shuffle(runs)
    forward = rng.random() < 0.5
    orientation = []
    for length in runs:
        orientation += [forward] * length
        forward = not forward
    vs = [str(i) for i in range(1, n + 1)]
    arrows = [{"name": f"a{i + 1}", "from": vs[i] if fwd else vs[i + 1], "to": vs[i + 1] if fwd else vs[i]}
              for i, fwd in enumerate(orientation)]
    return {"field": GF3, "quiver": {"vertices": vs, "arrows": arrows}, "relations": []}


def strat_algebra(kind: str, n: int, rng: random.Random) -> dict:
    """Monomial algebra with a seeded total order on its strata and a seeded sign pattern."""
    vs = [str(i) for i in range(1, n + 1)]
    if kind == "C":
        arrows = [{"name": f"a{i + 1}", "from": vs[i], "to": vs[(i + 1) % n]} for i in range(n)]
        relations = [{"terms": [{"coeff": 1, "path": [f"a{i + 1}", f"a{(i + 1) % n + 1}"]}]}
                     for i in range(n)]
    else:
        arrows = [{"name": f"a{i + 1}", "from": vs[i], "to": vs[i + 1]} for i in range(n - 1)]
        relations = []
    strata = [f"s{v}" for v in vs]
    chain = rng.sample(strata, n)
    return {
        "field": Q,
        "quiver": {"vertices": vs, "arrows": arrows},
        "relations": relations,
        "stratification": {
            "poset": {"elements": strata,
                      "leq": [[chain[i], chain[j]] for i in range(n) for j in range(i + 1, n)]},
            "rho": {v: s for v, s in zip(vs, strata)},
            "epsilon": {s: rng.choice("+-") for s in strata},
        },
    }


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The pass of ``workload`` for ``seed``; spec files are written to ``workdir``."""
    rng = random.Random(seed)
    common = ("--seed", str(seed))
    calls: list[Call] = []
    if workload == "corpus":
        calls.append(Call("corpus", ("corpus", *common), expect=json.loads(CORPUS_VERDICTS.read_text())))
    elif workload == "path-gf3":
        for n in sorted(PATH_RUNS):
            path = _write(workdir / f"A{n}.json", path_algebra(n, rng))
            recollements = {f"recollement(e_{v})": "PASS" for v in range(1, n + 1)}
            if n in PATH_VALIDATED:
                calls.append(Call(f"validate A{n}", ("validate", path, *common),
                                  expect={"validate_algebra": "PASS"}))
            calls.append(Call(f"recollement A{n}", ("check", path, "--mode", "recollement", *common),
                              expect={"validate_algebra": "PASS", **recollements}))
    elif workload == "strat-q":
        for mode, kind, n in STRAT_CELLS:
            spec = strat_algebra(kind, n, rng)
            path = _write(workdir / f"{kind}{n}-{mode}.json", spec)
            twin = _write(workdir / f"{kind}{n}-{mode}-gf3.json", {**spec, "field": GF3})
            calls.append(Call(f"{mode} {kind}{n}", ("check", path, "--mode", mode, *common),
                              twin=("check", twin, "--mode", mode, *common)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls
