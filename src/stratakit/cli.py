"""Command line surface: validate, check, corpus.

Exit codes: 0 success, 1 malformed input (schema or command line), 2 failed
invariants or checks, an isomorphism question left undecided or a program
fault (each reported as an ``ERROR`` check, never as a FAIL), 3 oracle mode
requested over the rationals.

Every raise is a verdict or a fault, by type.  A verdict on the input
subclasses ``linalg.InputError``, and the check that asks its question (the
build, the stratification, the gluing data) catches it and reports a FAIL.
Everything else, an ``InvariantError`` or a verdict that no check asked for
included, reaches ``_guarded``, the one boundary that all three commands
share: a ``SpecError`` there is malformed input (exit 1), an
``UndecidedIsomorphism`` an ERROR check with witness UNDECIDED, and any
other exception an ERROR check with witness INTERNAL-ERROR (exit 2); under
``corpus`` that check is the fixture's ``pipeline``, and a bundled fixture
that fails the schema is such a fault, since the user gave no file.

Each input is built once: ``checks_validate`` builds the algebra, the
checked stratification and the gluing data into a ``Session``, and every
check battery reads them from there.  Each battery imports the layers it
runs, and only when it runs: every invocation is a fresh interpreter, so a
layer imported at the top would be compiled and built on every start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .algebra import Algebra, AlgebraError, NonAdmissibleError, PossiblyInfiniteError
from .linalg import InputError, InvariantError, UndecidedIsomorphism, Value
from .report import Check, Report, sha256_bytes
from .specfile import AlgebraSpec, SpecError, build_algebra, load_spec, parse_spec

if TYPE_CHECKING:
    from .analyze import Decision
    from .mv import MVData
    from .recollement import RecollementReport
    from .strat import Stratification

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_FAIL = 2
EXIT_ORACLE = 3


class UsageError(Exception):
    """A malformed command line or environment; reported in one line, exit 1."""


class Session(Value):
    """One input, built once: the algebra, its stratification (structure
    checks passed) and its gluing data, each None where the input has none
    or it failed validation.  Every check battery reads these, so their
    caches live exactly as long as the input is being analysed."""

    name: str
    algebra: Algebra | None = None
    strat: Stratification | None = None
    mv: MVData | None = None

    def stratification(self) -> Stratification:
        if self.strat is None:
            raise SpecError(f"{self.name}: no stratification block in the input")
        return self.strat


def _mv_samples(r, data):
    from .modules import simple_module
    out = []
    for w in data.u_algebra.vertex_names:
        su = simple_module(data.u_algebra, w)
        out.append((f"j_lower(S_u({w}))", r.j_lower(su)))
        out.append((f"j_roof(S_u({w}))", r.j_roof(su)))
    for v in data.z_algebra.vertex_names:
        out.append((f"i_embed(S_z({v}))", r.i_embed(simple_module(data.z_algebra, v))))
    return out


# ---------------------------------------------------------------------------
# individual check batteries (shared by `check` and `corpus`)


# the build's verdicts on the relations: criterion and witness code
BUILD_VERDICTS = {
    NonAdmissibleError: ("relations generate an admissible ideal", "NON-ADMISSIBLE"),
    PossiblyInfiniteError: ("path classes stabilize below the length bound", "POSSIBLY-INFINITE"),
    AlgebraError: ("construction passes structural validation", "INVALID"),
}


def checks_validate(spec: AlgebraSpec) -> tuple[list[Check], Session]:
    """Build and validate everything the input declares, once."""
    out = []
    try:
        algebra = build_algebra(spec)
    except InputError as e:
        criterion, code = BUILD_VERDICTS[type(e)]
        out.append(Check("build", criterion, "FAIL", witness={"error": code, "message": str(e)}))
        return out, Session(spec.name)
    # the build validated the algebra and raised AlgebraError on a failure
    out.append(Check(
        "validate_algebra",
        "unit, associativity, orthogonal idempotents, nilpotent radical ideal, split semisimple quotient",
        "PASS",
        details={"dimension": algebra.dim, "basis": list(algebra.basis_labels)},
    ))
    strat = mv = None
    if spec.stratification is not None:
        from .strat import Poset, Stratification
        ss = spec.stratification
        try:
            poset = Poset.from_pairs(ss.poset.elements, ss.poset.leq)
            strat = Stratification(algebra, poset, ss.rho, ss.epsilon, check=True)
            out.append(Check("stratification", "lower sets, layer recollements, stratum independence", "PASS"))
        except InputError as e:
            out.append(Check("stratification", "lower sets, layer recollements, stratum independence",
                             "FAIL", witness={"error": str(e)}))
    if spec.mv is not None:
        from .mv import mv_data_from_spec
        try:
            mv = mv_data_from_spec(spec.mv, spec.field)
            out.append(Check("mv", "bimodule axioms, balanced equivariant pairing", "PASS"))
        except InputError as e:
            out.append(Check("mv", "bimodule axioms, balanced equivariant pairing",
                             "FAIL", witness={"error": str(e)}))
    return out, Session(spec.name, algebra, strat, mv)


def _axiom_check(name: str, rep: RecollementReport, details: dict) -> Check:
    """One recollement axiom suite as one check, every failed axiom in the witness."""
    return Check(
        name,
        "adjoint triples, fully faithful embeddings, orthogonality, adjunction exact sequences",
        "PASS" if rep.ok else "FAIL",
        witness=None if rep.ok else {"failures": [(f.axiom, f.subject, f.note) for f in rep.failures()]},
        details=details,
    )


def checks_recollement(session: Session) -> list[Check]:
    from .category import ModuleCategory, is_isomorphic
    from .modules import simple_module
    from .recollement import intermediate_extension, make_idempotent_recollement
    out = []
    if session.mv is not None:
        from .mv import mv_intermediate_table, mv_recollement
        data = session.mv
        r = mv_recollement(data)
        rep = r.verify(_mv_samples(r, data))
        out.append(_axiom_check("mv-recollement", rep, {"samples": len(rep.results)}))
        cat = r.cat_c
        for w in data.u_algebra.vertex_names:
            su = simple_module(data.u_algebra, w)
            generic = intermediate_extension(r, su).obj
            table = mv_intermediate_table(cat, su)
            res = is_isomorphic(cat, generic, table)
            out.append(Check(
                f"mv-middle-formula({w})",
                "closed-form intermediate extension equals the image of the canonical map",
                "PASS" if res.isomorphic else "FAIL",
                witness=None if res.isomorphic else {"reason": res.reason},
            ))
        return out
    algebra = session.algebra
    samples = ModuleCategory(algebra).standard_samples()
    for v in algebra.vertex_names:
        r = make_idempotent_recollement(algebra, [v])
        out.append(_axiom_check(f"recollement(e_{v})", r.verify(samples),
                                {"samples": [n for n, _ in samples], "degenerate": r.degenerate}))
    return out


def checks_simples(s: Stratification) -> list[Check]:
    return [Check(
        "classify_simples",
        "every simple is the intermediate extension of a unique stratum simple",
        "PASS",
        details={b: lam for b, (lam, _) in s.classify_simples().items()},
    )]


def checks_porism(s: Stratification) -> list[Check]:
    from .strat import porism_check
    return [Check(
        f"porism({b})",
        "cover kernel over the standard quotient is filtered by quotients of higher standards",
        "PASS",
        details=porism_check(s, b).certificate.summary(),
    ) for b in s.algebra.vertex_names]


def checks_synthesis(s: Stratification) -> list[Check]:
    from .strat import SynthesisNonTermination, synthesize_projective_cover
    out = []
    for t in s.algebra.vertex_names:
        try:
            res = synthesize_projective_cover(s, t)
            out.append(Check(
                f"synthesize_cover({t})",
                "iterated universal extensions rebuild the projective cover",
                "PASS",
                details={"audit": [
                    {"layer": a.layer, "iterations": a.iterations,
                     "multiplicities": dict(a.multiplicities), "dim": a.dim_after}
                    for a in res.audit
                ]},
            ))
        except SynthesisNonTermination as e:
            out.append(Check(f"synthesize_cover({t})",
                             "iterated universal extensions rebuild the projective cover",
                             "FAIL", witness={"error": str(e)}))
    return out


def _decision_check(name: str, criterion: str, decision: Decision, agreed_criterion: str) -> Check:
    """FAIL with every route's verdict when the routes disagree, else YES or
    NO under ``agreed_criterion``, with every route's witness on NO."""
    witnesses = {route: r.witness for route, r in decision.routes.items()}
    if not decision.agreement:
        verdicts = {route: r.verdict for route, r in decision.routes.items()}
        return Check(name, criterion, "FAIL",
                     witness={"ROUTE-DISAGREEMENT": {**verdicts, "witnesses": witnesses}})
    k = len(decision.routes)
    return Check(name, agreed_criterion, "YES" if decision.verdict else "NO",
                 witness=None if decision.verdict else witnesses,
                 details={"routes": f"{k}/{k} agree"})


def checks_eps(s: Stratification) -> list[Check]:
    from .analyze import is_epsilon_stratified, sign_patterns
    if s.epsilon is None and len(s.poset.elements) > 8:
        raise SpecError("epsilon required above 8 strata")
    patterns = [s.epsilon] if s.epsilon is not None else sign_patterns(s.poset)
    criterion = "homological criterion agrees with both direct filtration searches"
    out = []
    for eps in patterns:
        label = ",".join(f"{lam}{sign}" for lam, sign in sorted(eps.items()))
        out.append(_decision_check(f"eps({label})", criterion, is_epsilon_stratified(s, eps), criterion))
    return out


def checks_hw(s: Stratification) -> list[Check]:
    from .analyze import is_highest_weight
    return [_decision_check(
        "highest-weight", "structure route and axiom route agree", is_highest_weight(s),
        "one-dimensional strata with a 2-homological stratification; classical axioms",
    )]


def checks_homological(s: Stratification, n: int, deep: bool = False) -> list[Check]:
    from .analyze import is_k_homological
    res = is_k_homological(s, n, deep=deep)
    return [Check(
        f"homological(n<={n})",
        "Ext comparison along every layer inclusion is an isomorphism up to the bound",
        "PASS" if res.holds else "FAIL",
        witness=None if res.holds else res.witness,
        details={
            "checked_pairs": res.checked_pairs,
            "note": res.note,
            "comparison_table": [
                {"lower_set": list(row[0]), "stratum": row[1],
                 "object_dims": list(row[2]), "degree": row[3],
                 "dim_source": row[4], "dim_target": row[5], "rank": row[6]}
                for row in res.table
            ],
        },
    )]


MODE_RUNNERS = {
    "recollement": lambda session, args: checks_recollement(session),
    "simples": lambda session, args: checks_simples(session.stratification()),
    "porism": lambda session, args: checks_porism(session.stratification()),
    "eps": lambda session, args: checks_eps(session.stratification()),
    "hw": lambda session, args: checks_hw(session.stratification()),
    "homological": lambda session, args: checks_homological(session.stratification(), args.n,
                                                            deep=args.deep),
}


# ---------------------------------------------------------------------------
# commands


def _guarded(name: str, checks: Callable[[], Iterable[Check]]) -> Iterator[Check]:
    """The checks ``checks()`` gives, then, if it raises, one ERROR check
    named ``name`` in place of the rest: the one boundary between the
    checks and the report (see the module docstring).  A ``SpecError``
    passes on to ``main``: malformed input, exit 1."""
    try:
        yield from checks()
    except SpecError:
        raise
    except UndecidedIsomorphism as e:
        yield Check(name, "every isomorphism question is decided", "ERROR",
                    witness={"error": "UNDECIDED", "message": str(e)})
    except Exception as e:  # noqa: BLE001  a program fault, not a verdict on the input
        yield Check(name, "the checks run to completion", "ERROR",
                    witness={"error": "INTERNAL-ERROR", "message": f"{type(e).__name__}: {e}"})


def cmd_validate(args) -> int:
    spec, raw = load_spec(args.path)
    report = Report(mode="validate", input_name=spec.name,
                    input_sha256=sha256_bytes(raw), seed=args.seed)
    for c in _guarded("validate", lambda: checks_validate(spec)[0]):
        report.add(c)
    _emit(report, args)
    return EXIT_OK if report.ok else EXIT_FAIL


def _mode_checks(spec: AlgebraSpec, args) -> Iterator[Check]:
    """The input's validation checks, then, if every one passed, the mode's."""
    checks, session = checks_validate(spec)
    yield from checks
    if not any(c.failed for c in checks):
        yield from MODE_RUNNERS[args.mode](session, args)


def cmd_check(args) -> int:
    spec, raw = load_spec(args.path)
    if args.oracle and spec.field.kind == "Q":
        print("oracle mode requires a finite field; this input is over the rationals",
              file=sys.stderr)
        return EXIT_ORACLE
    report = Report(
        mode=args.mode,
        input_name=spec.name,
        input_sha256=sha256_bytes(raw),
        seed=args.seed,
        options={"mode": args.mode, "n": args.n, "oracle": bool(args.oracle)},
    )
    started = time.monotonic()
    for c in _guarded(args.mode, lambda: _mode_checks(spec, args)):
        report.add(c)
    if args.timing:
        report.timing_ms = int((time.monotonic() - started) * 1000)
    _emit(report, args)
    return EXIT_OK if report.ok else EXIT_FAIL


def _corpus_fixture_checks(entry) -> list[Check]:
    from .corpus import fixture_bytes
    raw = fixture_bytes(entry.file)
    try:
        spec = parse_spec(json.loads(raw), name=entry.name)
    except SpecError as e:  # the bundled fixtures are well-formed: the corpus golden report parses each
        raise InvariantError(f"bundled fixture {entry.file}: {e}") from None
    checks, session = checks_validate(spec)
    if entry.expect_error is not None:
        # the build's check, or validate_algebra's PASS when the build succeeded
        got = checks[0].witness["error"] if checks[0].name == "build" else "an algebra"
        ok = got == entry.expect_error
        return [Check("negative-control", f"build fails with {entry.expect_error}", "PASS" if ok else "FAIL",
                      witness=None if ok else {"error": f"the build gave {got}"})]
    if any(c.failed for c in checks):
        return checks
    checks.extend(checks_recollement(session))
    s = session.strat
    if s is not None:
        checks.extend(checks_simples(s))
        checks.extend(checks_porism(s))
        checks.extend(checks_synthesis(s))
        if len(s.poset.elements) <= 3:
            checks.extend(checks_eps(s))
        if "hw" in entry.tags:
            checks.extend(checks_hw(s))
    return checks


def cmd_corpus(args) -> int:
    from .corpus import corpus_index
    index = corpus_index()
    entries = [e for e in index if args.filter is None or args.filter in e.tags]
    if not entries:  # a misspelt tag would otherwise pass with nothing checked
        tags = sorted({t for e in index for t in e.tags})
        print(f"unknown corpus tag {args.filter!r}; known tags: {', '.join(tags)}", file=sys.stderr)
        return EXIT_SCHEMA
    report = Report(
        mode="corpus",
        input_name="bundled-corpus",
        input_sha256=None,
        seed=args.seed,
        options={"filter": args.filter},
    )
    started = time.monotonic()
    # one fixture at a time: the work is pure Python, so a thread pool only
    # adds waiting for the interpreter lock, and no cache sees two threads
    for entry in sorted(entries, key=lambda e: e.name):
        # a fixture's checks are all made before the first is reported, so a
        # fault leaves its pipeline ERROR alone
        for c in _guarded("pipeline", lambda: _corpus_fixture_checks(entry)):
            report.add(Check(f"{entry.name}/{c.name}", c.criterion, c.verdict, c.witness, c.details))
    if args.timing:
        report.timing_ms = int((time.monotonic() - started) * 1000)
    _emit(report, args)
    return EXIT_OK if report.ok else EXIT_FAIL


def _emit(report: Report, args) -> None:
    sys.stdout.write(report.render(args.format))


def _nonnegative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _seed_default() -> int:
    env = os.environ.get("STRATAKIT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"STRATAKIT_SEED must be an integer, got {env!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, which here means "failed checks"
        raise UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stratakit",
                description="recollements and stratifications of module categories, exactly")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="PRNG seed recorded in the report (env STRATAKIT_SEED overrides the default)")
        sp.add_argument("--format", choices=["json", "text"], default="json")
        sp.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte-for-byte determinism)")

    v = sub.add_parser("validate", help="schema and algebra validation")
    v.add_argument("path")
    common(v)
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("check", help="run one analysis mode on an input file")
    c.add_argument("path")
    c.add_argument("--mode", choices=sorted(MODE_RUNNERS), required=True)
    c.add_argument("--n", type=_nonnegative, default=4,
                   help="non-negative degree bound for --mode homological")
    c.add_argument("--oracle", action="store_true",
                   help="require a finite field (exit 3 over Q), where filtration searches "
                        "are always exhaustive")
    c.add_argument("--deep", action="store_true",
                   help="re-run the Ext comparison on projectives and injectives, "
                        "not only simples (--mode homological)")
    common(c)
    c.set_defaults(func=cmd_check)

    k = sub.add_parser("corpus", help="run the invariant suite over the bundled fixtures")
    k.add_argument("--filter", default=None, help="only fixtures carrying this tag")
    common(k)
    k.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _seed_default()
        return args.func(args)
    except UsageError as e:
        print(e, file=sys.stderr)
    except SpecError as e:
        print(f"schema error: {e}", file=sys.stderr)
    return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
