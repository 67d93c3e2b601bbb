"""The JSON input format and its strict parser.

A spec file describes a bound-quiver algebra over an exact field, an
optional stratification (poset, vertex labeling, optional sign function),
and an optional Macpherson-Vilonen gluing block.  The key names below are
a compatibility contract; unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra, Presentation, Quiver, build_bound_quiver_algebra
from .linalg import Field, InputError, Value


class SpecError(InputError):
    """Malformed input file (schema level, exit code 1 territory)."""


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(obj, kind: type, where: str):
    """``obj`` itself if it has the JSON type ``kind``; a SpecError naming
    ``where`` otherwise."""
    if not isinstance(obj, kind):
        raise SpecError(f"{where}: expected {_JSON_KINDS[kind]}")
    return obj


def _expect_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()) -> None:
    keys = set(_expect(obj, dict, where))
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SpecError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise SpecError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_field(obj) -> Field:
    _expect_keys(obj, "field", {"kind"}, {"p"})
    if obj["kind"] == "GF":
        if "p" not in obj or not isinstance(obj["p"], int):
            raise SpecError("field: GF needs an integer p")
        try:
            return Field.gf(obj["p"])
        except ValueError as e:
            raise SpecError(f"field: {e}") from None
    if obj["kind"] == "Q":
        if "p" in obj:
            raise SpecError("field: Q takes no p")
        return Field.rationals()
    raise SpecError(f"field: unknown kind {obj['kind']!r}")


def _parse_quiver(obj, where: str) -> Quiver:
    _expect_keys(obj, where, {"vertices", "arrows"})
    vs = obj["vertices"]
    if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
        raise SpecError(f"{where}.vertices: expected a list of strings")
    arrows = []
    for i, a in enumerate(_expect(obj["arrows"], list, f"{where}.arrows")):
        _expect_keys(a, f"{where}.arrows[{i}]", {"name", "from", "to"})
        arrows.append(tuple(_expect(a[k], str, f"{where}.arrows[{i}].{k}")
                            for k in ("name", "from", "to")))
    try:
        return Quiver(tuple(vs), tuple(arrows))
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from None


def _number(field: Field, x, where: str):
    """``x`` in the field; a float, a bool or a malformed string is an error
    that names the entry."""
    try:
        return field.of(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise SpecError(f"{where}: {e}") from None


def _parse_relations(obj, where: str, quiver: Quiver, field: Field) -> Presentation:
    rels = []
    for i, rel in enumerate(_expect(obj, list, where)):
        _expect_keys(rel, f"{where}[{i}]", {"terms"})
        terms = []
        for j, t in enumerate(_expect(rel["terms"], list, f"{where}[{i}].terms")):
            term = f"{where}[{i}].terms[{j}]"
            _expect_keys(t, term, {"coeff", "path"})
            path = t["path"]
            if not isinstance(path, list) or not all(isinstance(x, str) for x in path):
                raise SpecError(f"{term}.path: expected arrow names")
            terms.append((_number(field, t["coeff"], f"{term}.coeff"), path))
        rels.append(terms)
    try:
        return Presentation.from_names(quiver, rels)
    except KeyError as e:
        raise SpecError(f"{where}: unknown arrow {e}") from None


class PosetSpec(Value):
    elements: tuple[str, ...]
    leq: tuple[tuple[str, str], ...]


class StratSpec(Value):
    poset: PosetSpec
    rho: dict[str, str]
    epsilon: dict[str, str] | None


def _parse_stratification(obj, quiver: Quiver) -> StratSpec:
    _expect_keys(obj, "stratification", {"poset", "rho"}, {"epsilon"})
    _expect_keys(obj["poset"], "stratification.poset", {"elements", "leq"})
    elements = obj["poset"]["elements"]
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise SpecError("stratification.poset.elements: expected strings")
    leq = []
    for pair in _expect(obj["poset"]["leq"], list, "stratification.poset.leq"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError("stratification.poset.leq: expected pairs")
        if pair[0] not in elements or pair[1] not in elements:
            raise SpecError(f"stratification.poset.leq: unknown element in {pair}")
        leq.append((pair[0], pair[1]))
    rho = _expect(obj["rho"], dict, "stratification.rho")
    if set(rho) != set(quiver.vertices):
        raise SpecError("stratification.rho: must label every vertex exactly once")
    for v, lam in rho.items():
        if lam not in elements:
            raise SpecError(f"stratification.rho[{v}]: unknown poset element {lam!r}")
    if set(rho.values()) != set(elements):
        raise SpecError("stratification.rho: every poset element must label some vertex")
    eps = None
    if "epsilon" in obj:
        eps = _expect(obj["epsilon"], dict, "stratification.epsilon")
        if set(eps) != set(elements):
            raise SpecError("stratification.epsilon: must assign every poset element")
        for lam, s in eps.items():
            if s not in ("+", "-"):
                raise SpecError(f"stratification.epsilon[{lam}]: expected '+' or '-'")
    return StratSpec(PosetSpec(tuple(elements), tuple(leq)), dict(rho), eps)


class BimoduleSpec(Value):
    dim: int
    left: dict[str, list]   # acting algebra basis label -> matrix rows
    right: dict[str, list]


class MVSpec(Value):
    z_presentation: Presentation
    u_presentation: Presentation
    m: BimoduleSpec  # left u-algebra, right z-algebra
    n: BimoduleSpec  # left z-algebra, right u-algebra
    theta: list      # (dim m * dim n) x dim(u-algebra) rows


def _parse_matrix_rows(obj, where: str, field: Field) -> list:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SpecError(f"{where}: expected a list of rows")
    return [[_number(field, x, f"{where}[{i}][{j}]") for j, x in enumerate(r)] for i, r in enumerate(obj)]


def _parse_actions(obj, where: str, field: Field) -> dict[str, list]:
    """Basis label -> matrix rows of its action."""
    return {k: _parse_matrix_rows(v, f"{where}[{k}]", field) for k, v in _expect(obj, dict, where).items()}


def _parse_bimodule(obj, where: str, left_key: str, right_key: str, field: Field) -> BimoduleSpec:
    _expect_keys(obj, where, {"dim", left_key, right_key})
    if not isinstance(obj["dim"], int) or isinstance(obj["dim"], bool) or obj["dim"] < 0:
        raise SpecError(f"{where}.dim: expected a nonnegative integer")
    left = _parse_actions(obj[left_key], f"{where}.{left_key}", field)
    right = _parse_actions(obj[right_key], f"{where}.{right_key}", field)
    return BimoduleSpec(obj["dim"], left, right)


def _parse_mv(obj, field: Field) -> MVSpec:
    _expect_keys(obj, "mv", {"z", "u", "m", "n", "theta"})
    sides = {}
    for side in ("z", "u"):
        _expect_keys(obj[side], f"mv.{side}", {"quiver"}, {"relations"})
        q = _parse_quiver(obj[side]["quiver"], f"mv.{side}.quiver")
        sides[side] = _parse_relations(obj[side].get("relations", []), f"mv.{side}.relations", q, field)
    m = _parse_bimodule(obj["m"], "mv.m", "left_u", "right_z", field)
    n = _parse_bimodule(obj["n"], "mv.n", "left_z", "right_u", field)
    theta = _parse_matrix_rows(obj["theta"], "mv.theta", field)
    return MVSpec(z_presentation=sides["z"], u_presentation=sides["u"], m=m, n=n, theta=theta)


class AlgebraSpec(Value):
    name: str
    field: Field
    quiver: Quiver
    presentation: Presentation
    stratification: StratSpec | None
    mv: MVSpec | None


def parse_spec(data, name: str = "<input>") -> AlgebraSpec:
    _expect_keys(data, name, {"field", "quiver"}, {"relations", "stratification", "mv"})
    field = _parse_field(data["field"])
    quiver = _parse_quiver(data["quiver"], "quiver")
    pres = _parse_relations(data.get("relations", []), "relations", quiver, field)
    strat = None
    if "stratification" in data:
        strat = _parse_stratification(data["stratification"], quiver)
    mv = None
    if "mv" in data:
        mv = _parse_mv(data["mv"], field)
    return AlgebraSpec(name=name, field=field, quiver=quiver, presentation=pres,
                       stratification=strat, mv=mv)


def load_spec(path: str | Path) -> tuple[AlgebraSpec, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise SpecError(f"{path}: cannot read ({e.strerror})") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: not valid JSON ({e})") from None
    return parse_spec(data, name=Path(path).stem), raw


def build_algebra(spec: AlgebraSpec) -> Algebra:
    return build_bound_quiver_algebra(spec.presentation, spec.field)
