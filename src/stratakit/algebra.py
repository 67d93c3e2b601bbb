"""Split basic finite-dimensional algebras presented by bound quivers.

An ``Algebra`` here is a finite-dimensional algebra over an exact field,
given by a multiplication table on a distinguished basis, together with a
complete set of primitive orthogonal idempotents (the *vertex* idempotents,
each of which is itself a basis element) and a basis of the Jacobson
radical.  The algebras we construct are *split basic*: the quotient by the
radical is a product of copies of the ground field, one per vertex.

The main constructor builds such an algebra from a quiver with admissible
relations.  Paths compose left to right (``a*b`` means "a then b") and all
modules elsewhere in the package are right modules, so the regular module's
action matrices are exactly the right-multiplication slices of the table.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from .linalg import Field, InconsistentSystem, Matrix, Subspace, Value


class NonAdmissibleError(ValueError):
    """A relation touches paths of length < 2."""


class PossiblyInfiniteError(ValueError):
    """A Gröbner basis tip or a normal word passed the length bound, or the
    normal words passed their cap."""


class AlgebraError(ValueError):
    """Construction produced inconsistent data."""


DEFAULT_LENGTH_BOUND = 32
PATH_CAP = 20000


class Quiver(Value):
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self) -> None:
        names = [v for v in self.vertices] + [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("vertex/arrow names must be unique")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {name}: endpoint not a vertex")
        if not self.vertices:
            raise ValueError("quiver needs at least one vertex")

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)

    def arrow_index(self, name: str) -> int:
        for i, (n, _, _) in enumerate(self.arrows):
            if n == name:
                return i
        raise KeyError(name)


class Presentation(Value):
    quiver: Quiver
    # each relation: tuple of (coefficient, arrow-index tuple); coefficients
    # are raw (int/str/Fraction) and coerced by the builder
    relations: tuple[tuple[tuple[object, tuple[int, ...]], ...], ...]

    @staticmethod
    def from_names(quiver: Quiver, relations: Sequence[Sequence[tuple[object, Sequence[str]]]]) -> "Presentation":
        rels = []
        for rel in relations:
            terms = []
            for coeff, path_names in rel:
                terms.append((coeff, tuple(quiver.arrow_index(n) for n in path_names)))
            rels.append(tuple(terms))
        return Presentation(quiver, tuple(rels))


# a path is (source vertex index, tuple of arrow indices)
Path = tuple[int, tuple[int, ...]]


def _path_label(quiver: Quiver, p: Path) -> str:
    v, arrows = p
    if not arrows:
        return f"e_{quiver.vertices[v]}"
    return "*".join(quiver.arrows[i][0] for i in arrows)


class Algebra(Value):
    """Finite-dimensional split basic algebra via structure constants.

    ``mult[i][j]`` is the coordinate vector of ``b_i * b_j``.  The vertex
    idempotents are the basis elements at ``idempotent_indices`` (aligned
    with ``vertex_names``), and ``radical`` spans the Jacobson radical.

    ``cache`` holds data derived from this instance (``sparse_table()``,
    which products and validation read, its generators, its opposite, its
    regular and projective modules, its idempotent recollements, and the
    weak table that makes each module over it one object), so it is freed
    with the algebra; it is no field, so it takes no part in equality,
    hashing or ``repr``, and ``__post_init__`` starts a fresh one on every
    instance, a ``_replace`` copy included.
    """

    field: Field
    basis_labels: tuple[str, ...]
    mult: tuple[tuple[tuple, ...], ...]
    unit: tuple
    idempotent_indices: tuple[int, ...]
    vertex_names: tuple[str, ...]
    radical: Subspace

    def __post_init__(self) -> None:
        self.__dict__["cache"] = {}

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def zero_vec(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vec(self, i: int) -> tuple:
        z = self.field.zero
        return tuple(self.field.one if j == i else z for j in range(self.dim))

    def idempotent_vec(self, vertex: str) -> tuple:
        i = self.vertex_names.index(vertex)
        return self.basis_vec(self.idempotent_indices[i])

    def idempotent_sum(self, vertices: Sequence[str]) -> tuple:
        out = list(self.zero_vec())
        for v in vertices:
            out[self.idempotent_indices[self.vertex_names.index(v)]] += 1
        return tuple(map(self.field.norm, out))

    def sparse_table(self) -> tuple:
        """``sparse_table()[i][j]`` lists the (k, c) with c = mult[i][j][k]
        nonzero: the product b_i * b_j with its zero coordinates left out.
        Built once from ``mult`` as given and kept in ``cache``."""
        if "sparse" not in self.cache:
            self.cache["sparse"] = tuple(
                tuple(tuple((k, c) for k, c in enumerate(prod) if c) for prod in row)
                for row in self.mult)
        return self.cache["sparse"]

    def sum_of_products(self, terms: Iterable[tuple]) -> tuple:
        """The coordinates of the sum of c * b_i * b_j over the (c, i, j) in
        ``terms``, each product read off the sparse table."""
        F, table = self.field, self.sparse_table()
        acc = {}
        for c, i, j in terms:
            for k, m in table[i][j]:
                acc[k] = acc.get(k, 0) + c * m
        out, norm = [F.zero] * self.dim, F.norm
        for k, s in acc.items():
            out[k] = norm(s)
        return tuple(out)

    def mul_vec(self, x: Sequence, y: Sequence) -> tuple:
        """x * y, summed over the nonzero entries of x and y and the nonzero
        structure constants.  The same sum as ``sum_of_products`` over the
        pairs (x_i y_j, i, j), written out because this is the hot product:
        building those triples costs it about 40 %."""
        F, table = self.field, self.sparse_table()
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        acc = {}
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in ys:
                c = xi * yj
                for k, m in row[j]:
                    acc[k] = acc.get(k, 0) + c * m
        out, norm = [F.zero] * self.dim, F.norm
        for k, s in acc.items():
            out[k] = norm(s)
        return tuple(out)

    def right_mult_matrix(self, a: Sequence) -> Matrix:
        """Matrix of x |-> x*a on row vectors."""
        ent = tuple(x for i in range(self.dim) for x in self.mul_vec(self.basis_vec(i), a))
        return Matrix(self.field, self.dim, self.dim, ent)

    def left_mult_matrix(self, a: Sequence) -> Matrix:
        """Matrix of x |-> a*x on row vectors."""
        ent = tuple(x for i in range(self.dim) for x in self.mul_vec(a, self.basis_vec(i)))
        return Matrix(self.field, self.dim, self.dim, ent)

    def generating_vectors(self) -> tuple[tuple, ...]:
        """The vertex idempotents and a basis of a complement of rad^2 in
        rad: the radical's basis rows outside the span of rad^2 and of the
        rows before them, read off one elimination of rad^2's basis stacked
        over them.  These generate the algebra, since A is the sum of the
        k e_v and rad, and rad is nilpotent.  Linear conditions such as
        "intertwines the action" need only be imposed on them.  Built once
        into ``cache``; on a bound quiver algebra they are the vertex
        idempotents and the arrows."""
        if "generators" not in self.cache:
            rows = self.radical.basis.row_list()
            products = tuple(z for x in rows for y in rows for z in self.mul_vec(x, y))
            square = Matrix(self.field, len(rows) ** 2, self.dim, products).row_space().basis
            kept = square.stack(self.radical.basis).independent_rows(square.rows)
            self.cache["generators"] = (tuple(self.basis_vec(i) for i in self.idempotent_indices)
                                        + tuple(rows[i - square.rows] for i in kept))
        return self.cache["generators"]


def build_bound_quiver_algebra(pres: Presentation, field: Field) -> Algebra:
    """Build the path algebra of the quiver modulo the relation ideal.

    Relations must be admissible: every term is a composable path of length
    at least 2 and each relation is homogeneous in (source, target).  Paths
    are ordered by length, a longer path being larger, and at equal length
    the lexicographically smaller arrow sequence is larger.  The relations
    are completed to a Gröbner basis in that order (E. L. Green, 1999;
    T. Mora, 1994), kept as rewrite rules tip -> normal form: a pending
    element reduced to a nonzero one becomes a rule, the rules whose tips
    contain its tip go back to pending, and each overlap of its tip with a
    tip adds an S-element.  Pending elements are taken shortest tip first,
    so that no chain of ever longer tips starves the others.

    The basis is the normal words, the paths that contain no tip, ordered
    by (length, source, arrow sequence); ``b_i * b_j`` is the normal form of
    the concatenation.  The caps bound the answer, not the search: a tip or
    a normal word longer than ``DEFAULT_LENGTH_BOUND``, or more than
    ``PATH_CAP`` normal words, raise ``PossiblyInfiniteError``.
    """
    quiver, F, norm = pres.quiver, field, field.norm
    nv = len(quiver.vertices)
    ends = [(quiver.vertex_index(s), quiver.vertex_index(t)) for _, s, t in quiver.arrows]

    # validate relations; each becomes a dict arrow tuple -> coefficient
    parsed: list[dict] = []
    for ridx, rel in enumerate(pres.relations):
        terms: dict = {}
        sig = None
        for coeff, arrows in rel:
            c = F.of(coeff)
            if c == F.zero:
                continue
            if len(arrows) < 2:
                raise NonAdmissibleError(f"relation {ridx}: term of length {len(arrows)} (< 2)")
            src = here = ends[arrows[0]][0]
            for a in arrows:
                if ends[a][0] != here:
                    raise AlgebraError(f"relation {ridx}: non-composable path")
                here = ends[a][1]
            if sig is None:
                sig = (src, here)
            elif sig != (src, here):
                raise AlgebraError(f"relation {ridx}: terms not homogeneous in (source, target)")
            terms[tuple(arrows)] = norm(terms.get(tuple(arrows), 0) + c)
        parsed.append(terms)

    def order(w: tuple) -> tuple:  # sorts the largest path first
        return (-len(w), w)

    rules: dict[tuple, dict] = {}  # tip -> its normal form
    tip_lengths: list[int] = []

    def find_tip(w: tuple):
        for i in range(len(w)):
            for n in tip_lengths:
                if w[i:i + n] in rules:
                    return i, w[i:i + n]
        return None

    def reduce(poly: dict) -> dict:
        """The normal form of ``poly``, rewriting its largest term first."""
        poly, out = dict(poly), {}
        while poly:
            w = min(poly, key=order)
            c = poly.pop(w)
            if c and (hit := find_tip(w)) is None:
                out[w] = c
            elif c:
                i, tip = hit
                for u, d in rules[tip].items():
                    v = w[:i] + u + w[i + len(tip):]
                    poly[v] = norm(poly.get(v, 0) + c * d)
        return out

    pending: list[tuple[int, dict]] = []  # (length of the longest term, element)

    def push(poly: dict) -> None:
        if any(poly.values()):
            pending.append((max(len(w) for w, c in poly.items() if c), poly))

    for rel in parsed:
        push(rel)
    while pending:
        # the first of the shortest, so equal lengths are taken in turn
        f = reduce(pending.pop(min(range(len(pending)), key=lambda i: pending[i][0]))[1])
        if not f:
            continue
        tip = min(f, key=order)
        if len(tip) > DEFAULT_LENGTH_BOUND:
            raise PossiblyInfiniteError(f"Gröbner basis tip of length {len(tip)} (bound {DEFAULT_LENGTH_BOUND})")
        scale = -F.inv(f.pop(tip))
        tail = {w: norm(c * scale) for w, c in f.items()}
        n = len(tip)
        for t in [t for t in rules if any(t[i:i + n] == tip for i in range(len(t) - n + 1))]:
            push({t: F.one, **{w: norm(-c) for w, c in rules.pop(t).items()}})
        rules[tip] = tail
        tip_lengths[:] = sorted({len(t) for t in rules})
        # an overlap p = x s, q = s y of tips gives (p - tail_p) y - x (q - tail_q)
        for t, t_tail in list(rules.items()):
            for p, q, p_tail, q_tail in ((tip, t, tail, t_tail), (t, tip, t_tail, tail))[:1 + (t != tip)]:
                for k in range(1, min(len(p), len(q))):
                    if p[len(p) - k:] == q[:k]:
                        x, y = p[:len(p) - k], q[k:]
                        spoly = {x + u: c for u, c in q_tail.items()}
                        for u, c in p_tail.items():
                            spoly[u + y] = norm(spoly.get(u + y, 0) - c)
                        push(spoly)

    def target(p: Path) -> int:
        return ends[p[1][-1]][1] if p[1] else p[0]

    out_arrows: list[list[int]] = [[] for _ in range(nv)]
    for a, (s, _) in enumerate(ends):
        out_arrows[s].append(a)
    # extending in arrow order keeps each length sorted by (source, arrows)
    basis_paths: list[Path] = [(v, ()) for v in range(nv)]
    layer = basis_paths
    for length in itertools.count(1):
        layer = [(v, w + (a,)) for v, w in layer for a in out_arrows[target((v, w))]
                 if not any((w + (a,))[-n:] in rules for n in tip_lengths)]
        if not layer:
            break
        if length > DEFAULT_LENGTH_BOUND:
            raise PossiblyInfiniteError(
                f"normal words still growing at length {length} (bound {DEFAULT_LENGTH_BOUND})")
        basis_paths += layer
        if len(basis_paths) > PATH_CAP:
            raise PossiblyInfiniteError(f"more than {PATH_CAP} normal words")
    dim = len(basis_paths)
    index_of = {w: i for i, (_, w) in enumerate(basis_paths) if w}
    zero = (F.zero,) * dim

    def product(p: Path, q: Path) -> tuple:
        if target(p) != q[0]:
            return zero
        out = [F.zero] * dim
        for w, c in reduce({p[1] + q[1]: F.one}).items():
            out[index_of[w] if w else p[0]] = c  # the vertex idempotents come first
        return tuple(out)

    rad_ent = tuple(F.one if j == i else F.zero for i in range(nv, dim) for j in range(dim))
    alg = Algebra(
        field=F,
        basis_labels=tuple(_path_label(quiver, p) for p in basis_paths),
        mult=tuple(tuple(product(p, q) for q in basis_paths) for p in basis_paths),
        unit=tuple(F.one if i < nv else F.zero for i in range(dim)),
        idempotent_indices=tuple(range(nv)),
        vertex_names=quiver.vertices,
        radical=Matrix(F, dim - nv, dim, rad_ent).row_space(),
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"bound quiver construction failed validation: {report.issues}")
    return alg


class ValidationReport(Value):
    ok: bool
    issues: tuple[tuple[str, str], ...]  # (check name, witness)


def validate_algebra(a: Algebra) -> ValidationReport:
    """Check every structural invariant of an Algebra.

    Products of basis elements are read off ``a.sparse_table()``, so the
    dim^3 associativity triples cost the nonzero structure constants they
    touch, not a dense product each."""
    F, one, labels = a.field, a.field.one, a.basis_labels
    table = a.sparse_table()
    prod = a.sum_of_products
    issues: list[tuple[str, str]] = []

    units = [(u, m) for m, u in enumerate(a.unit) if u]
    for i in range(a.dim):
        b = a.basis_vec(i)
        if prod((u, m, i) for u, m in units) != b or prod((u, i, m) for u, m in units) != b:
            issues.append(("unit", f"unit fails on basis element {labels[i]}"))
            break

    # the first (b_i b_j) b_k that differs from b_i (b_j b_k); both are zero
    # when neither product is in the table
    for i, j, k in itertools.islice(
            ((i, j, k) for i in range(a.dim) for j, ij in enumerate(table[i]) for k, jk in enumerate(table[j])
             if (ij or jk) and prod((c, m, k) for m, c in ij) != prod((c, i, m) for m, c in jk)), 1):
        issues.append(("associativity",
                       f"({labels[i]}*{labels[j]})*{labels[k]} != {labels[i]}*({labels[j]}*{labels[k]})"))

    idx = a.idempotent_indices
    for v, i in zip(a.vertex_names, idx):
        if prod([(one, i, i)]) != a.basis_vec(i):
            issues.append(("idempotent", f"e_{v} is not idempotent"))
    for (v, i), (w, j) in itertools.combinations(zip(a.vertex_names, idx), 2):
        if any(prod([(one, i, j)])) or any(prod([(one, j, i)])):
            issues.append(("orthogonality", f"e_{v} * e_{w} != 0"))
    if tuple(a.idempotent_sum(a.vertex_names)) != tuple(a.unit):
        issues.append(("idempotent-sum", "vertex idempotents do not sum to the unit"))

    # radical: two-sided ideal, nilpotent
    rad = a.radical
    if rad.ambient != a.dim:
        issues.append(("radical", "ambient dimension mismatch"))
    else:
        # the first r b_i, then b_i r, outside the radical, r a basis row of it
        rows = [[(c, m) for m, c in enumerate(row) if c] for row in rad.basis.row_list()]
        for i, left in itertools.islice(
                ((i, left) for rv in rows for i in range(a.dim) for left in (True, False)
                 if not rad.contains(prod((c, m, i) if left else (c, i, m) for c, m in rv))), 1):
            side = f"rad*{labels[i]}" if left else f"{labels[i]}*rad"
            issues.append(("radical-ideal", f"{side} leaves the radical"))
        power, k = rad, 1
        while power.dim > 0 and k <= a.dim:
            ent = tuple(x for i in range(power.dim) for j in range(rad.dim)
                        for x in a.mul_vec(power.basis.row(i), rad.basis.row(j)))
            power = Matrix(F, power.dim * rad.dim, a.dim, ent).row_space()
            k += 1
        if power.dim > 0:
            issues.append(("radical-nilpotent", f"rad^{k} still nonzero"))

    # split semisimple quotient: e_v (A/rad) e_w is k for v=w, 0 otherwise.
    # When every check above passed, the e_v are orthogonal idempotents
    # summing to 1 and rad is a two-sided ideal, so A/rad is the direct sum
    # of the e_v (A/rad) e_w.  No e_v, a basis element, lies in the
    # nilpotent rad (else e_v = e_v^k = 0), so every diagonal block is
    # nonzero, and dim A - dim rad = number of vertices decides every pair
    # at once.  Otherwise the pair loop runs and names each pair that fails.
    if not issues and a.dim - rad.dim == len(a.vertex_names):
        return ValidationReport(ok=True, issues=())
    proj, _ = a.radical.quotient_maps()
    for vi, v in enumerate(a.vertex_names):
        for wi, w in enumerate(a.vertex_names):
            # the nonzero e_v b_i e_w span the corner
            rows = (prod((c, m, idx[wi]) for m, c in table[idx[vi]][i]) for i in range(a.dim))
            corner = [r for r in rows if any(r)]
            img = (Matrix(F, len(corner), a.dim, tuple(x for r in corner for x in r)) @ proj).row_space()
            want = 1 if vi == wi else 0
            if img.dim != want:
                issues.append(("split-semisimple", f"dim e_{v}(A/rad)e_{w} = {img.dim}, expected {want}"))
    return ValidationReport(ok=not issues, issues=tuple(issues))


def _map_issues(s: Algebra, t: Algebra, m: Matrix, unit: Sequence) -> list[tuple[str, str]]:
    """Where the linear map from ``s`` to ``t`` with row k the image of b_k
    is no algebra map: the first b_i, b_j with m(b_i b_j) != m(b_i) m(b_j),
    summed over nonzero structure constants, and a unit not sent to ``unit``."""
    n, norm = s.dim, s.field.norm
    rows = [[(k, c) for k, c in enumerate(r) if c] for r in m.row_list()]
    source, target = s.sparse_table(), t.sparse_table()
    issues = []
    for i, j in itertools.product(range(n), repeat=2):
        acc = {}
        for k, c in source[i][j]:
            for l, x in rows[k]:
                acc[l] = acc.get(l, 0) + c * x
        for (k, x), (l, y) in itertools.product(rows[i], rows[j]):
            for u, c in target[k][l]:
                acc[u] = acc.get(u, 0) - x * y * c
        if any(map(norm, acc.values())):
            issues.append(("product", f"{s.basis_labels[i]}*{s.basis_labels[j]} maps off the product"))
            break
    if (Matrix(s.field, 1, n, s.unit) @ m).entries != tuple(unit):
        issues.append(("unit", "the unit maps off the unit of the image"))
    return issues


def _derived_algebra(a: Algebra, labels: Sequence[str], vertices: Sequence[str], vectors: Sequence[tuple],
                     coords: Callable[[Matrix], Matrix], what: str, certify: Callable[[Algebra], list]) -> Algebra:
    """The corner or quotient of ``a`` on ``labels``, written by one call of
    ``coords`` (``a``-vectors to coordinates) on ``vectors``, the products
    b_i * b_j row-major, the radical's rows and the unit, and on the
    idempotents of ``vertices``, each of which must come out a unit vector.

    ``a`` is validated, so the result is certified against it instead, for
    dim^2 products and no triples: ``certify`` gives the ``_map_issues`` of
    the map between the two, and
    * the projection pi: A -> Q is onto, so if pi(b_i b_j) = pi(b_i) pi(b_j)
      for A's basis, pi is an algebra surjection: AeA = ker pi is an ideal,
      Q is associative with unit pi(1), and rad Q = pi(rad A);
    * the embedding iota of eAe in A is one to one, so if iota(c_i c_j) =
      iota(c_i) iota(c_j) for its basis and iota(1) = e, eAe is a subalgebra
      with unit e, and its radical is e rad(A) e.
    Either way the vertex idempotents are orthogonal and sum to the unit,
    and the radical rows span a nilpotent ideal; it is the radical, with a
    split quotient, when dim - dim rad is the number of vertices."""
    F, n = a.field, len(labels)
    vectors = [*vectors, *(a.idempotent_vec(v) for v in vertices)]
    sol = coords(Matrix(F, len(vectors), a.dim, tuple(x for v in vectors for x in v)))
    unit = sol.rows - len(vertices) - 1
    idem = []
    for v, t in zip(vertices, range(unit + 1, sol.rows)):
        ones = [k for k, x in enumerate(sol.row(t)) if x]
        if len(ones) != 1 or sol[t, ones[0]] != F.one:
            raise AlgebraError(f"idempotent e_{v} does not survive as a basis class")
        idem.append(ones[0])
    alg = Algebra(
        field=F,
        basis_labels=tuple(labels),
        mult=tuple(tuple(sol.row(i * n + j) for j in range(n)) for i in range(n)),
        unit=sol.row(unit),
        idempotent_indices=tuple(idem),
        vertex_names=tuple(vertices),
        # the radical's rows lie between the products and the unit
        radical=Matrix(F, unit - n * n, n, sol.entries[n ** 3:unit * n]).row_space(),
    )
    issues = certify(alg)
    if alg.dim - alg.radical.dim != len(vertices):
        issues.append(("split-semisimple", f"dim - dim rad = {alg.dim - alg.radical.dim} != {len(vertices)}"))
    if issues:
        raise AlgebraError(f"{what} algebra failed validation: {tuple(issues)}")
    return alg


class CornerData(Value):
    algebra: Algebra
    embed: Matrix          # corner dim x parent dim: corner basis as parent vectors


def corner_algebra(a: Algebra, vertices: Sequence[str]) -> CornerData:
    """The corner algebra eAe for e the sum of the named (distinct) vertex
    idempotents; the zero algebra for e = 0.  Its basis is the e_v, then each
    e b_i e outside the span of those before it, read off one elimination."""
    F, mul = a.field, a.mul_vec
    e = a.idempotent_sum(vertices)
    rows = [a.idempotent_vec(v) for v in vertices]
    cands = rows + [mul(mul(e, a.basis_vec(i)), e) for i in range(a.dim)]
    kept = Matrix(F, len(cands), a.dim, tuple(x for r in cands for x in r)).independent_rows(len(rows))
    rows += [cands[i] for i in kept]
    labels = [f"e_{v}" for v in vertices] + [a.basis_labels[i - len(vertices)] for i in kept]
    embed = Matrix(F, len(rows), a.dim, tuple(x for r in rows for x in r))

    def coords(targets: Matrix) -> Matrix:
        try:
            return embed.solve_left(targets)
        except InconsistentSystem:
            raise AlgebraError("corner product left the corner span") from None

    vectors = ([mul(x, y) for x in rows for y in rows]
               + [mul(mul(e, a.radical.basis.row(r)), e) for r in range(a.radical.dim)] + [e])
    alg = _derived_algebra(a, labels, vertices, vectors, coords, "corner", lambda c: _map_issues(c, a, embed, e))
    return CornerData(algebra=alg, embed=embed)


class QuotientData(Value):
    algebra: Algebra
    projection: Matrix     # parent dim x quotient dim
    section: Matrix        # quotient dim x parent dim


def quotient_by_idempotent_ideal(a: Algebra, vertices: Sequence[str], a_e: Matrix, e_a: Matrix) -> QuotientData:
    """The quotient A/AeA for e the sum of the named vertex idempotents,
    given bases of Ae and eA.

    AeA is spanned by the products of the two bases, since a e b = (a e)(e b).
    The quotient's basis is the classes of the b_i off the ideal's pivots.
    The projection is an algebra surjection; the section picks coordinate
    representatives (a linear, not multiplicative, splitting).
    """
    products = tuple(x for u in a_e.row_list() for w in e_a.row_list() for x in a.mul_vec(u, w))
    ideal = Matrix(a.field, a_e.rows * e_a.rows, a.dim, products).row_space()
    proj, sec = ideal.quotient_maps()
    # the section picks the basis elements off the ideal's pivots
    kept = [j for j in range(a.dim) if j not in ideal.pivots]
    vectors = [a.mult[i][j] for i in kept for j in kept] + a.radical.basis.row_list() + [a.unit]
    alg = _derived_algebra(a, [a.basis_labels[j] for j in kept], [v for v in a.vertex_names if v not in vertices],
                           vectors, lambda t: t @ proj, "quotient", lambda q: _map_issues(a, q, proj, q.unit))
    return QuotientData(algebra=alg, projection=proj, section=sec)


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed multiplication.

    Built once per algebra and kept in its ``cache``; the opposite's cache
    points back, so ``opposite(opposite(a)) is a`` and a module's dual's
    dual is the module itself.  The reference cycle between the two is
    freed by the garbage collector.
    """
    if "opposite" not in a.cache:
        mult = tuple(tuple(a.mult[j][i] for j in range(a.dim)) for i in range(a.dim))
        op = Algebra(
            field=a.field,
            basis_labels=a.basis_labels,
            mult=mult,
            unit=a.unit,
            idempotent_indices=a.idempotent_indices,
            vertex_names=a.vertex_names,
            radical=a.radical,
        )
        op.cache["opposite"] = a
        a.cache["opposite"] = op
    return a.cache["opposite"]
