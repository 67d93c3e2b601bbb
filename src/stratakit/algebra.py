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
from typing import Iterable, NamedTuple, Sequence

from .linalg import Field, InconsistentSystem, Matrix, Subspace, Value


class NonAdmissibleError(ValueError):
    """A relation touches paths of length < 2."""


class PossiblyInfiniteError(ValueError):
    """Path spans failed to stabilize below the length bound."""


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


class Presentation(NamedTuple):
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


def _path_target(quiver: Quiver, p: Path) -> int:
    v, arrows = p
    if not arrows:
        return v
    return quiver.vertex_index(quiver.arrows[arrows[-1]][2])


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
    regular module, its projective, simple and injective modules, its
    idempotent recollements, resolutions of its modules), so it is freed
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
        rad, in RREF order: these generate the algebra, since A is the sum
        of the k e_v and rad, and rad is nilpotent.  Linear conditions such
        as "intertwines the action" need only be imposed on them.  Built
        once into ``cache``; on a bound quiver algebra they are the vertex
        idempotents and the arrows."""
        if "generators" not in self.cache:
            F, rows = self.field, self.radical.basis.row_list()
            products = tuple(z for x in rows for y in rows for z in self.mul_vec(x, y))
            span = Matrix(F, len(rows) ** 2, self.dim, products).row_space()
            gens = [self.basis_vec(i) for i in self.idempotent_indices]
            for r in rows:
                if not span.contains(r):
                    gens.append(r)
                    span = span.sum(Matrix(F, 1, self.dim, r).row_space())
            self.cache["generators"] = tuple(gens)
        return self.cache["generators"]


def build_bound_quiver_algebra(pres: Presentation, field: Field) -> Algebra:
    """Build the path algebra of the quiver modulo the relation ideal.

    Relations must be admissible: every term is a composable path of length
    at least 2 and each relation is homogeneous in (source, target).  The
    basis consists of the path classes that survive reduction, ordered by
    (length, lexicographic arrow sequence); the construction is
    deterministic.  Raises ``PossiblyInfiniteError`` if the surviving path
    classes do not stabilize below ``DEFAULT_LENGTH_BOUND``, or if more than
    ``PATH_CAP`` paths are enumerated on the way.
    """
    quiver = pres.quiver
    F = field
    nv = len(quiver.vertices)

    # validate relations
    parsed: list[list[tuple[object, Path]]] = []
    for ridx, rel in enumerate(pres.relations):
        terms: list[tuple[object, Path]] = []
        sig = None
        for coeff, arrows in rel:
            c = F.of(coeff)
            if c == F.zero:
                continue
            if len(arrows) < 2:
                raise NonAdmissibleError(
                    f"relation {ridx}: term of length {len(arrows)} (< 2)"
                )
            src = quiver.vertex_index(quiver.arrows[arrows[0]][1])
            here = src
            for a in arrows:
                if quiver.vertex_index(quiver.arrows[a][1]) != here:
                    raise AlgebraError(f"relation {ridx}: non-composable path")
                here = quiver.vertex_index(quiver.arrows[a][2])
            if sig is None:
                sig = (src, here)
            elif sig != (src, here):
                raise AlgebraError(f"relation {ridx}: terms not homogeneous in (source, target)")
            terms.append((c, (src, tuple(arrows))))
        if terms:
            parsed.append(terms)

    max_rel_len = max((len(p[1]) for rel in parsed for _, p in rel), default=2)

    # arrows by source vertex, in index order (keeps enumeration lexicographic)
    out_arrows: list[list[int]] = [[] for _ in range(nv)]
    for ai, (_, s, _) in enumerate(quiver.arrows):
        out_arrows[quiver.vertex_index(s)].append(ai)

    def enumerate_paths(upto: int) -> list[list[Path]]:
        by_len: list[list[Path]] = [[(v, ()) for v in range(nv)]]
        total = nv
        for ln in range(1, upto + 1):
            nxt: list[Path] = []
            for (src, arrows) in by_len[ln - 1]:
                tgt = _path_target(quiver, (src, arrows))
                for a in out_arrows[tgt]:
                    nxt.append((src, arrows + (a,)))
            total += len(nxt)
            if total > PATH_CAP:
                raise PossiblyInfiniteError(
                    f"more than {PATH_CAP} paths below length {upto}"
                )
            by_len.append(nxt)
        return by_len

    level = max(2, max_rel_len)
    while True:
        by_len = enumerate_paths(level)
        paths: list[Path] = [p for chunk in by_len for p in chunk]
        # coordinates ordered longest-first so pivots rewrite long into short
        order = sorted(range(len(paths)), key=lambda i: (-len(paths[i][1]), paths[i]))
        coord_of = {paths[i]: pos for pos, i in enumerate(order)}
        ncoords = len(paths)

        # span of x * r * y over all composable paths x, y within the level
        gens: list[tuple] = []
        for rel in parsed:
            rlen = max(len(p[1]) for _, p in rel)
            rsrc = rel[0][1][0]
            rtgt = _path_target(quiver, rel[0][1])
            for xlen in range(0, level - rlen + 1):
                for x in by_len[xlen]:
                    if _path_target(quiver, x) != rsrc:
                        continue
                    for ylen in range(0, level - rlen - xlen + 1):
                        for y in by_len[ylen]:
                            if y[0] != rtgt:
                                continue
                            vec = [F.zero] * ncoords
                            for c, (psrc, parr) in rel:
                                comp = (x[0], x[1] + parr + y[1])
                                vec[coord_of[comp]] = F.norm(vec[coord_of[comp]] + c)
                            gens.append(tuple(vec))
        ideal = Matrix(F, len(gens), ncoords, tuple(x for g in gens for x in g)).row_space()

        pivots = set(ideal.pivots)
        live = [paths[i] for pos, i in enumerate(order) if pos not in pivots]
        s = max((len(p[1]) for p in live), default=0)

        if level >= 2 * s + max_rel_len:
            break
        nxt = max(2 * s + max_rel_len, level + 1)
        if nxt > DEFAULT_LENGTH_BOUND:
            raise PossiblyInfiniteError(
                f"path classes still growing at length {level} (bound {DEFAULT_LENGTH_BOUND})"
            )
        level = nxt

    basis_paths = sorted(live, key=lambda p: (len(p[1]), p))
    index_of = {p: i for i, p in enumerate(basis_paths)}
    dim = len(basis_paths)

    # column c of the ideal's quotient projection is the class of live[c]
    proj, _ = ideal.quotient_maps()
    basis_index = [index_of[p] for p in live]

    def reduce_path(p: Path) -> tuple:
        """Class of path p in basis-path coordinates."""
        out = [F.zero] * dim
        for i, x in zip(basis_index, proj.row(coord_of[p])):
            out[i] = x
        return tuple(out)

    zero = (F.zero,) * dim
    mult_rows = []
    for p in basis_paths:
        row = []
        for q in basis_paths:
            if _path_target(quiver, p) != q[0]:
                row.append(zero)
            else:
                row.append(reduce_path((p[0], p[1] + q[1])))
        mult_rows.append(tuple(row))

    unit = [F.zero] * dim
    idem_indices = []
    for v in range(nv):
        i = index_of[(v, ())]
        idem_indices.append(i)
        unit[i] = F.one

    rad_vecs = [basis_paths[i] for i in range(dim) if len(basis_paths[i][1]) >= 1]
    rad_ent = tuple(F.one if j == index_of[p] else F.zero for p in rad_vecs for j in range(dim))
    rad = Matrix(F, len(rad_vecs), dim, rad_ent).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(_path_label(quiver, p) for p in basis_paths),
        mult=tuple(mult_rows),
        unit=tuple(unit),
        idempotent_indices=tuple(idem_indices),
        vertex_names=quiver.vertices,
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(
            "bound quiver construction failed validation "
            f"(raise the length bound?): {report.issues}"
        )
    return alg


class ValidationReport(NamedTuple):
    ok: bool
    issues: tuple[tuple[str, str], ...]  # (check name, witness)


def validate_algebra(a: Algebra) -> ValidationReport:
    """Check every structural invariant of an Algebra.

    Products of basis elements are read off ``a.sparse_table()``, so the
    dim^3 associativity triples cost the nonzero structure constants they
    touch, not a dense product each."""
    F = a.field
    one = F.one
    table = a.sparse_table()
    prod = a.sum_of_products
    issues: list[tuple[str, str]] = []

    units = [(u, m) for m, u in enumerate(a.unit) if u]
    for i in range(a.dim):
        b = a.basis_vec(i)
        if prod((u, m, i) for u, m in units) != b or prod((u, i, m) for u, m in units) != b:
            issues.append(("unit", f"unit fails on basis element {a.basis_labels[i]}"))
            break

    done = False
    for i in range(a.dim):
        if done:
            break
        for j in range(a.dim):
            if done:
                break
            ij, row_j = table[i][j], table[j]
            for k in range(a.dim):
                # (b_i b_j) b_k against b_i (b_j b_k); both are zero when
                # neither product is in the table
                if not ij and not row_j[k]:
                    continue
                if prod((c, m, k) for m, c in ij) != prod((c, i, m) for m, c in row_j[k]):
                    issues.append(
                        ("associativity",
                         f"({a.basis_labels[i]}*{a.basis_labels[j]})*{a.basis_labels[k]}"
                         f" != {a.basis_labels[i]}*({a.basis_labels[j]}*{a.basis_labels[k]})")
                    )
                    done = True
                    break

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
        for r in range(rad.dim):
            rv = [(c, m) for m, c in enumerate(rad.basis.row(r)) if c]
            for i in range(a.dim):
                if not rad.contains(prod((c, m, i) for c, m in rv)):
                    issues.append(("radical-ideal", f"rad*{a.basis_labels[i]} leaves the radical"))
                    break
                if not rad.contains(prod((c, i, m) for c, m in rv)):
                    issues.append(("radical-ideal", f"{a.basis_labels[i]}*rad leaves the radical"))
                    break
            else:
                continue
            break
        power = rad
        k = 1
        while power.dim > 0 and k <= a.dim:
            ent = tuple(x for i in range(power.dim) for j in range(rad.dim)
                        for x in a.mul_vec(power.basis.row(i), rad.basis.row(j)))
            power = Matrix(F, power.dim * rad.dim, a.dim, ent).row_space()
            k += 1
        if power.dim > 0:
            issues.append(("radical-nilpotent", f"rad^{k} still nonzero"))

    # split semisimple quotient: e_v (A/rad) e_w is k for v=w, 0 otherwise
    proj, _ = a.radical.quotient_maps()
    for vi, v in enumerate(a.vertex_names):
        for wi, w in enumerate(a.vertex_names):
            # the nonzero e_v b_i e_w span the corner
            rows = (prod((c, m, idx[wi]) for m, c in table[idx[vi]][i]) for i in range(a.dim))
            corner = [r for r in rows if any(r)]
            img = (Matrix(F, len(corner), a.dim, tuple(x for r in corner for x in r)) @ proj).row_space()
            want = 1 if vi == wi else 0
            if img.dim != want:
                issues.append(
                    ("split-semisimple",
                     f"dim e_{v}(A/rad)e_{w} = {img.dim}, expected {want}")
                )
    return ValidationReport(ok=not issues, issues=tuple(issues))


class CornerData(NamedTuple):
    algebra: Algebra
    embed: Matrix          # corner dim x parent dim: corner basis as parent vectors


def corner_algebra(a: Algebra, vertices: Sequence[str]) -> CornerData:
    """The corner algebra eAe for e the sum of the named vertex idempotents;
    the zero algebra for e = 0."""
    subset = list(vertices)
    if any(v not in a.vertex_names for v in subset) or len(set(subset)) != len(subset):
        raise ValueError(f"not a vertex subset: {vertices!r}")
    F = a.field
    e = a.idempotent_sum(subset)

    basis_rows: list[tuple] = []
    labels: list[str] = []
    span = Subspace.zero(F, a.dim)
    for v in subset:
        ev = a.idempotent_vec(v)
        basis_rows.append(ev)
        labels.append(f"e_{v}")
        span = span.sum(Matrix(F, 1, a.dim, ev).row_space())
    for i in range(a.dim):
        cand = a.mul_vec(a.mul_vec(e, a.basis_vec(i)), e)
        if any(x != F.zero for x in cand) and not span.contains(cand):
            basis_rows.append(cand)
            labels.append(a.basis_labels[i])
            span = span.sum(Matrix(F, 1, a.dim, cand).row_space())
    embed = Matrix(F, len(basis_rows), a.dim, tuple(x for r in basis_rows for x in r))
    cdim = embed.rows

    # one solve writes every product, the radical's corner and e in the basis
    targets = [a.mul_vec(x, y) for x in basis_rows for y in basis_rows]
    targets += [a.mul_vec(a.mul_vec(e, a.radical.basis.row(r)), e) for r in range(a.radical.dim)]
    targets.append(e)
    try:
        sol = embed.solve_left(Matrix(F, len(targets), a.dim, tuple(x for t in targets for x in t)))
    except InconsistentSystem:
        raise AlgebraError("corner product left the corner span") from None
    mult_rows = [tuple(sol.row(i * cdim + j) for j in range(cdim)) for i in range(cdim)]
    # the radical's rows lie between the products and e
    rad = Matrix(F, a.radical.dim, cdim, sol.entries[cdim ** 3:(sol.rows - 1) * cdim]).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(labels),
        mult=tuple(mult_rows),
        unit=sol.row(sol.rows - 1),
        idempotent_indices=tuple(range(len(subset))),
        vertex_names=tuple(subset),
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"corner algebra failed validation: {report.issues}")
    return CornerData(algebra=alg, embed=embed)


class QuotientData(NamedTuple):
    algebra: Algebra
    projection: Matrix     # parent dim x quotient dim
    section: Matrix        # quotient dim x parent dim


def quotient_by_idempotent_ideal(a: Algebra, vertices: Sequence[str]) -> QuotientData:
    """The quotient A/AeA for e the sum of the named vertex idempotents.

    The projection is an algebra surjection; the section picks coordinate
    representatives (a linear, not multiplicative, splitting).
    """
    subset = list(vertices)
    if any(v not in a.vertex_names for v in subset) or len(set(subset)) != len(subset):
        raise ValueError(f"not a vertex subset: {vertices!r}")
    F, one, prod = a.field, a.field.one, a.sum_of_products
    e_idx = [a.idempotent_indices[a.vertex_names.index(v)] for v in subset]

    # the span of the b_i e b_j, products read off the sparse table
    vecs = []
    for i in range(a.dim):
        bie = [(c, m) for m, c in enumerate(prod((one, i, v) for v in e_idx)) if c]
        if not bie:
            continue
        for j in range(a.dim):
            v = prod((c, m, j) for c, m in bie)
            if any(v):
                vecs.append(v)
    ideal = Matrix(F, len(vecs), a.dim, tuple(x for v in vecs for x in v)).row_space()

    # ideal stability (single pass suffices; assert it)
    for r in range(ideal.dim):
        rv = [(c, m) for m, c in enumerate(ideal.basis.row(r)) if c]
        for i in range(a.dim):
            if not ideal.contains(prod((c, m, i) for c, m in rv)) or not ideal.contains(
                prod((c, i, m) for c, m in rv)
            ):
                raise AlgebraError("idempotent ideal span not stable")

    proj, sec = ideal.quotient_maps()
    push = proj.apply_row
    surviving = [v for v in a.vertex_names if v not in subset]
    idem_indices = []
    for v in surviving:
        img = push(a.idempotent_vec(v))
        ones = [k for k, x in enumerate(img) if x != F.zero]
        if len(ones) != 1 or img[ones[0]] != F.one:
            raise AlgebraError(f"idempotent e_{v} does not survive as a basis class")
        idem_indices.append(ones[0])

    # the section picks the basis elements off the ideal's pivots
    kept = [j for j in range(a.dim) if j not in ideal.pivots]
    labels = [a.basis_labels[j] for j in kept]
    mult_rows = [tuple(push(prod([(one, i, j)])) for j in kept) for i in kept]

    rad = (a.radical.basis @ proj).row_space()

    alg = Algebra(
        field=F,
        basis_labels=tuple(labels),
        mult=tuple(mult_rows),
        unit=push(a.unit),
        idempotent_indices=tuple(idem_indices),
        vertex_names=tuple(surviving),
        radical=rad,
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise AlgebraError(f"quotient algebra failed validation: {report.issues}")
    return QuotientData(algebra=alg, projection=proj, section=sec)


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed multiplication.

    Built once per algebra and kept in its ``cache``; the opposite's cache
    points back, so ``opposite(opposite(a)) is a`` and both sides share
    their regular and projective modules and resolutions.  The reference
    cycle between the two is freed by the garbage collector.
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
