"""Exact linear algebra over GF(p) and the rationals.

This is the only numeric kernel of the package.  Everything above it
(algebras, modules, functors, filtration searches) is assembled from the
operations here, so the contract is strict: no floating point anywhere,
subspaces are kept in canonical reduced row echelon form so that equality
of subspaces is equality of representations, and every operation is pure.

Conventions:

* A vector is a tuple of field elements.  Over GF(p) they are ints in
  ``range(p)``.  Over Q a whole number is an ``int`` and any other value a
  ``Fraction``, which is never integral, so there is one representation per
  rational and whole-number arithmetic, by far the common case, runs on
  plain ints.
* There is one arithmetic path for both fields.  A loop combines entries
  in plain ``int``/``Fraction`` arithmetic, skipping zero entries, and
  brings each entry it computed back once with ``Field.norm``: x mod p over
  GF(p), over Q an ``int`` when whole.  No loop asks which field it is in.
* A ``Matrix`` is dense and row-major.  Row count 0 and column count 0 are
  both legal and show up constantly (zero modules, empty kernels).
* Linear maps act on *row* vectors: the map with matrix ``A`` sends ``v`` to
  ``v @ A``, and composition "f then g" is ``f.mat @ g.mat``.
* Values from outside the kernel enter through ``Matrix.from_rows`` or
  ``Field.of``, which coerce every entry into the field.  The package uses
  them only for values that may not be field elements yet: parsed input
  (``specfile``, ``mv.mv_data_from_spec``), relation coefficients, the
  scalar of ``Matrix.scale``.  Results computed here are field elements
  already, so linalg builds them as ``Matrix(field, rows, cols, entries)``
  directly, and so does every module above it for vectors it computed,
  spanning a subspace as ``Matrix(...).row_space()``.
* ``Matrix.solve_left`` always returns a solution; a system with none
  raises ``InconsistentSystem``.  A caller that asks a real yes/no
  question catches it; everywhere else no solution is a bug.
  A matrix keeps its elimination (``rref``), so a solve against a reduced
  basis with full row rank reads the coordinates off its pivots; any
  other matrix is solved by eliminating ``[A | I]``.
* A basis chosen from candidates is read off the pivots of one
  elimination (``Matrix.independent_rows``), never grown one vector at a
  time: the candidates outside the span of those before them.
* Every record and value type (``Matrix``, ``Subspace``,
  ``algebra.Algebra``, ``modules.RightModule``, the results of the checks)
  subclasses ``Value``, which reads its fields off the class annotations
  when the class is created.  Neither ``dataclasses`` nor
  ``typing.NamedTuple``: the one's generated methods and ``inspect``
  import, and the other's ``exec``'d ``__new__`` and one compiled
  ``ForwardRef`` per annotation, would cost every start of the command
  line.  A record is no tuple: it is neither unpacked nor indexed, and it
  equals only a record of its own class.  The frozen ones hash once:
  ``cached_hash`` keeps the hash on the instance, so a memo keyed by a
  module does not re-hash its algebra's multiplication table on every
  lookup.
"""

from __future__ import annotations

from operator import add, attrgetter, neg, sub
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # at run time the first value that is not an int loads it (``Field.of``, ``Field.inv``)
    from fractions import Fraction


class InconsistentSystem(ArithmeticError):
    """A linear system has no solution.

    Not a ``ValueError``: the handlers that turn bad input into a report
    must not mistake a failed solve, which is a program bug unless the
    caller asked for it, for bad input.
    """


class InvariantError(RuntimeError):
    """A property that the code itself guarantees does not hold: a program
    bug, never bad input.  Raised explicitly where an ``assert`` would
    vanish under ``python -O``."""


class UndecidedIsomorphism(RuntimeError):
    """No side has a local endomorphism ring and no hom basis element is an
    isomorphism: neither YES nor NO, so it is reported as undecided, never as a FAIL."""


def cached_hash(self) -> int:
    """``__hash__`` of a frozen ``Value``, computed on first use and kept on
    the instance: hash of its ``_key``, what ``==`` compares: the tuple of
    its fields, or the field itself for a one-field type (``attrgetter`` of
    one name), which ``==`` compares the same way.  Like any hash of a
    string, it is valid in this process only."""
    h = self.__dict__.get("_hash")
    if h is None:
        h = self.__dict__["_hash"] = hash(self._key(self))
    return h


class Value:
    """Base of the value types.  A subclass declares its fields as annotated
    names, which are read once, when the class is created, into ``_fields``;
    a field's default is the class attribute of its name.  The base gives
    ``==`` on the same class with equal fields, the kept hash
    (``cached_hash``), a ``Name(field=value, ...)`` repr, ``_replace`` and,
    unless the class is created with ``frozen=False`` (then it is mutable
    and unhashable), no assignment.  ``__post_init__`` runs at the end of
    ``__init__``, so also on every ``_replace`` copy.  A type built or
    compared thousands of times per run spells out its own ``__init__``
    (one ``__dict__`` update, where this one binds its arguments by name)
    or ``__eq__``."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True) -> None:
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._key = attrgetter(*cls._fields)
        # also undoes the ``__hash__ = None`` of a class body with an ``__eq__``
        cls.__hash__ = cached_hash if frozen else None
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() ^ names:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def _replace(self, **changes):
        """A copy with ``changes``, built through ``__init__``."""
        return type(self)(**{**{n: getattr(self, n) for n in self._fields}, **changes})


def _whole(x: int | Fraction) -> int | Fraction:
    """A rational in its one representation: an int when it is whole."""
    return x.numerator if x.denominator == 1 else x


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field(Value):
    """An exact field: the prime field GF(p) or the rationals.

    ``kind`` is ``"GF"`` (with ``p`` prime) or ``"Q"`` (``p`` is None).
    Elements of GF(p) are plain ints in ``range(p)``; elements of Q are
    ints when whole and otherwise ``Fraction`` instances, never one with
    denominator 1.  ``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``,
    so equality, hashing and ``str`` agree across the two.  ``norm`` is
    bound once per field, so a loop that calls it does not branch on ``kind``.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "GF":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"GF(p) needs a prime p, got {self.p!r}")
        elif self.kind == "Q":
            if self.p is not None:
                raise ValueError("the rationals take no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        # p.__rmod__(x) is x % p; GF(p) arithmetic never leaves the ints
        self.__dict__["norm"] = self.p.__rmod__ if self.kind == "GF" else _whole

    @staticmethod
    def gf(p: int) -> "Field":
        return Field("GF", p)

    @staticmethod
    def rationals() -> "Field":
        return Field("Q")

    @property
    def is_finite(self) -> bool:
        return self.kind == "GF"

    zero = 0
    one = 1

    def of(self, x) -> int | Fraction:
        """Coerce an exact number into the field: an int, a ``Fraction``, or a
        string that ``Fraction`` parses ("3", "-2/5", "0.5").  Floats are
        rejected because they are not exact, and bools because they are not
        numbers (``TypeError``); a malformed string raises ``ValueError``.
        Over Q a whole number comes back as an ``int``."""
        if isinstance(x, bool) or not isinstance(x, int):
            from fractions import Fraction  # with ``decimal``: a run on whole numbers never loads them
            if isinstance(x, str):
                x = Fraction(x)
            elif not isinstance(x, Fraction):
                raise TypeError(f"not an exact number: {x!r}")
        if self.kind == "GF":
            if not isinstance(x, int):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError(f"{x} has no image in GF({self.p})")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return x % self.p
        return _whole(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "GF":
            return pow(a, -1, self.p)
        if a in (1, -1):
            return a
        from fractions import Fraction
        return _whole(1 / Fraction(a))

    def to_json(self) -> dict:
        return {"kind": "GF", "p": self.p} if self.kind == "GF" else {"kind": "Q"}

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.kind == "GF" else "Q"


GF2 = Field.gf(2)
GF3 = Field.gf(3)
QQ = Field.rationals()


class Matrix(Value):
    """Immutable dense matrix, row-major entry tuple of length rows*cols."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple) -> None:
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.__dict__.update(field=field, rows=rows, cols=cols, entries=entries)

    def __eq__(self, other) -> bool:
        # spelled out: tens of thousands of comparisons a run, at half the
        # cost of the generic one
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.field, self.rows, self.cols, self.entries) == (
            other.field, other.rows, other.cols, other.entries)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [tuple(field.of(x) for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            ncols = cols
        if cols is not None and rows and ncols != cols:
            raise ValueError(f"expected {cols} columns, got {ncols}")
        flat = tuple(x for r in rows for x in r)
        return Matrix(field, len(rows), ncols, flat)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        ent = tuple(o if i == j else z for i in range(n) for j in range(n))
        return Matrix(field, n, n, ent)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple) -> int | Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple]:
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(map(F.norm, map(add, self.entries, other.entries))))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(map(F.norm, map(sub, self.entries, other.entries))))

    def __neg__(self) -> "Matrix":
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(map(F.norm, map(neg, self.entries))))

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.of(c)
        return Matrix(F, self.rows, self.cols, tuple(F.norm(c * a) for a in self.entries))

    @property
    def is_identity(self) -> bool:
        n, e = self.rows, self.entries
        return n == self.cols and e[::n + 1].count(1) == n and e.count(0) == n * n - n

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product sums the rows of ``other`` scaled by the
        nonzero entries of row i of ``self``, a row scaled by 1 as it is.
        An identity factor returns the other factor itself."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        F, n, m, k = self.field, self.rows, self.cols, other.cols
        a, b, norm, zeros = self.entries, other.entries, F.norm, (F.zero,) * k
        out = []
        for i in range(n):
            acc = None
            for t, x in enumerate(a[i * m : (i + 1) * m]):
                if x:
                    row = b[t * k : (t + 1) * k]
                    if x != 1:
                        row = [x * y for y in row]
                    acc = row if acc is None else list(map(add, acc, row))
            # a tuple is one row of ``other`` unscaled, field elements already
            out.extend(zeros if acc is None else acc if acc.__class__ is tuple else map(norm, acc))
        return Matrix(F, n, k, tuple(out))

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.field, self.cols, self.rows, ent)

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical stack (rows of self, then rows of other)."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        ent = tuple(x for i in range(self.rows) for x in self.row(i) + other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, ent)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: entry (i * other.rows + j, i2 * other.cols + j2)
        is self[i, i2] * other[j, j2]."""
        F = self.field
        norm, zeros = F.norm, (F.zero,) * other.cols
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for j in range(other.rows):
                brow = other.row(j)
                for c in arow:
                    out.extend(zeros if not c else brow if c == 1 else [norm(c * y) for y in brow])
        return Matrix(F, self.rows * other.rows, self.cols * other.cols, tuple(out))

    def apply_row(self, v: Sequence) -> tuple:
        """Row vector times matrix, v @ self: the rows of ``self`` scaled by
        the nonzero entries of v and summed, as in ``@``."""
        if len(v) != self.rows:
            raise ValueError("vector length mismatch")
        cols, ent = self.cols, self.entries
        acc = None
        for t, x in enumerate(v):
            if x:
                row = ent[t * cols : (t + 1) * cols]
                if x != 1:
                    row = [x * y for y in row]
                acc = row if acc is None else list(map(add, acc, row))
        return (self.field.zero,) * cols if acc is None else tuple(map(self.field.norm, acc))

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form.

        Returns (rref matrix, rank, pivot columns).  The RREF is the unique
        one with leading 1s and zeros above and below each pivot.  The shape
        is kept: zero rows are not dropped, and the rows below the rank are
        zero.  The result is kept on the instance and on the RREF, as
        ``cached_hash`` keeps the hash (``_rref`` is no field); a matrix in
        RREF, seen in one scan, comes back itself and keeps rank and pivots.
        """
        kept = self.__dict__.get("_rref")
        if kept is None and (pivots := self._reduced_pivots()) is not None:
            kept = self.__dict__["_rref"] = (None, len(pivots), pivots)
        if kept is not None:
            R, rank, pivots = kept
            return (self if R is None else R), rank, pivots
        F, norm = self.field, self.field.norm
        m = [list(self.row(i)) for i in range(self.rows)]
        nrows, ncols = self.rows, self.cols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pr = None
            for i in range(r, nrows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            piv = m[r][c]
            if piv != 1:
                inv = F.inv(piv)
                m[r] = [norm(inv * x) for x in m[r]]
            prow = m[r]
            # zero left of c: earlier pivots cleared their columns, skipped ones were zero
            cols = [j for j in range(c, ncols) if prow[j]]
            for i in range(nrows):
                f = m[i][c]
                if f and i != r:
                    _eliminate(m[i], f, prow, cols, norm)
            pivots.append(c)
            r += 1
        rank, pivots, flat = len(pivots), tuple(pivots), tuple(x for row in m for x in row)
        R = self if flat == self.entries else Matrix(F, nrows, ncols, flat)
        R.__dict__["_rref"] = (None, rank, pivots)
        if R is not self:
            self.__dict__["_rref"] = (R, rank, pivots)
        return R, rank, pivots

    def _reduced_pivots(self) -> tuple[int, ...] | None:
        """The pivots if in RREF, else None: each leading entry a 1 right of
        the one above and alone in its column, the zero rows last."""
        e, cols, rows = self.entries, self.cols, self.rows
        pivots, start = [], 0
        for i in range(rows):
            row = e[i * cols:(i + 1) * cols]
            p = row.index(1, start) if 1 in row[start:] else cols
            if any(row[:p]) or (p < cols and e[p::cols].count(0) != rows - 1):
                return None
            if p == cols:
                return tuple(pivots) if not any(e[i * cols:]) else None
            pivots.append(p)
            start = p + 1
        return tuple(pivots)

    def rank(self) -> int:
        """The rank, read off the kept elimination (``rref``)."""
        return self.rref()[1]

    def independent_rows(self, start: int = 0) -> list[int]:
        """The indices, from ``start`` on, of the rows outside the span of
        the rows before them: the pivot columns of the transpose's RREF."""
        return [i for i in self.transpose().rref()[2] if i >= start]

    def row_space(self) -> "Subspace":
        return Subspace.from_matrix(self)

    def left_kernel(self) -> "Subspace":
        """{v : v @ self = 0} as a subspace of k^rows."""
        # Solve by eliminating self^T: kernel of x |-> x @ A equals kernel
        # of A^T acting on column vectors, i.e. classic null space of A^T.
        at = self.transpose()
        R, rank, piv = at.rref()
        F = self.field
        n = self.rows
        free = [j for j in range(n) if j not in piv]
        ent = []
        for fc in free:
            v = [F.zero] * n
            v[fc] = F.one
            for r, pc in enumerate(piv):
                v[pc] = F.norm(-R[r, fc])
            ent.extend(v)
        return Subspace.from_matrix(Matrix(F, len(free), n, tuple(ent)))

    def solve_left(self, target: "Matrix") -> "Matrix":
        """Find X with X @ self = target; ``InconsistentSystem`` if none.

        ``self`` is (n x m), ``target`` is (k x m), X is (k x n).  This is
        the workhorse for re-expressing vectors in a spanning set.  Against
        its own RREF with full row rank (a ``Subspace`` basis), X is unique:
        each target row's entries at the pivots, checked by one product.
        """
        if target.cols != self.cols:
            raise ValueError("column mismatch in solve_left")
        F = self.field
        n = self.rows
        R, rank, piv = self.rref()
        if R is self and rank == n:
            x = Matrix(F, target.rows, n, tuple(target.entries[t * self.cols + pc]
                                                for t in range(target.rows) for pc in piv))
            back = x @ self
            if back != target:
                t = next(t for t in range(target.rows) if back.row(t) != target.row(t))
                raise InconsistentSystem(
                    f"target row {t} is not in the row space of a {self.rows} x {self.cols} matrix")
            return x
        # Row-reduce [self | I] so each target row can be expressed.
        aug = self.hstack(Matrix.identity(F, n))
        R, rank, piv = aug.rref()
        # Pivots inside the first self.cols columns give usable rows, each
        # kept with the columns where it is nonzero.
        usable = [(pc, R.row(r)) for r, pc in enumerate(piv) if pc < self.cols]
        usable = [(pc, row, [j for j, y in enumerate(row) if y]) for pc, row in usable]
        norm, ent = F.norm, []
        for t in range(target.rows):
            v = list(target.row(t)) + [F.zero] * n
            for pc, row, cols in usable:
                f = v[pc]
                if f:
                    _eliminate(v, f, row, cols, norm)
            if any(v[: self.cols]):
                raise InconsistentSystem(
                    f"target row {t} is not in the row space of a {self.rows} x {self.cols} matrix")
            ent.extend(norm(-x) for x in v[self.cols :])
        return Matrix(F, target.rows, n, tuple(ent))


def _eliminate(row: list, f, pivot_row: Sequence, cols: Sequence[int], norm) -> None:
    """The elimination step: row -= f * pivot_row in place, at ``cols``,
    the columns where pivot_row is nonzero."""
    for j in cols:
        row[j] = norm(row[j] - f * pivot_row[j])


def intertwiner_basis(field: Field, pairs: Sequence[tuple["Matrix", "Matrix"]], n: int, m: int) -> list["Matrix"]:
    """RREF-canonical basis of {X (n x m) : A_i @ X = X @ B_i for all i}.

    Unknown k * m + l is the entry X[k, l]; with no pairs there are no
    equations, and the kernel is the unit basis of all n x m matrices.
    """
    ncons = len(pairs) * n * m
    ent = [field.zero] * (n * m * ncons)
    for k in range(n):
        for l in range(m):
            row = (k * m + l) * ncons
            for pi, (A, B) in enumerate(pairs):
                base = row + pi * n * m
                # A_i writes each entry once; B_i meets it only at i, j = k, l
                for i in range(n):
                    c = A[i, k]
                    if c:
                        ent[base + i * m + l] = c
                for j in range(m):
                    c = B[l, j]
                    if c:
                        idx = base + k * m + j
                        ent[idx] = field.norm(ent[idx] - c)
    ker = Matrix(field, n * m, ncons, tuple(ent)).left_kernel()
    return [Matrix(field, n, m, ker.basis.row(i)) for i in range(ker.dim)]


class Subspace(Value):
    """A subspace of k^ambient, basis stored as an RREF matrix.

    Canonical: two subspaces are equal iff their fields are equal.
    ``pivots`` are the pivot columns of the basis rows, as ``rref`` returns
    them.
    """

    ambient: int
    basis: Matrix  # rank x ambient, in RREF with no zero rows
    pivots: tuple[int, ...]

    def __init__(self, ambient: int, basis: Matrix, pivots: tuple[int, ...]) -> None:
        self.__dict__.update(ambient=ambient, basis=basis, pivots=pivots)

    @staticmethod
    def from_matrix(m: Matrix) -> "Subspace":
        R, rank, piv = m.rref()
        if rank < R.rows:
            R = Matrix(m.field, rank, m.cols, R.entries[: rank * m.cols])
            R.__dict__["_rref"] = (None, rank, piv)
        return Subspace(m.cols, R, piv)

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix(field, 0, ambient, ()), ())

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Sequence) -> bool:
        """v lies in the span iff it is the combination of the basis rows
        with its own pivot coordinates as coefficients."""
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        return self.basis.apply_row([v[pc] for pc in self.pivots]) == tuple(v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(other.basis.row(i)) for i in range(other.dim))

    def quotient_maps(self) -> tuple[Matrix, Matrix]:
        """Projection/section pair for k^ambient / self.

        Returns (projection, section): projection is (ambient x q) sending a
        row vector to quotient coordinates (classes of the non-pivot
        coordinate vectors), section is (q x ambient) choosing those
        coordinate vectors as representatives; projection after section is
        the identity on the quotient (row convention: section @ projection).
        In closed form, row j of the projection is the unit vector of j off
        the pivots, and -(basis row r) on the non-pivots at the pivot of row r.
        Kept on the instance, as the hash is.
        """
        kept = self.__dict__.get("_quotient")
        if kept is not None:
            return kept
        F = self.field
        row_of = {pc: r for r, pc in enumerate(self.pivots)}
        nonpiv = [j for j in range(self.ambient) if j not in row_of]
        proj = []
        for j in range(self.ambient):
            if j in row_of:
                row = self.basis.row(row_of[j])
                proj.extend(F.norm(-row[c]) for c in nonpiv)
            else:
                proj.extend(F.one if c == j else F.zero for c in nonpiv)
        sec = tuple(F.one if j == c else F.zero for c in nonpiv for j in range(self.ambient))
        q = len(nonpiv)
        kept = self.__dict__["_quotient"] = Matrix(F, self.ambient, q, tuple(proj)), Matrix(F, q, self.ambient, sec)
        return kept
