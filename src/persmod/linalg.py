"""Free graded modules over k[t] and exact degree-respecting reductions.

A free graded k[t]-module is described by a :class:`GradedBasis`: an
ordered list of labeled generators, each with an integer degree.  A
homogeneous element of degree d is a k-linear combination of basis
generators b_i with an implied factor t^(d - deg b_i) on each; only the
field scalars are stored, and the exponents are recomputed from degrees
whenever needed.  Degree-0 graded maps between free modules are
:class:`GradedMatrix` values whose column j is the image of source
generator j, an element of degree deg(source[j]).

Storing scalars only makes non-homogeneous data unrepresentable: an
entry at (i, j) always means scalar * t^(deg source[j] - deg target[i]),
and constructors reject negative implied exponents.

The reduction engine works on columns.  A column may be subtracted from
another only when the implied multiplier t-exponent is nonnegative,
which holds exactly when the reducing column's degree is not larger.
Processing columns in ascending degree keeps every operation legal and
drives all higher layers: echelon forms, membership tests, kernels of
maps between free modules, and the graded Smith normal form.

The pivot of a column is its bottom-most nonzero entry in degree-sorted
row order, i.e. the entry whose row maximizes (degree, index).  That
entry carries the smallest power of t in the column, with ties broken
toward the later row.  The same rule is used everywhere so that all
reductions are deterministic.
"""

from __future__ import annotations

from .fields import Monomial

# ---------------------------------------------------------------------------
# SECTION: bases and elements
# ---------------------------------------------------------------------------


class GradedBasis:
    """An ordered, labeled basis of a free graded module.

    Labels must be unique.  Degrees are arbitrary integers; negative
    degrees occur naturally in dual modules.

    >>> b = GradedBasis([("x", 1), ("y", 2)])
    >>> b.degree(1)
    2
    >>> b.index("x")
    0
    """

    __slots__ = ("labels", "degrees", "_index")

    def __init__(self, elements):
        elements = list(elements)
        self.labels = tuple(str(lab) for lab, _ in elements)
        self.degrees = tuple(int(deg) for _, deg in elements)
        self._index = {}
        for i, lab in enumerate(self.labels):
            if lab in self._index:
                raise ValueError(f"duplicate basis label {lab!r}")
            self._index[lab] = i

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(zip(self.labels, self.degrees))

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no basis element labeled {label!r}") from None

    def sort_key(self, i: int):
        """Ordering key for reductions: ascending degree, then position."""
        return (self.degrees[i], i)

    def sorted_indices(self):
        """Indices in ascending (degree, position) order."""
        return sorted(range(len(self.labels)), key=self.sort_key)

    def __eq__(self, other):
        return (
            isinstance(other, GradedBasis)
            and self.labels == other.labels
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.labels, self.degrees))

    def __repr__(self):
        inner = ", ".join(f"{l}:{d}" for l, d in self)
        return f"GradedBasis({inner})"


class HomogeneousElement:
    """A homogeneous element of a free graded module.

    ``coords`` maps basis index -> nonzero field scalar; the coordinate
    at index i stands for scalar * t^(degree - deg basis[i]).  The
    element validates that every implied exponent is nonnegative.
    """

    __slots__ = ("field", "basis", "degree", "coords")

    def __init__(self, field, basis: GradedBasis, degree: int, coords):
        clean = {}
        for i, c in dict(coords).items():
            if not c:
                continue
            if degree - basis.degrees[i] < 0:
                raise ValueError(
                    f"coordinate at {basis.labels[i]!r} (degree "
                    f"{basis.degrees[i]}) implies a negative t-exponent in an "
                    f"element of degree {degree}"
                )
            clean[i] = c
        self.field = field
        self.basis = basis
        self.degree = int(degree)
        self.coords = clean

    @classmethod
    def zero(cls, field, basis, degree):
        return cls(field, basis, degree, {})

    @classmethod
    def generator(cls, field, basis, label):
        i = basis.index(label)
        return cls(field, basis, basis.degrees[i], {i: field.one})

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def monomial_at(self, i: int) -> Monomial:
        """Coefficient at basis index i as a monomial in k[t]."""
        c = self.coords.get(i, self.field.zero)
        if not c:
            return Monomial(self.field.zero, 0)
        return Monomial(c, self.degree - self.basis.degrees[i])

    def terms(self):
        """Yield (index, scalar, exponent) sorted by basis position."""
        for i in sorted(self.coords):
            yield i, self.coords[i], self.degree - self.basis.degrees[i]

    def low(self):
        """Index of the bottom-most coordinate in degree order, or None."""
        if not self.coords:
            return None
        return max(self.coords, key=self.basis.sort_key)

    def add(self, other) -> "HomogeneousElement":
        self._check_compatible(other)
        coords = dict(self.coords)
        for i, c in other.coords.items():
            coords[i] = self.field.add(coords.get(i, self.field.zero), c)
        return HomogeneousElement(self.field, self.basis, self.degree, coords)

    def sub(self, other) -> "HomogeneousElement":
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, scalar) -> "HomogeneousElement":
        coords = {i: self.field.mul(scalar, c) for i, c in self.coords.items()}
        return HomogeneousElement(self.field, self.basis, self.degree, coords)

    def times_t(self, power: int = 1) -> "HomogeneousElement":
        """The t-action: same coordinates, degree shifted up by ``power``."""
        if power < 0:
            raise ValueError("cannot divide by t")
        return HomogeneousElement(
            self.field, self.basis, self.degree + power, self.coords
        )

    def _check_compatible(self, other):
        if self.basis != other.basis or self.field != other.field:
            raise ValueError("elements live over different bases")
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add elements of degrees {self.degree} and {other.degree}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousElement)
            and self.field == other.field
            and self.basis == other.basis
            and self.degree == other.degree
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.basis, self.degree, tuple(sorted(self.coords.items()))))

    def __repr__(self):
        if not self.coords:
            return f"<0 @deg {self.degree}>"
        parts = []
        for i, c, e in self.terms():
            parts.append(f"{self.field.format(c)}t^{e}*{self.basis.labels[i]}")
        return "<" + " + ".join(parts) + f" @deg {self.degree}>"


# ---------------------------------------------------------------------------
# SECTION: graded matrices
# ---------------------------------------------------------------------------


class GradedMatrix:
    """A degree-0 graded map between free modules, stored column-sparse.

    Rows are indexed by the target basis, columns by the source basis;
    column j is the image of source generator j and has degree
    deg(source[j]).  Entry scalars imply the exponent
    deg(source[j]) - deg(target[i]), which the constructor requires to
    be nonnegative.
    """

    __slots__ = ("field", "source", "target", "cols")

    def __init__(self, field, source: GradedBasis, target: GradedBasis, cols):
        clean = []
        for j, col in enumerate(cols):
            d = {}
            for i, c in dict(col).items():
                if not c:
                    continue
                if source.degrees[j] - target.degrees[i] < 0:
                    raise ValueError(
                        f"entry ({target.labels[i]}, {source.labels[j]}) implies "
                        f"exponent {source.degrees[j] - target.degrees[i]} < 0"
                    )
                d[i] = c
            clean.append(d)
        if len(clean) != len(source):
            raise ValueError("column count does not match source basis")
        self.field = field
        self.source = source
        self.target = target
        self.cols = tuple(clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, field, source, target, entries):
        """Build from {(row_index, col_index): scalar}."""
        cols = [dict() for _ in range(len(source))]
        for (i, j), c in dict(entries).items():
            cols[j][i] = c
        return cls(field, source, target, cols)

    @classmethod
    def from_columns(cls, field, target, columns, labels=None):
        """Build from a list of HomogeneousElement columns over ``target``."""
        if labels is None:
            labels = [f"c{j}" for j in range(len(columns))]
        source = GradedBasis(
            (lab, col.degree) for lab, col in zip(labels, columns)
        )
        return cls(field, source, target, [col.coords for col in columns])

    @classmethod
    def identity(cls, field, basis):
        cols = [{i: field.one} for i in range(len(basis))]
        return cls(field, basis, basis, cols)

    @classmethod
    def zero(cls, field, source, target):
        return cls(field, source, target, [{} for _ in range(len(source))])

    # -- accessors ----------------------------------------------------

    @property
    def nrows(self):
        return len(self.target)

    @property
    def ncols(self):
        return len(self.source)

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    def monomial(self, i: int, j: int) -> Monomial:
        c = self.entry(i, j)
        if not c:
            return Monomial(self.field.zero, 0)
        return Monomial(c, self.source.degrees[j] - self.target.degrees[i])

    def column(self, j: int) -> HomogeneousElement:
        return HomogeneousElement(
            self.field, self.target, self.source.degrees[j], self.cols[j]
        )

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    @property
    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    # -- algebra ------------------------------------------------------

    def apply(self, x: HomogeneousElement) -> HomogeneousElement:
        """Image of an element; exponents compose so only scalars mix."""
        if x.basis != self.source:
            raise ValueError("element is not over the source basis")
        f = self.field
        out = {}
        for j, xc in x.coords.items():
            for i, mc in self.cols[j].items():
                out[i] = f.add(out.get(i, f.zero), f.mul(mc, xc))
        return HomogeneousElement(f, self.target, x.degree, out)

    def matmul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Composition self . other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("matrix shapes do not compose")
        f = self.field
        cols = []
        for j in range(other.ncols):
            out = {}
            for k, oc in other.cols[j].items():
                for i, sc in self.cols[k].items():
                    out[i] = f.add(out.get(i, f.zero), f.mul(sc, oc))
            cols.append(out)
        return GradedMatrix(f, other.source, self.target, cols)

    def __matmul__(self, other):
        return self.matmul(other)

    def neg(self) -> "GradedMatrix":
        f = self.field
        return GradedMatrix(
            f,
            self.source,
            self.target,
            [{i: f.neg(c) for i, c in col.items()} for col in self.cols],
        )

    def restrict_rows(self, row_indices, new_target: GradedBasis) -> "GradedMatrix":
        """Keep only the given rows, reindexed against ``new_target``."""
        row_indices = list(row_indices)
        if len(row_indices) != len(new_target):
            raise ValueError("row selection does not match new target basis")
        remap = {old: new for new, old in enumerate(row_indices)}
        cols = []
        for col in self.cols:
            cols.append({remap[i]: c for i, c in col.items() if i in remap})
        return GradedMatrix(self.field, self.source, new_target, cols)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.field == other.field
            and self.source == other.source
            and self.target == other.target
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash(
            (self.source, self.target, tuple(tuple(sorted(c.items())) for c in self.cols))
        )

    def __repr__(self):
        body = "; ".join(
            f"{self.source.labels[j]} -> {self.column(j)!r}" for j in range(self.ncols)
        )
        return f"GradedMatrix[{body}]"


def concat_bases(*bases) -> GradedBasis:
    """Concatenate bases; labels must stay unique."""
    pairs = []
    for b in bases:
        pairs.extend(b)
    return GradedBasis(pairs)


# ---------------------------------------------------------------------------
# SECTION: column reduction engine
# ---------------------------------------------------------------------------


class ColumnEchelon:
    """Result of a column reduction.

    Attributes
    ----------
    matrix : GradedMatrix
        The input.
    reduced : GradedMatrix
        Column echelon form; every nonzero column has a distinct pivot
        row (its bottom-most entry in degree order).
    change : GradedMatrix or None
        Graded-invertible source basis change with
        ``reduced = matrix @ change`` (unit diagonal, entries only from
        earlier columns in processing order); None when the reduction
        ran with ``change=False``.
    lows : dict
        pivot row index -> column index.
    zero_cols : tuple
        Columns that reduced to zero, in processing order.
    order : tuple
        The column processing order (ascending degree, then position).
    """

    __slots__ = ("matrix", "reduced", "change", "lows", "zero_cols", "order")

    def __init__(self, matrix, reduced, change, lows, zero_cols, order):
        self.matrix = matrix
        self.reduced = reduced
        self.change = change
        self.lows = lows
        self.zero_cols = zero_cols
        self.order = order


def column_echelon(m: GradedMatrix, change: bool = True) -> ColumnEchelon:
    """Reduce columns until every nonzero column has a unique pivot row.

    Columns are processed in ascending (degree, position) order and only
    ever reduced by earlier columns, so each subtraction multiplies the
    reducing column by a nonnegative power of t.

    With ``change=False`` no change-of-basis columns are built or
    combined and the result's ``change`` is None; ``lows``, ``reduced``,
    ``zero_cols`` and ``order`` are the same either way.  Callers that
    only read the reduced columns or the pivot pairing, such as
    ``barcode`` and ``persistent_homology``, skip the bookkeeping that
    ``free_kernel`` and ``express_in_columns`` need.
    """
    f = m.field
    # pos[i] is row i's rank in (degree, index) order: the pivot rule
    pos = [0] * m.nrows
    for n, i in enumerate(m.target.sorted_indices()):
        pos[i] = n
    key = pos.__getitem__
    cols = [dict(col) for col in m.cols]
    track = [{j: f.one} for j in range(m.ncols)] if change else None
    lows: dict[int, int] = {}
    zero_cols = []
    order = tuple(m.source.sorted_indices())
    for c in order:
        col = cols[c]
        while col:
            l = max(col, key=key)
            p = lows.get(l)
            if p is None:
                lows[l] = c
                break
            r = f.div(col[l], cols[p][l])
            _combine(f, col, cols[p], r)
            if change:
                _combine(f, track[c], track[p], r)
        if not col:
            zero_cols.append(c)
    reduced = GradedMatrix(f, m.source, m.target, cols)
    change_m = None
    if change:
        change_m = GradedMatrix(f, m.source, m.source, track)
    return ColumnEchelon(m, reduced, change_m, lows, tuple(zero_cols), order)


def _combine(field, col, other, r):
    """In place: col -= r * other, dropping zeros."""
    for i, c in other.items():
        new = field.sub(col.get(i, field.zero), field.mul(r, c))
        if new:
            col[i] = new
        else:
            col.pop(i, None)


def membership(x: HomogeneousElement, sub) -> bool:
    """True if x lies in the column space of ``sub`` within its degree.

    ``sub`` is a matrix or its column echelon.  A nonzero combination of
    reduced columns has the largest of their pivots as its bottom
    entry, so x is a member exactly when clearing its bottom coordinate
    against the pivots never gets stuck.
    """
    if isinstance(sub, GradedMatrix):
        sub = column_echelon(sub, change=False)
    if x.basis != sub.matrix.target:
        raise ValueError("element is not over the matrix target basis")
    return _echelon_coefficients(x, sub) is not None


def _echelon_coefficients(x: HomogeneousElement, ech: ColumnEchelon):
    """Coefficients of x over the reduced columns, or None if outside.

    Reduction proceeds from the bottom coordinate up; every step is
    legal because a nonzero coordinate already certifies the needed
    degree inequality.
    """
    f = x.field
    key = x.basis.sort_key
    coords = dict(x.coords)
    taken: dict[int, object] = {}
    while coords:
        l = max(coords, key=key)
        p = ech.lows.get(l)
        if p is None or x.degree < ech.matrix.source.degrees[p]:
            return None
        r = f.div(coords[l], ech.reduced.cols[p][l])
        _combine(f, coords, ech.reduced.cols[p], r)
        taken[p] = f.add(taken.get(p, f.zero), r)
    return taken


def express_in_echelon(x: HomogeneousElement, ech) -> HomogeneousElement | None:
    """Write x over the reduced columns of a column echelon.

    The coordinate at source index c multiplies reduced column c; zero
    columns never appear.  Returns None when x is outside the span.
    """
    if isinstance(ech, GradedMatrix):
        ech = column_echelon(ech, change=False)
    taken = _echelon_coefficients(x, ech)
    if taken is None:
        return None
    return HomogeneousElement(x.field, ech.matrix.source, x.degree, taken)


def express_in_columns(x: HomogeneousElement, ech) -> HomogeneousElement | None:
    """Write x as a combination of the matrix's original columns.

    Returns the coefficient element over the source basis (so that
    ``matrix.apply(result) == x``), or None when x is not in the column
    space.
    """
    if isinstance(ech, GradedMatrix):
        ech = column_echelon(ech)
    taken = _echelon_coefficients(x, ech)
    if taken is None:
        return None
    f = x.field
    combo: dict[int, object] = {}
    for p, r in taken.items():
        _combine(f, combo, ech.change.cols[p], f.neg(r))
    return HomogeneousElement(f, ech.matrix.source, x.degree, combo)


def free_kernel(m: GradedMatrix) -> GradedMatrix:
    """A free basis for the kernel of a map between free modules.

    Column-reduces with change tracking; the change columns of the
    columns that died span the kernel.  Each output column k satisfies
    ``m.apply(k) == 0`` and has the degree of the column that died.
    """
    ech = column_echelon(m)
    columns = [ech.change.column(c) for c in ech.zero_cols]
    labels = [f"k{n}" for n in range(len(columns))]
    return GradedMatrix.from_columns(m.field, m.source, columns, labels)


# ---------------------------------------------------------------------------
# SECTION: graded Smith normal form
# ---------------------------------------------------------------------------


class SnfResult:
    """Graded Smith normal form data for a matrix F.

    ``reduced`` is S @ F @ T where S (``row_change``) and T
    (``col_change``) are graded-invertible; their inverses are tracked
    alongside.  ``diagonal`` lists (row, col, pivot monomial) in
    treatment order; rows and columns are reported in the original index
    space (bases are never permuted, only marked).  ``free_rows`` are
    target rows with no pivot (infinite classes when F presents a
    module); ``zero_cols`` are source columns that reduced to zero.

    The recovered generator basis is given by the columns of
    ``row_change_inv``: new generator j equals that column read over the
    original target basis.
    """

    __slots__ = (
        "matrix",
        "reduced",
        "row_change",
        "row_change_inv",
        "col_change",
        "col_change_inv",
        "diagonal",
        "free_rows",
        "zero_cols",
    )

    def __init__(self, matrix, reduced, s, s_inv, t, t_inv, diagonal, free_rows, zero_cols):
        self.matrix = matrix
        self.reduced = reduced
        self.row_change = s
        self.row_change_inv = s_inv
        self.col_change = t
        self.col_change_inv = t_inv
        self.diagonal = diagonal
        self.free_rows = free_rows
        self.zero_cols = zero_cols

    def new_generators(self):
        """Recovered target basis, one element per original row."""
        return self.row_change_inv.columns()

    def pivot_exponents(self):
        return [mono.exponent for _, _, mono in self.diagonal]


def graded_snf(m: GradedMatrix) -> SnfResult:
    """Diagonalize a graded matrix by legal row and column operations.

    Untreated columns are visited in ascending (degree, position) order.
    A nonzero column's pivot is its bottom-most entry in degree-sorted
    row order (the smallest power of t, ties to the later row).  The
    pivot's column is cleared with row operations and its row with
    column operations, then both are marked finished; marked rows and
    columns are never touched again.  Every operation factor carries a
    nonnegative t-exponent by construction.
    """
    f = m.field
    src, tgt = m.source, m.target
    cols = [dict(col) for col in m.cols]
    rows: list[set] = [set() for _ in range(len(tgt))]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)

    s_rows = [{i: f.one} for i in range(len(tgt))]
    s_inv_cols = [{i: f.one} for i in range(len(tgt))]
    t_cols = [{j: f.one} for j in range(len(src))]
    t_inv_rows = [{j: f.one} for j in range(len(src))]

    def row_op(i, p, r):
        # row_i -= r * row_p; legal because deg target[p] >= deg target[i]
        assert tgt.degrees[p] >= tgt.degrees[i]
        for j in list(rows[p]):
            col = cols[j]
            new = f.sub(col.get(i, f.zero), f.mul(r, col[p]))
            if new:
                col[i] = new
                rows[i].add(j)
            else:
                col.pop(i, None)
                rows[i].discard(j)
        _combine(f, s_rows[i], s_rows[p], r)
        _combine(f, s_inv_cols[p], s_inv_cols[i], f.neg(r))

    def col_op(c2, c, r):
        # col_c2 -= r * col_c; legal because deg source[c2] >= deg source[c]
        assert src.degrees[c2] >= src.degrees[c]
        for i, v in cols[c].items():
            new = f.sub(cols[c2].get(i, f.zero), f.mul(r, v))
            if new:
                cols[c2][i] = new
                rows[i].add(c2)
            else:
                cols[c2].pop(i, None)
                rows[i].discard(c2)
        _combine(f, t_cols[c2], t_cols[c], r)
        _combine(f, t_inv_rows[c], t_inv_rows[c2], f.neg(r))

    key = tgt.sort_key
    diagonal = []
    zero_cols = []
    for c in src.sorted_indices():
        col = cols[c]
        if not col:
            zero_cols.append(c)
            continue
        p = max(col, key=key)
        for i in [i for i in col if i != p]:
            row_op(i, p, f.div(col[i], col[p]))
        for c2 in [j for j in rows[p] if j != c]:
            col_op(c2, c, f.div(cols[c2][p], col[p]))
        diagonal.append((p, c, Monomial(col[p], src.degrees[c] - tgt.degrees[p])))

    pivot_rows = {p for p, _, _ in diagonal}
    free_rows = tuple(i for i in range(len(tgt)) if i not in pivot_rows)

    reduced = GradedMatrix(f, src, tgt, cols)
    s = GradedMatrix(f, tgt, tgt, _rows_to_cols(s_rows, len(tgt)))
    s_inv = GradedMatrix(f, tgt, tgt, s_inv_cols)
    t = GradedMatrix(f, src, src, t_cols)
    t_inv = GradedMatrix(f, src, src, _rows_to_cols(t_inv_rows, len(src)))
    return SnfResult(
        m, reduced, s, s_inv, t, t_inv, tuple(diagonal), free_rows, tuple(zero_cols)
    )


def _rows_to_cols(rows, ncols):
    cols = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols[j][i] = c
    return cols
