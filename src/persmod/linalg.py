"""Free graded modules over k[t] and exact degree-respecting reductions.

A free graded k[t]-module is described by a :class:`GradedBasis`: an
ordered list of labeled generators, each with an integer degree.
Degree-0 graded maps between free modules are :class:`GradedMatrix`
values whose column j is the image of source generator j: a k-linear
combination of target generators b_i of degree d = deg(source[j]),
with an implied factor t^(d - deg b_i) on each.  Only the field
scalars are stored, and the exponents are recomputed from degrees
whenever needed.  A single homogeneous element is a one-column matrix.

Storing scalars only makes non-homogeneous data unrepresentable: an
entry at (i, j) always means scalar * t^(deg source[j] - deg target[i]),
and constructors reject negative implied exponents.

The reduction engine works on columns.  A column may be subtracted from
another only when the implied multiplier t-exponent is nonnegative,
which holds exactly when the reducing column's degree is not larger.
Processing columns in ascending degree keeps every operation legal.
One loop, ``_echelon``, reduces m for its echelon form,
[main | -modders] over identity rows under main for a preimage (the
kernel is the preimage of zero) and [sub | x] for membership; the
graded Smith normal form runs its own pass.

The pivot of a column is its bottom-most nonzero entry in degree-sorted
row order, i.e. the entry whose row maximizes (degree, index).  That
entry carries the smallest power of t in the column, with ties broken
toward the later row.  The same rule is used everywhere so that all
reductions are deterministic.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# SECTION: bases
# ---------------------------------------------------------------------------


class GradedBasis:
    """An ordered, labeled basis of a free graded module.

    Labels must be unique.  Degrees are arbitrary integers; negative
    degrees occur naturally in dual modules.  An integral value such as
    ``1.0`` reads as its int, and any other value is an error.

    >>> b = GradedBasis([("x", 1), ("y", 2)])
    >>> b.degrees
    (1, 2)
    >>> b.index("x")
    0
    """

    __slots__ = ("labels", "degrees", "_index")

    def __init__(self, elements):
        elements = list(elements)
        self.labels = tuple([str(lab) for lab, _ in elements])
        raw = tuple([deg for _, deg in elements])
        try:
            self.degrees = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):
            self.degrees = ()
        if self.degrees != raw:
            for lab, deg in zip(self.labels, raw):
                try:
                    if int(deg) == deg:
                        continue
                except (TypeError, ValueError, OverflowError):
                    pass
                raise ValueError(f"{lab!r} has degree {deg!r}, not an integer")
        self._index = dict(zip(self.labels, range(len(self.labels))))
        if len(self._index) != len(self.labels):
            seen = set()
            for lab in self.labels:
                if lab in seen:
                    raise ValueError(f"duplicate basis label {lab!r}")
                seen.add(lab)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(zip(self.labels, self.degrees))

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
        sdeg = source.degrees
        tdeg = target.degrees
        clean = []
        for j, col in enumerate(cols):
            # the one copy of the caller's column (a mapping or pairs);
            # a second, filtered copy only when it holds a zero scalar
            d = dict(col)
            if not all(d.values()):
                d = {i: c for i, c in d.items() if c}
            if d:
                deg = sdeg[j]
                for i in d:
                    if tdeg[i] > deg:
                        raise ValueError(
                            f"entry ({target.labels[i]}, {source.labels[j]}) "
                            f"implies exponent {deg - tdeg[i]} < 0"
                        )
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
    def zero(cls, field, source, target):
        return cls(field, source, target, [{} for _ in range(len(source))])

    # -- accessors ----------------------------------------------------

    @property
    def ncols(self):
        return len(self.source)

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    @property
    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    # -- algebra ------------------------------------------------------

    def matmul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Composition self . other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("matrix shapes do not compose")
        f = self.field
        cols = []
        for j in range(other.ncols):
            out = {}
            for k, oc in other.cols[j].items():
                f.combine(out, self.cols[k], f.neg(oc))
            cols.append(out)
        return GradedMatrix(f, other.source, self.target, cols)

    def __matmul__(self, other):
        return self.matmul(other)

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
        fmt, tgt = self.field.format, self.target
        parts = []
        for lab, d, col in zip(self.source.labels, self.source.degrees, self.cols):
            terms = " + ".join(
                f"{fmt(col[i])}t^{d - tgt.degrees[i]}*{tgt.labels[i]}"
                for i in sorted(col)
            )
            parts.append(f"{lab} -> <{terms or 0} @deg {d}>")
        return "GradedMatrix[" + "; ".join(parts) + "]"


# ---------------------------------------------------------------------------
# SECTION: column reduction engine
# ---------------------------------------------------------------------------


class ColumnEchelon:
    """Result of a column reduction.

    Attributes
    ----------
    reduced : GradedMatrix
        Column echelon form; every nonzero column has a distinct pivot
        row (its bottom-most entry in degree order).
    lows : dict
        pivot row index -> column index.
    zero_cols : tuple
        Columns that reduced to zero, in processing order (ascending
        degree, then position).
    """

    __slots__ = ("reduced", "lows", "zero_cols")

    def __init__(self, reduced, lows, zero_cols):
        self.reduced = reduced
        self.lows = lows
        self.zero_cols = zero_cols


def column_echelon(m: GradedMatrix) -> ColumnEchelon:
    """Reduce columns until every nonzero column has a unique pivot row.

    One pass of ``_echelon`` in ascending (degree, position) order; a
    column is only ever reduced by earlier columns, so each subtraction
    multiplies the reducing column by a nonnegative power of t.  No
    change of basis is kept: callers read the reduced columns or the
    pivot pairing.
    """
    cols = [dict(col) for col in m.cols]
    key = _pivot_rank(m.target).__getitem__
    lows, dead = _echelon(m.field, cols, m.source.sorted_indices(), key, len(m.target))
    reduced = GradedMatrix(m.field, m.source, m.target, cols)
    return ColumnEchelon(reduced, lows, tuple(dead))


def _pivot_rank(basis: GradedBasis) -> list:
    """rank[i] is row i's place in (degree, index) order: a column's
    low, its pivot candidate, is the entry of highest rank."""
    rank = [0] * len(basis)
    for n, i in enumerate(basis.sorted_indices()):
        rank[i] = n
    return rank


def _reduce(field, col, key, lows, cols, before=None):
    """Clear col's low against a pivot table; return the low left, or None.

    ``lows`` maps a pivot row to its owner, ``cols`` an owner to its
    column, and the low is ``max(col, key=key)``.  Each step subtracts
    the multiple of the owner's column that cancels the low.  Given
    ``before``, an owner whose key is not below it is not used.
    """
    while col:
        low = max(col, key=key)
        owner = lows.get(low)
        if owner is None or (before is not None and key(owner) >= before):
            return low
        pivot = cols[owner]
        field.combine(col, pivot, field.div(col[low], pivot[low]))
    return None


def _echelon(field, cols, order, key, nrows):
    """Reduce ``cols`` in place, in ``order``, each against the pivots
    of those before it; return the pivot table (row -> column) and the
    dead columns, in order: those left with no entry in the first
    ``nrows`` rows.  Later rows must rank below all of those; they are
    never pivots and only record what was done to a column."""
    lows: dict[int, int] = {}
    dead = []
    for c in order:
        low = _reduce(field, cols[c], key, lows, cols)
        if low is None or low >= nrows:
            dead.append(c)
        else:
            lows[low] = c
    return lows, dead


def membership(x: GradedMatrix, sub: GradedMatrix) -> bool:
    """True if every column of x lies in the column space of ``sub``
    within its degree.

    Reduces [sub | x] in (degree, position) order, so a column of x of
    degree d meets the reduced columns of ``sub`` of degree <= d, and
    is a member exactly when it dies.  It also meets the earlier
    columns of x, but one of those that survived has already made the
    answer False.  The scalar 1 on x is x itself at degree 1, outside
    the span of t*x, and t*x at degree 2:

    >>> from persmod.fields import QQ
    >>> gens = GradedBasis([("x", 1)])
    >>> tx = GradedMatrix(QQ, GradedBasis([("r", 2)]), gens, [{0: 1}])
    >>> membership(GradedMatrix(QQ, GradedBasis([("y", 1)]), gens, [{0: 1}]), tx)
    False
    >>> membership(GradedMatrix(QQ, GradedBasis([("y", 2)]), gens, [{0: 1}]), tx)
    True
    """
    if x.target != sub.target:
        raise ValueError("columns are not over the matrix target basis")
    cols = [dict(col) for col in (*sub.cols, *x.cols)]
    degrees = sub.source.degrees + x.source.degrees
    order = sorted(range(len(cols)), key=degrees.__getitem__)
    key = _pivot_rank(sub.target).__getitem__
    _, dead = _echelon(x.field, cols, order, key, len(sub.target))
    return set(dead).issuperset(range(sub.ncols, len(cols)))


def _preimage(main: GradedMatrix, modders: GradedMatrix, prefix: str):
    """A free basis, labeled prefix0, prefix1, ..., for the elements of
    main's source that main maps into the span of the modders' columns.

    Reduces [main | -modders] as ``column_echelon`` reduces a matrix,
    main's columns first at a degree tie, with identity rows under
    main's columns only.  Those rows rank below every row of the
    target, so they are never pivots and record the column operations.
    Each column that dies keeps only its record part; that part spans
    the preimage, in processing order.  A dead column with an empty
    record part is a syzygy of the modders alone and is pruned.
    """
    f, n = main.field, len(main.target)
    cols = [{**col, n + j: f.one} for j, col in enumerate(main.cols)]
    cols += [{i: f.neg(v) for i, v in col.items()} for col in modders.cols]
    degrees = main.source.degrees + modders.source.degrees
    order = sorted(range(len(cols)), key=degrees.__getitem__)
    key = (_pivot_rank(main.target) + [-1] * main.ncols).__getitem__
    _, dead = _echelon(f, cols, order, key, n)
    kept = [c for c in dead if cols[c]]
    source = GradedBasis((f"{prefix}{i}", degrees[c]) for i, c in enumerate(kept))
    preimage = [{i - n: v for i, v in cols[c].items()} for c in kept]
    return GradedMatrix(f, source, main.source, preimage)


# ---------------------------------------------------------------------------
# SECTION: graded Smith normal form
# ---------------------------------------------------------------------------


class SnfResult:
    """Graded Smith normal form data for a matrix F.

    S (``row_change``, inverse ``row_change_inv``) is graded-invertible,
    and S @ F @ T is diagonal for a graded-invertible T that is not
    built.  ``lows`` is the pivot pairing, pivot row -> column in
    treatment order, as in :class:`ColumnEchelon`; the diagonal entry in
    row p is (S @ F)[p, lows[p]], and its exponent is the degree
    difference of that column and row.  A row with no entry is a free
    generator when F presents a module.

    New generator j is column j of ``row_change_inv`` read over the
    original target basis; a diagonal entry c*t^e in row j means that
    t^e times it is a relation and no lower power of t is.
    """

    __slots__ = ("row_change", "row_change_inv", "lows")

    def __init__(self, s, s_inv, lows):
        self.row_change = s
        self.row_change_inv = s_inv
        self.lows = lows


def graded_snf(m: GradedMatrix) -> SnfResult:
    """Diagonalize a graded matrix by column operations, tracking only S.

    Columns are visited in ascending (degree, position) order.  Each is
    first cleared on every earlier pivot row by a ``combine`` with that
    pivot's column, in treatment order; a pivot column holds no entry on
    an earlier pivot row, so one pass clears them all.  A column left
    nonzero takes as pivot its bottom-most entry in degree-sorted row
    order (the smallest power of t, ties to the later row), and S
    records the change of generators that clears its other entries; T,
    the column operations, is not kept.  Every operation factor carries
    a nonnegative t-exponent by construction.  On the worked example of
    ``tests/test_snf.py``, generator x (row 0) stays free:

    >>> from persmod.fields import QQ
    >>> gens = GradedBasis([("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)])
    >>> rels = GradedBasis([("r1", 2), ("r2", 3), ("r3", 4), ("r4", 4)])
    >>> cols = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 3: 1},
    ...         {1: 1, 2: 1, 4: 1}, {1: 1, 2: 1, 3: 1}]
    >>> snf = graded_snf(GradedMatrix(QQ, rels, gens, cols))
    >>> snf.lows
    {2: 0, 3: 1, 4: 2, 1: 3}
    >>> sorted({0, 1, 2, 3, 4} - snf.lows.keys())
    [0]
    """
    f = m.field
    tgt = m.target
    s_rows = [{i: f.one} for i in range(len(tgt))]
    s_inv_cols = [{i: f.one} for i in range(len(tgt))]
    key = _pivot_rank(tgt).__getitem__
    pivots = []  # (pivot row, column as treated), in treatment order
    lows: dict[int, int] = {}
    for c in m.source.sorted_indices():
        col = dict(m.cols[c])
        for i, e in pivots:
            if i in col:
                f.combine(col, e, f.div(col[i], e[i]))
        if not col:
            continue
        p = max(col, key=key)
        for i in col:
            if i != p:
                # S: row i -= r * row p, legal as deg tgt[p] >= deg tgt[i]
                r = f.div(col[i], col[p])
                f.combine(s_rows[i], s_rows[p], r)
                f.combine(s_inv_cols[p], s_inv_cols[i], f.neg(r))
        pivots.append((p, col))
        lows[p] = c

    s_entries = {(i, j): c for i, row in enumerate(s_rows) for j, c in row.items()}
    s = GradedMatrix.from_entries(f, tgt, tgt, s_entries)
    s_inv = GradedMatrix(f, tgt, tgt, s_inv_cols)
    return SnfResult(s, s_inv, lows)
