"""Command-line front end for persistence module computations.

All file formats are line-based ASCII; ``#`` starts a comment and
blank lines are skipped.  Filtered complexes list one simplex per line
as ``v0 v1 ... vk ; birth`` with an optional ``; removal`` column.
Presentations list ``gen <name> <degree>`` and
``rel <term> + <term> + ...`` lines, a term being
``<coeff>t^<e>*<name>`` with the coefficient optional; a generator
name is one word of printable ASCII without ``#``, ``+`` or ``->``.
A coefficient is an optional sign and decimal digits; over Q it may
also be ``<digits>/<digits>`` or a decimal with an optional exponent
(``-1.5``, ``2e3``), as Python 3.10's ``Fraction`` reads it, on every
version: ``_`` and blanks around ``/`` are refused.
Morphism files hold a presentation under a ``source`` header, another
under ``target``, and ``map <name> -> <term> + ...`` lines under
``maps``; generators without a map line go to zero.

Barcodes print one bar per line as ``<dim> <birth> <death|inf>``
sorted by dimension, birth, death, with ``-`` for the dimension of
bars that do not carry one.  Identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 file or syntax error
(or a reader that closed stdout early), 2 validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from itertools import repeat

from . import homology
from .constructions import (
    cokernel,
    direct_sum,
    dual,
    exterior_power,
    hom,
    image,
    kernel,
    pullback,
    pushout,
    snf_form,
    symmetric_power,
    tensor,
    tensor_over_k,
)
from .fields import QQ, field_from_string
from .homology import (
    FilteredComplex,
    Simplex,
    persistent_homology,
    relative_complex,
    torsion_homology,
)
from .linalg import GradedBasis, GradedMatrix
from .presentation import (
    INF,
    Presentation,
    PresentationMorphism,
    _Diagonal,
    barcode,
    validate_morphism,
)
from .streaming import StreamState, _insert, current_barcode

__all__ = [
    "CliError",
    "format_presentation",
    "main",
    "parse_morphism",
    "parse_presentation",
    "run",
]

PARSE_ERROR = 1
VALIDATION_ERROR = 2


class CliError(Exception):
    """An input failure carrying the exit code it should produce."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _content_lines(text):
    """Yield (line number, content) pairs, skipping comments and blanks."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _parse_value(token: str, lineno: int):
    """The value of a token: int() if it reads the token, else float().

    Decimal digits go straight to int(), and a token holding '.', 'e'
    or 'E', which int() never reads, straight to float(), so a valid
    value costs no exception.  Digits past the interpreter's int-string
    limit, signed or not, make a bad value, and non-finite floats are
    rejected.
    """
    try:
        if token.isdecimal():  # not isdigit(): int() rejects superscripts
            return int(token)
        if not ("." in token or "e" in token or "E" in token):
            try:
                return int(token)
            except ValueError:
                if token[:1] in ("-", "+") and token[1:].isdecimal():
                    raise  # an integer past the limit; float() would overflow
        value = float(token)
    except ValueError:
        raise CliError(
            PARSE_ERROR, f"line {lineno}: bad filtration value {token!r}"
        ) from None
    if not math.isfinite(value):
        raise CliError(
            PARSE_ERROR,
            f"line {lineno}: non-finite filtration value {token!r}",
        )
    return value


class _Ints(dict):
    """int() of each token, computed once per distinct token."""

    __slots__ = ()

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def _load_complex(text):
    """Parse complex text into (FilteredComplex, value map or None,
    line numbers).

    When any filtration value is not an integer, all values are
    replaced by their rank among the sorted distinct values and the
    mapping is returned for echoing.  The line numbers give the input
    line of each simplex.  A complex that breaks a rule, a negative
    value too when values are ranked, is reported at the line of the
    simplex at fault, with the values as written there.

    One pass over the lines reads each simplex into flat lists, with
    each distinct vertex token read once and each vertex tuple sorted
    once; syntax errors are raised in line order during the pass.  The
    values are ranked with one sort, and ``FilteredComplex._of_sorted``
    takes the simplices as read, so ``_face_index`` alone checks the
    rules.
    """
    vertex = _Ints().__getitem__
    lines = []
    vertex_sets = []
    births = []
    removals = []
    values = []  # every value as read, in line order
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) not in (2, 3):
            raise CliError(
                PARSE_ERROR,
                f"line {n}: expected 'v0 v1 ... ; birth [; removal]'",
            )
        try:
            vertices = tuple(sorted(map(vertex, parts[0].split())))
        except ValueError:
            raise CliError(
                PARSE_ERROR, f"line {n}: bad vertex in {parts[0].strip()!r}"
            ) from None
        if not vertices or vertices[0] < 0:
            raise CliError(
                PARSE_ERROR, f"line {n}: vertices must be nonnegative integers"
            )
        birth = _parse_value(parts[1].strip(), n)
        values.append(birth)
        removal = INF
        if len(parts) == 3:
            removal = _parse_value(parts[2].strip(), n)
            values.append(removal)
        lines.append(n)
        vertex_sets.append(vertices)
        births.append(birth)
        removals.append(removal)
    value_map = None
    if float in set(map(type, values)):
        # the first of equal values, 0 before 0.0, stands for them all
        distinct = sorted(set(values))
        value_map = dict(zip(distinct, range(len(distinct))))
        births = map(value_map.__getitem__, births)
        removals = map(value_map.get, removals, removals)  # INF stays
    # Simplex._make without a Python call per simplex
    simplices = tuple(map(
        tuple.__new__, repeat(Simplex), zip(vertex_sets, births, removals)
    ))
    # freed before the face index allocates its own columns, which
    # lowers the peak resident size
    del vertex_sets, births, removals, values
    try:
        if value_map and distinct[0] < 0:
            raise ValueError  # a rank is never negative
        filtration = FilteredComplex._of_sorted(simplices)
    except ValueError:
        # ranking is monotone, so the values as written break the same
        # rules, and a negative one breaks a rule of its own
        written = _as_written(value_map)
        _, (at, message) = homology._face_index([
            Simplex(vertices, written(birth), written(removal))
            for vertices, birth, removal in simplices
        ])
        raise CliError(
            VALIDATION_ERROR, f"line {lines[at]}: {message}"
        ) from None
    return filtration, value_map, tuple(lines)


def _as_written(value_map):
    """A filtration value as the input wrote it, before any ranking."""
    raw = {rank: v for v, rank in (value_map or {}).items()}
    return lambda v: raw.get(v, v)


def _read_column(text, n, field, coeffs, index, degrees, degree=None):
    """The terms of one relation or map line, read in one pass.

    A term ``<coeff>t^<e>*<name>`` adds its coefficient to the entry of
    generator ``index[name]``, and its implied degree e + degrees[i]
    must equal ``degree``, or the first term's when that is None.
    Returns (column, degree, fault): fault is None, or (name, e) of the
    first term, in term order, whose name is not in ``index`` or whose
    degree differs, which the caller names.  A syntax fault raises
    CliError at once, so the syntax of every term is checked before a
    fault is returned.  ``coeffs`` maps each coefficient text already
    read in this file to its scalar, so a text is parsed once per file.
    """
    col = {}
    fault = None
    for token in text.split("+"):
        token = token.strip()
        head, sep, name = token.partition("*")
        coeff_text, tsep, exp_text = head.partition("t^")
        if not sep or not name or not tsep:
            raise CliError(
                PARSE_ERROR,
                f"line {n}: bad term {token!r} "
                "(expected <coeff>t^<e>*<name>)",
            )
        try:
            exponent = int(exp_text)
        except ValueError:
            raise CliError(
                PARSE_ERROR, f"line {n}: bad exponent in {token!r}"
            ) from None
        if exponent < 0:
            raise CliError(
                PARSE_ERROR, f"line {n}: negative exponent in {token!r}"
            )
        if coeff_text:
            coeff = coeffs.get(coeff_text)
            if coeff is None:
                try:
                    coeff = coeffs[coeff_text] = field.parse(coeff_text)
                except (ValueError, ZeroDivisionError):
                    raise CliError(
                        PARSE_ERROR,
                        f"line {n}: bad coefficient in {token!r}",
                    ) from None
        else:
            coeff = field.one
        i = index.get(name)
        if i is not None and degree is None:
            degree = exponent + degrees[i]
        if i is None or exponent + degrees[i] != degree:
            if fault is None:
                fault = name, exponent
            continue
        if i in col:
            coeff = field.add(col[i], coeff)
        col[i] = coeff
    return col, degree, fault


def _label_index(index, name, n):
    """index[name], or the CliError naming an unknown label at line n."""
    try:
        return index[name]
    except KeyError:
        raise CliError(
            VALIDATION_ERROR, f"line {n}: no basis element labeled {name!r}"
        ) from None


def _parse_presentation_lines(pairs, field, coeffs) -> Presentation:
    gens = []
    index = {}
    degrees = []
    # (line number, terms text, _read_column's result); a relation may
    # name a generator listed after it, so a fault is final only once
    # every generator is known
    rels = []
    repeated = None  # (line, label) of the first gen line repeating one
    for n, line in pairs:
        keyword, _, rest = line.partition(" ")
        if keyword == "gen":
            tokens = rest.split()
            if len(tokens) != 2:
                raise CliError(
                    PARSE_ERROR, f"line {n}: expected 'gen <name> <degree>'"
                )
            try:
                degree = int(tokens[1])
            except ValueError:
                raise CliError(
                    PARSE_ERROR, f"line {n}: bad degree {tokens[1]!r}"
                ) from None
            if "+" in tokens[0] or "->" in tokens[0]:
                # a term or a map line could not name it
                raise CliError(
                    PARSE_ERROR,
                    f"line {n}: generator name {tokens[0]!r} contains "
                    "'+' or '->'",
                )
            if repeated is None and tokens[0] in index:
                repeated = n, tokens[0]
            index[tokens[0]] = len(gens)
            gens.append((tokens[0], degree))
            degrees.append(degree)
        elif keyword == "rel":
            read = _read_column(rest, n, field, coeffs, index, degrees)
            rels.append((n, rest, read))
        else:
            raise CliError(
                PARSE_ERROR, f"line {n}: unknown directive {keyword!r}"
            )
    if repeated:
        raise CliError(
            VALIDATION_ERROR, "line %d: duplicate basis label %r" % repeated
        )
    rel_basis = []
    cols = []
    for k, (n, text, read) in enumerate(rels):
        if read[2]:  # read again, now that every generator is known
            read = _read_column(text, n, field, coeffs, index, degrees)
        col, degree, fault = read
        if fault:
            name, exponent = fault
            d = exponent + degrees[_label_index(index, name, n)]
            raise CliError(
                VALIDATION_ERROR,
                f"line {n}: relation {k} mixes degrees {degree} and {d}",
            )
        rel_basis.append((f"rel{k}", degree))
        cols.append(col)
    incl = GradedMatrix(field, GradedBasis(rel_basis), GradedBasis(gens), cols)
    return Presentation(field, incl)


def parse_presentation(text: str, field=QQ) -> Presentation:
    """Parse presentation text; see the module docstring for grammar."""
    return _parse_presentation_lines(list(_content_lines(text)), field, {})


def _readable(labels) -> bool:
    """True when every label is a nonempty word of printable ASCII
    without a blank, '#', '+' or '->', which the parser reads back.

    Checks all labels at once; a '.' between them adds none of these.
    """
    joined = ".".join(labels)
    return (
        all(labels)
        and joined.isascii()
        and joined.isprintable()
        and not any(token in joined for token in (" ", "#", "+", "->"))
    )


@contextmanager
def _digit_limit():
    """One message on every Python version for str() past the digit limit."""
    try:
        yield
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"a computed value has more than {limit} digits and cannot be written"
        ) from None


def _write_columns(parts: list, matrix: GradedMatrix, heads, empty) -> None:
    """Append one line per column of ``matrix`` to ``parts``.

    A line is its head, then the column's ``<coeff>t^<e>*<label>`` terms
    by row, joined by `` + ``.  A zero column has no terms: it gets the
    line head + ``empty``, or no line when ``empty`` is None.  A value
    past the int-string limit raises :func:`_digit_limit`'s error.
    """
    fmt = matrix.field.format
    labels = matrix.target.labels
    degrees = matrix.target.degrees
    append = parts.append
    with _digit_limit():
        for head, col, degree in zip(heads, matrix.cols, matrix.source.degrees):
            if not col:
                if empty is not None:
                    append(f"{head}{empty}\n")
                continue
            sep = head
            for i in sorted(col):
                e = degree - degrees[i]
                append(f"{sep}{fmt(col[i])}t^{e}*{labels[i]}")
                sep = " + "
            append("\n")


def format_presentation(p: Presentation) -> str:
    """Render a presentation in the input grammar.

    Relations that are identically zero have no term syntax and are
    omitted; they do not constrain the module.  A generator label that
    the parser could not read back (empty, or not printable ASCII, or
    holding a blank, ``#``, ``+`` or ``->``) raises ValueError, as does
    a value past the int-string limit (:func:`_digit_limit`).  A diagonal
    result is written from its columns, one ``rel <one>t^<a>*<label>``
    line per finite annihilator, and its matrix is never built.

    >>> print(format_presentation(parse_presentation(
    ...     "gen x 1\\ngen y 2\\nrel 1t^2*x + -1/2t^1*y"
    ... )), end="")
    gen x 1
    gen y 2
    rel 1t^2*x + -1/2t^1*y
    """
    diagonal = isinstance(p, _Diagonal)
    gens = p if diagonal else p.gens  # either holds labels and degrees
    labels, degrees = gens.labels, gens.degrees
    if not _readable(labels):
        label = next(lab for lab in labels if not _readable([lab]))
        raise ValueError(
            f"generator label {label!r} cannot be written: labels must "
            "be printable ASCII without blanks, '#', '+' or '->'"
        )
    with _digit_limit():  # each distinct degree and exponent written once
        tails = {deg: f" {deg}\n" for deg in set(degrees)}
        parts = [f"gen {lab}{tails[deg]}" for lab, deg in zip(labels, degrees)]
        if diagonal:
            one = p.field.format(p.field.one)
            heads = {a: f"rel {one}t^{a}*" for a in set(p.anns) if a != INF}
            parts += [
                heads[a] + lab + "\n" for lab, a in zip(labels, p.anns) if a in heads
            ]
    if not diagonal:
        _write_columns(parts, p.incl, repeat("rel "), None)
    return "".join(parts)


def parse_morphism(text: str, field=QQ) -> PresentationMorphism:
    """Parse a morphism file and validate it eagerly.

    The file holds ``source``, ``target``, and ``maps`` sections; the
    generator map must carry source relations into the target relation
    span to be accepted.
    """
    sections = {"source": [], "target": [], "maps": []}
    current = None
    for n, line in _content_lines(text):
        if line in sections:
            current = sections[line]
            continue
        if current is None:
            raise CliError(
                PARSE_ERROR,
                f"line {n}: expected a 'source', 'target', or 'maps' header",
            )
        current.append((n, line))
    coeffs = {}  # one coefficient table for the whole file
    src = _parse_presentation_lines(sections["source"], field, coeffs)
    dst = _parse_presentation_lines(sections["target"], field, coeffs)
    src_degrees = src.gens.degrees
    index, degrees = dst.gens._index, dst.gens.degrees
    cols = [{} for _ in src_degrees]
    mapped = set()
    for n, line in sections["maps"]:
        keyword, _, rest = line.partition(" ")
        if keyword != "map":
            raise CliError(
                PARSE_ERROR, f"line {n}: unknown directive {keyword!r}"
            )
        name, arrow, terms_text = rest.partition("->")
        name = name.strip()
        if not arrow:
            raise CliError(
                PARSE_ERROR, f"line {n}: expected 'map <name> -> <terms>'"
            )
        j = _label_index(src.gens._index, name, n)
        if j in mapped:
            raise CliError(
                PARSE_ERROR, f"line {n}: generator {name!r} mapped twice"
            )
        mapped.add(j)
        cols[j], _, fault = _read_column(
            terms_text, n, field, coeffs, index, degrees, src_degrees[j]
        )
        if fault is not None:
            label, exponent = fault
            implied = src_degrees[j] - degrees[_label_index(index, label, n)]
            raise CliError(
                VALIDATION_ERROR,
                f"line {n}: term on {label!r} must have exponent "
                f"{implied} to preserve degree, got {exponent}",
            )
    phi = GradedMatrix(field, src.gens, dst.gens, cols)
    morphism = PresentationMorphism(src, dst, phi)
    if not validate_morphism(morphism):
        raise CliError(
            VALIDATION_ERROR,
            "generator map does not send source relations into the "
            "target relation span",
        )
    return morphism


def _read(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("ascii")
    except OSError as e:
        raise CliError(PARSE_ERROR, str(e)) from None
    except UnicodeDecodeError as e:
        # count lines as _content_lines does; the text before e.start is ASCII
        n = len((data[: e.start] + b"x").decode("ascii").splitlines())
        bad = f"line {n}: non-ASCII byte {data[e.start]:#04x}"
        raise CliError(PARSE_ERROR, bad) from None


def _bar_line(bar) -> str:
    # %s writes each grade by str(), so math.inf as "inf"; an f-string
    # would call format(), which is slower on a float
    dim, birth, death = bar
    return "%s %s %s" % ("-" if dim is None else dim, birth, death)


def _print_bars(bars):
    with _digit_limit():
        text = "".join(_bar_line(bar) + "\n" for bar in bars)
    sys.stdout.write(text)


def _echo_value_map(value_map):
    if value_map:
        sys.stdout.write(
            "".join(
                f"# value {value} -> {rank}\n"
                for value, rank in value_map.items()
            )
        )


def _cmd_barcode(args):
    filtration, value_map = _load_complex(_read(args.input))[:2]
    if filtration.has_removals:
        raise CliError(
            VALIDATION_ERROR,
            "barcode input cannot carry removal times; use 'persmod relative'",
        )
    bars = persistent_homology(filtration, args.field)
    _echo_value_map(value_map)
    _print_bars(bars)


def _cmd_presentation_barcode(args):
    p = parse_presentation(_read(args.input), args.field)
    _print_bars(barcode(p))


def _cmd_snf(args):
    p = parse_presentation(_read(args.input), args.field)
    if not args.dump:  # the pairing's diagonal, with no change of basis
        sys.stdout.write(format_presentation(exterior_power(p, 1)))
        return
    form = snf_form(p)
    # the whole text first, so that a failure writes nothing
    parts = [format_presentation(form.presentation)]
    for name, matrix in [("to_new", form.to_new), ("from_new", form.from_new)]:
        parts.append(f"# {name}\n")
        heads = [f"map {label} -> " for label in matrix.source.labels]
        _write_columns(parts, matrix, heads, "0")
    sys.stdout.write("".join(parts))


def _cmd_relative(args):
    filtration, value_map, lines = _load_complex(_read(args.input))
    bars = torsion_homology(relative_complex(filtration, args.field))
    if not args.keep_ephemeral:
        bars = bars.without_ephemeral()
    failure = homology._descent_failure(filtration, _as_written(value_map))
    if failure is not None:
        sys.stderr.write(
            f"warning: line {lines[failure[0]]}: {failure[1]}; bars of "
            "every dimension are torsion-chain homology, not slice homology\n"
        )
    _echo_value_map(value_map)
    _print_bars(bars)


def _cmd_stream(args):
    filtration, value_map, lines = _load_complex(_read(args.input))
    if filtration.has_removals:
        raise CliError(
            VALIDATION_ERROR, "stream input cannot carry removal times"
        )
    # insert everything first, so a simplex listed before one of its
    # faces fails before anything is printed.  The reader checked every
    # other rule.  Input positions are arrival ids, so a face at
    # position n or later has not arrived, and is named as missing
    state = StreamState(args.field)
    events = []
    for n, (s, faces) in enumerate(zip(filtration.simplices, filtration._faces)):
        if faces and max(faces) >= n:
            at = [None if m >= n else m for m in faces]
            _, message = homology._face_broken(filtration.simplices, n, at)
            raise CliError(VALIDATION_ERROR, f"line {lines[n]}: {message}")
        state, delta = _insert(state, s.vertices, s.birth, faces)
        if args.emit_events:
            head = " ".join(map(str, s.vertices))
            events.append(f"# insert {head} ; {s.birth}\n")
            for sign, bars in ("-", delta.removed), ("+", delta.added):
                for bar in sorted(bars):
                    events.append(f"{sign} {_bar_line(bar)}\n")
    _echo_value_map(value_map)
    sys.stdout.write("".join(events))
    _print_bars(current_barcode(state))


def _cmd_op(args):
    name = args.operation
    # operation -> (input reader, input count, construction); a name
    # ending in ":" takes a power, as in ``wedge:2``, passed last.  Built
    # per call, so that every name is looked up in the module's globals.
    operations = {
        "dsum": (parse_presentation, 2, direct_sum),
        "tensor": (parse_presentation, 2, tensor),
        "tensor-k": (parse_presentation, 2, tensor_over_k),
        "hom": (parse_presentation, 2, hom),
        "dual": (parse_presentation, 1, dual),
        "wedge:": (parse_presentation, 1, exterior_power),
        "sym:": (parse_presentation, 1, symmetric_power),
        "kernel": (parse_morphism, 1, lambda f: kernel(f)[0]),
        "cokernel": (parse_morphism, 1, cokernel),
        "image": (parse_morphism, 1, image),
        "pullback": (parse_morphism, 2, lambda f, g: pullback(f, g)[0]),
        "pushout": (parse_morphism, 2, pushout),
    }
    kind, colon, power_text = name.partition(":")
    try:
        read, count, build = operations[kind + colon]
    except KeyError:
        raise CliError(VALIDATION_ERROR, f"unknown operation {name!r}") from None
    if len(args.inputs) != count:
        raise CliError(
            VALIDATION_ERROR,
            f"operation {name!r} expects {count} input "
            f"file(s), got {len(args.inputs)}",
        )
    power = ()
    if colon:
        try:
            power = (int(power_text),)
        except ValueError:
            raise CliError(
                VALIDATION_ERROR, f"bad power in operation {name!r}"
            ) from None
    inputs = [read(_read(path), args.field) for path in args.inputs]
    result = build(*inputs, *power)
    text = format_presentation(result)
    try:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as e:
        raise CliError(PARSE_ERROR, str(e)) from None


_COMMANDS = {
    "barcode": _cmd_barcode,
    "presentation-barcode": _cmd_presentation_barcode,
    "snf": _cmd_snf,
    "relative": _cmd_relative,
    "stream": _cmd_stream,
    "op": _cmd_op,
}


def run(args) -> int:
    """Execute parsed arguments (field resolved); failures go to stderr."""
    try:
        _COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persmod",
        description="Exact barcodes and constructions for persistence modules.",
    )
    parser.add_argument(
        "--field",
        default="Q",
        help="coefficient field: Q (default) or Zp:<p> with p prime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="barcode of a filtered complex")
    p.add_argument("input")

    p = sub.add_parser(
        "presentation-barcode", help="barcode of a presented module"
    )
    p.add_argument("input")

    p = sub.add_parser("snf", help="diagonal form of a presentation")
    p.add_argument("input")
    p.add_argument(
        "--dump",
        action="store_true",
        help="also print the change-of-coordinates maps",
    )

    p = sub.add_parser(
        "relative", help="barcode of a complex whose simplices get removed"
    )
    p.add_argument("input")
    p.add_argument(
        "--keep-ephemeral",
        action="store_true",
        help="keep zero-length bars in the output",
    )

    p = sub.add_parser(
        "stream", help="feed simplices one at a time, in file order"
    )
    p.add_argument("input")
    p.add_argument(
        "--emit-events",
        action="store_true",
        help="print the barcode delta of every insertion",
    )

    p = sub.add_parser(
        "op", help="apply a module construction and write the result"
    )
    p.add_argument(
        "operation",
        help=(
            "kernel|cokernel|image|pullback|pushout|tensor|tensor-k|"
            "dual|hom|wedge:<m>|sym:<m>|dsum"
        ),
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.field = field_from_string(args.field)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_ERROR
    try:
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so
        # that the interpreter's own flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PARSE_ERROR
    return code
