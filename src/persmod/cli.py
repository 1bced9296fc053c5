"""Command-line front end for persistence module computations.

All file formats are line-based ASCII; ``#`` starts a comment and
blank lines are skipped.  Filtered complexes list one simplex per line
as ``v0 v1 ... vk ; birth`` with an optional ``; removal`` column.
Presentations list ``gen <name> <degree>`` and
``rel <term> + <term> + ...`` lines, a term being
``<coeff>t^<e>*<name>`` with the coefficient optional.  Morphism files
hold a presentation under a ``source`` header, another under
``target``, and ``map <name> -> <term> + ...`` lines under ``maps``;
generators without a map line go to zero.

Barcodes print one bar per line as ``<dim> <birth> <death|inf>``
sorted by dimension, birth, death, with ``-`` for the dimension of
bars that do not carry one.  Identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 parse error (or a
reader that closed stdout early), 2 validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

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
    persistent_homology,
    relative_complex,
    torsion_homology,
)
from .linalg import GradedMatrix
from .presentation import (
    INF,
    Presentation,
    PresentationMorphism,
    barcode,
    validate_morphism,
)
from .streaming import StreamState, add_simplex, current_barcode

__all__ = [
    "CliError",
    "RunConfig",
    "format_complex",
    "format_presentation",
    "main",
    "parse_complex",
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
    try:
        return int(token)
    except ValueError:
        pass
    try:
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


def _load_complex(text):
    """Parse complex text into (FilteredComplex, value map or None).

    When any filtration value is not an integer, all values are
    replaced by their rank among the sorted distinct values and the
    mapping is returned for echoing.
    """
    rows = []
    for n, line in _content_lines(text):
        parts = [part.strip() for part in line.split(";")]
        if len(parts) not in (2, 3):
            raise CliError(
                PARSE_ERROR,
                f"line {n}: expected 'v0 v1 ... ; birth [; removal]'",
            )
        try:
            vertices = tuple(int(v) for v in parts[0].split())
        except ValueError:
            raise CliError(
                PARSE_ERROR, f"line {n}: bad vertex in {parts[0]!r}"
            ) from None
        if not vertices or any(v < 0 for v in vertices):
            raise CliError(
                PARSE_ERROR, f"line {n}: vertices must be nonnegative integers"
            )
        values = [_parse_value(part, n) for part in parts[1:]]
        rows.append((vertices, values))
    value_map = None
    if any(
        not isinstance(v, int) for _, values in rows for v in values
    ):
        distinct = sorted({v for _, values in rows for v in values})
        value_map = {v: rank for rank, v in enumerate(distinct)}
        rows = [
            (vertices, [value_map[v] for v in values])
            for vertices, values in rows
        ]
    try:
        filtration = FilteredComplex(
            (vertices, *values) for vertices, values in rows
        )
    except ValueError as e:
        raise CliError(VALIDATION_ERROR, str(e)) from None
    return filtration, value_map


def parse_complex(text: str) -> FilteredComplex:
    """Parse filtered-complex text; see the module docstring for grammar."""
    return _load_complex(text)[0]


def format_complex(filtration: FilteredComplex) -> str:
    """Render a complex in the input grammar, one simplex per line."""
    lines = []
    for s in filtration.simplices:
        head = " ".join(str(v) for v in s.vertices)
        if s.removal == INF:
            lines.append(f"{head} ; {s.birth}")
        else:
            lines.append(f"{head} ; {s.birth} ; {s.removal}")
    return "".join(line + "\n" for line in lines)


def _parse_term(token: str, lineno: int, field):
    """One term ``<coeff>t^<e>*<name>`` -> (coeff, exponent, name)."""
    head, sep, name = token.partition("*")
    coeff_text, tsep, exp_text = head.partition("t^")
    if not sep or not name or not tsep:
        raise CliError(
            PARSE_ERROR,
            f"line {lineno}: bad term {token!r} "
            "(expected <coeff>t^<e>*<name>)",
        )
    try:
        exponent = int(exp_text)
    except ValueError:
        raise CliError(
            PARSE_ERROR, f"line {lineno}: bad exponent in {token!r}"
        ) from None
    if exponent < 0:
        raise CliError(
            PARSE_ERROR, f"line {lineno}: negative exponent in {token!r}"
        )
    if coeff_text:
        try:
            coeff = field.parse(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise CliError(
                PARSE_ERROR,
                f"line {lineno}: bad coefficient in {token!r}",
            ) from None
    else:
        coeff = field.one
    return coeff, exponent, name


def _parse_terms(text: str, lineno: int, field):
    return [
        _parse_term(token.strip(), lineno, field)
        for token in text.split("+")
    ]


def _parse_presentation_lines(pairs, field) -> Presentation:
    gens = []
    rels = []
    for n, line in pairs:
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
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
            gens.append((tokens[0], degree))
        elif keyword == "rel":
            rels.append(_parse_terms(rest, n, field))
        else:
            raise CliError(
                PARSE_ERROR, f"line {n}: unknown directive {keyword!r}"
            )
    try:
        return Presentation.from_terms(field, gens, rels)
    except (ValueError, KeyError) as e:
        raise CliError(VALIDATION_ERROR, str(e)) from None


def parse_presentation(text: str, field=QQ) -> Presentation:
    """Parse presentation text; see the module docstring for grammar."""
    return _parse_presentation_lines(_content_lines(text), field)


def format_presentation(p: Presentation) -> str:
    """Render a presentation in the input grammar.

    Relations that are identically zero have no term syntax and are
    omitted; they do not constrain the module.
    """
    lines = [
        f"gen {label} {degree}"
        for label, degree in zip(p.gens.labels, p.gens.degrees)
    ]
    for j in range(len(p.rels)):
        terms = [
            f"{p.field.format(c)}t^{e}*{p.gens.labels[i]}"
            for i, c, e in p.incl.column(j).terms()
        ]
        if terms:
            lines.append("rel " + " + ".join(terms))
    return "".join(line + "\n" for line in lines)


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
    src = _parse_presentation_lines(sections["source"], field)
    dst = _parse_presentation_lines(sections["target"], field)
    entries = {}
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
        try:
            j = src.gens.index(name)
        except KeyError as e:
            raise CliError(VALIDATION_ERROR, f"line {n}: {e}") from None
        if j in mapped:
            raise CliError(
                PARSE_ERROR, f"line {n}: generator {name!r} mapped twice"
            )
        mapped.add(j)
        for coeff, exponent, label in _parse_terms(terms_text, n, field):
            try:
                i = dst.gens.index(label)
            except KeyError as e:
                raise CliError(VALIDATION_ERROR, f"line {n}: {e}") from None
            implied = src.gens.degrees[j] - dst.gens.degrees[i]
            if exponent != implied:
                raise CliError(
                    VALIDATION_ERROR,
                    f"line {n}: term on {label!r} must have exponent "
                    f"{implied} to preserve degree, got {exponent}",
                )
            entries[(i, j)] = field.add(
                entries.get((i, j), field.zero), field.scalar(coeff)
            )
    phi = GradedMatrix.from_entries(field, src.gens, dst.gens, entries)
    morphism = PresentationMorphism(src, dst, phi)
    if not validate_morphism(morphism):
        raise CliError(
            VALIDATION_ERROR,
            "generator map does not send source relations into the "
            "target relation span",
        )
    return morphism


class RunConfig:
    """One resolved invocation: field, command, inputs, output, flags."""

    __slots__ = (
        "field",
        "command",
        "operation",
        "inputs",
        "output",
        "keep_ephemeral",
        "emit_events",
        "dump",
    )

    def __init__(
        self,
        field,
        command,
        inputs,
        operation=None,
        output=None,
        keep_ephemeral=False,
        emit_events=False,
        dump=False,
    ):
        self.field = field
        self.command = command
        self.inputs = list(inputs)
        self.operation = operation
        self.output = output
        self.keep_ephemeral = keep_ephemeral
        self.emit_events = emit_events
        self.dump = dump


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except OSError as e:
        raise CliError(PARSE_ERROR, str(e)) from None


def _format_grade(value) -> str:
    return "inf" if value == INF else str(value)


def _bar_line(bar) -> str:
    dim = "-" if bar.dim is None else bar.dim
    return f"{dim} {_format_grade(bar.birth)} {_format_grade(bar.death)}"


def _print_bars(bars):
    for bar in bars:
        print(_bar_line(bar))


def _echo_value_map(value_map):
    if value_map:
        for value, rank in value_map.items():
            print(f"# value {value} -> {rank}")


def _map_lines(matrix: GradedMatrix):
    """``map`` lines describing a matrix column by column."""
    lines = []
    for j, label in enumerate(matrix.source.labels):
        terms = [
            f"{matrix.field.format(c)}t^{e}*{matrix.target.labels[i]}"
            for i, c, e in matrix.column(j).terms()
        ]
        lines.append(f"map {label} -> " + (" + ".join(terms) or "0"))
    return lines


def _cmd_barcode(config: RunConfig):
    filtration, value_map = _load_complex(_read(config.inputs[0]))
    bars = persistent_homology(filtration, config.field)
    _echo_value_map(value_map)
    _print_bars(bars)


def _cmd_presentation_barcode(config: RunConfig):
    p = parse_presentation(_read(config.inputs[0]), config.field)
    _print_bars(barcode(p))


def _cmd_snf(config: RunConfig):
    p = parse_presentation(_read(config.inputs[0]), config.field)
    form = snf_form(p)
    sys.stdout.write(format_presentation(form.presentation))
    if config.dump:
        print("# to_new")
        for line in _map_lines(form.to_new):
            print(line)
        print("# from_new")
        for line in _map_lines(form.from_new):
            print(line)


def _cmd_relative(config: RunConfig):
    filtration, value_map = _load_complex(_read(config.inputs[0]))
    bars = torsion_homology(relative_complex(filtration, config.field))
    if not config.keep_ephemeral:
        bars = bars.without_ephemeral()
    _echo_value_map(value_map)
    _print_bars(bars)


def _cmd_stream(config: RunConfig):
    filtration, value_map = _load_complex(_read(config.inputs[0]))
    if filtration.has_removals:
        raise CliError(
            VALIDATION_ERROR, "stream input cannot carry removal times"
        )
    _echo_value_map(value_map)
    state = StreamState(config.field)
    for s in filtration.simplices:
        state, delta = add_simplex(state, s.vertices, s.birth)
        if config.emit_events:
            head = " ".join(str(v) for v in s.vertices)
            print(f"# insert {head} ; {s.birth}")
            for bar in sorted(delta.removed, key=lambda b: b.key()):
                print(f"- {_bar_line(bar)}")
            for bar in sorted(delta.added, key=lambda b: b.key()):
                print(f"+ {_bar_line(bar)}")
    _print_bars(current_barcode(state))


def _expect_inputs(config: RunConfig, count: int):
    if len(config.inputs) != count:
        raise CliError(
            VALIDATION_ERROR,
            f"operation {config.operation!r} expects {count} input "
            f"file(s), got {len(config.inputs)}",
        )


def _cmd_op(config: RunConfig):
    name = config.operation
    presentations = {
        "dsum": direct_sum,
        "tensor": tensor,
        "tensor-k": tensor_over_k,
        "hom": hom,
    }
    morphisms = {
        "kernel": lambda f: kernel(f)[0],
        "cokernel": cokernel,
        "image": image,
    }
    if name in presentations:
        _expect_inputs(config, 2)
        p = parse_presentation(_read(config.inputs[0]), config.field)
        q = parse_presentation(_read(config.inputs[1]), config.field)
        result = presentations[name](p, q)
    elif name in morphisms:
        _expect_inputs(config, 1)
        f = parse_morphism(_read(config.inputs[0]), config.field)
        result = morphisms[name](f)
    elif name == "dual":
        _expect_inputs(config, 1)
        result = dual(parse_presentation(_read(config.inputs[0]), config.field))
    elif name.startswith(("wedge:", "sym:")):
        _expect_inputs(config, 1)
        kind, _, power_text = name.partition(":")
        try:
            power = int(power_text)
        except ValueError:
            raise CliError(
                VALIDATION_ERROR, f"bad power in operation {name!r}"
            ) from None
        p = parse_presentation(_read(config.inputs[0]), config.field)
        build = exterior_power if kind == "wedge" else symmetric_power
        result = build(p, power)
    elif name == "pullback":
        _expect_inputs(config, 2)
        f = parse_morphism(_read(config.inputs[0]), config.field)
        g = parse_morphism(_read(config.inputs[1]), config.field)
        if f.dst != g.dst:
            raise CliError(
                VALIDATION_ERROR, "pullback inputs must share a target"
            )
        result, _, _ = pullback(f, g)
    elif name == "pushout":
        _expect_inputs(config, 2)
        f = parse_morphism(_read(config.inputs[0]), config.field)
        g = parse_morphism(_read(config.inputs[1]), config.field)
        if f.src != g.src:
            raise CliError(
                VALIDATION_ERROR, "pushout inputs must share a source"
            )
        result = pushout(f, g)
    else:
        raise CliError(VALIDATION_ERROR, f"unknown operation {name!r}")
    try:
        with open(config.output, "w", encoding="ascii") as handle:
            handle.write(format_presentation(result))
    except OSError as e:
        raise CliError(VALIDATION_ERROR, str(e)) from None


_COMMANDS = {
    "barcode": _cmd_barcode,
    "presentation-barcode": _cmd_presentation_barcode,
    "snf": _cmd_snf,
    "relative": _cmd_relative,
    "stream": _cmd_stream,
    "op": _cmd_op,
}


def run(config: RunConfig) -> int:
    """Execute one invocation; report failures on stderr as exit codes."""
    try:
        _COMMANDS[config.command](config)
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
        field = field_from_string(args.field)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_ERROR
    config = RunConfig(
        field=field,
        command=args.command,
        inputs=getattr(args, "inputs", None) or [args.input],
        operation=getattr(args, "operation", None),
        output=getattr(args, "output", None),
        keep_ephemeral=getattr(args, "keep_ephemeral", False),
        emit_events=getattr(args, "emit_events", False),
        dump=getattr(args, "dump", False),
    )
    try:
        code = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so
        # that the interpreter's own flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return PARSE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
