"""Tests for the command-line interface: parsing, commands, exit codes.

Grammar and validation failures are checked against the two exit
codes (1 parse, 2 validation); command output is frozen byte for byte
on the worked examples used across the suite.  Round-trip properties
feed random structures through format and parse.
"""

import contextlib
import io
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import persmod

from helpers import (
    BOTH_FIELDS,
    complex_text,
    complexes,
    eager_diagonal_presentation,
    element_map_lines,
    element_presentation_text,
    entry,
    incl_built,
    int_then_float,
    random_filtered_complex,
    random_insertion_order,
    random_presentation,
    reference_bar_key,
    reference_bar_line,
    reference_load_complex,
    reference_parse_morphism,
    reference_parse_presentation,
    terms,
    with_component_removals,
)
from persmod import (
    INF,
    FilteredComplex,
    GradedBasis,
    GradedMatrix,
    Presentation,
    PrimeField,
    QQ,
    PresentationMorphism,
    StreamState,
    add_simplex,
    barcode,
    cokernel,
    current_barcode,
    direct_sum,
    dual,
    exterior_power,
    hom,
    image,
    kernel,
    persistent_homology,
    relative_complex,
    snf_form,
    symmetric_power,
    tensor,
    tensor_over_k,
    torsion_homology,
)
from persmod.cli import (
    CliError,
    _load_complex,
    _parse_value,
    _print_bars,
    format_presentation,
    main,
    parse_morphism,
    parse_presentation,
)
from persmod.constructions import _diagonal_presentation

FIG_COMPLEX = """\
# square closing into two triangles
0 ; 1
1 ; 1
2 ; 2
3 ; 2
0 1 ; 2
1 2 ; 2
0 3 ; 3
2 3 ; 3
0 2 ; 4
0 1 2 ; 5
0 2 3 ; 6
"""

DISSOLVING_COMPLEX = """\
0 ; 0 ; 13
1 ; 1 ; 12
2 ; 2 ; 11
0 1 ; 3 ; 10
0 2 ; 4 ; 9
1 2 ; 5 ; 8
0 1 2 ; 6 ; 7
"""

STREAM_COMPLEX = """\
1 ; 1
2 ; 4
1 2 ; 6
3 ; 2
1 3 ; 3
2 3 ; 5
1 2 3 ; 7
"""

TORSION_MODULE = """\
gen x 1
gen y 2
rel 1t^3*x
rel 1t^4*y
"""

FIVE_GEN_MODULE = """\
gen x 1
gen y 1
gen z 2
gen u 3
gen v 3
rel 1t^1*x + 1t^1*y + 1t^0*z
rel 1t^2*x + 1t^2*y + 1t^0*u
rel 1t^3*y + 1t^2*z + 1t^1*v
rel 1t^3*y + 1t^2*z + 1t^1*u
"""

SHIFT_MORPHISM = """\
source
gen x 1
rel 1t^3*x
target
gen u 0
rel 1t^4*u
maps
map x -> 1t^1*u
"""


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def drop_zero_relations(p):
    """Zero relation columns have no term syntax; strip them first."""
    relations = [
        [(scalar, exp, p.gens.labels[i]) for i, scalar, exp in terms(p.incl, j)]
        for j, col in enumerate(p.incl.cols)
        if col
    ]
    return Presentation.from_terms(
        p.field, list(zip(p.gens.labels, p.gens.degrees)), relations
    )


class TestParseComplex:
    def test_births_removals_comments(self):
        c = _load_complex("# c\n\n0 ; 1\n1;2\n0 1 ; 3 ; 9\n")[0]
        assert [s.vertices for s in c.simplices] == [(0,), (1,), (0, 1)]
        assert [s.birth for s in c.simplices] == [1, 2, 3]
        assert c.simplices[2].removal == 9

    def test_empty_text(self):
        assert len(_load_complex("")[0]) == 0

    def test_bad_value_reports_line(self):
        with pytest.raises(CliError) as err:
            _load_complex("0 ; 1\n1 ; soon\n")[0]
        assert err.value.code == 1
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(CliError) as err:
            _load_complex(f"0 ; 0\n1 ; 1\n0 1 ; {token}\n")[0]
        assert err.value.code == 1
        assert "line 3" in str(err.value)
        assert repr(token) in str(err.value)

    def test_non_finite_removal_rejected(self):
        with pytest.raises(CliError) as err:
            _load_complex("0 ; 0.5 ; inf\n")[0]
        assert err.value.code == 1
        assert "line 1" in str(err.value)

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", "0 ; nan\n1 ; 1\n0 1 ; inf\n")
        code, out, err = invoke(["barcode", path], capsys)
        assert (code, out) == (1, "")
        assert err == "error: line 1: non-finite filtration value 'nan'\n"

    @pytest.mark.parametrize("line", ["0 ; {}\n", "0 ; 0 ; {}\n"])
    def test_value_past_int_digit_limit(self, tmp_path, capsys, line):
        # int() refuses more digits than the interpreter's limit; with a
        # sign, float() would overflow, but the value is still an integer
        for sign in ("", "-", "+"):
            token = sign + "9" * (sys.get_int_max_str_digits() + 1)
            path = write(tmp_path, "c.flt", line.format(token))
            assert invoke(["relative", path], capsys) == (
                1, "", f"error: line 1: bad filtration value {token!r}\n"
            )

    def test_value_reader_matches_int_then_float_past_digit_limit(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for token in (digits, "-" + digits, "+" + digits, digits + ".5"):
            try:
                want = str(int_then_float(token, 4))
            except ValueError as e:
                want = str(e)
            try:
                got = str(_parse_value(token, 4))
            except CliError as e:
                got = str(e)
            assert got == want

    def test_missing_separator(self):
        with pytest.raises(CliError) as err:
            _load_complex("0 1\n")[0]
        assert err.value.code == 1
        assert str(err.value) == (
            "line 1: expected 'v0 v1 ... ; birth [; removal]'"
        )

    def test_bad_vertex(self):
        with pytest.raises(CliError) as err:
            _load_complex("a b ; 1\n")[0]
        assert err.value.code == 1
        assert str(err.value) == "line 1: bad vertex in 'a b'"

    def test_invariant_violation_is_validation_error(self):
        with pytest.raises(CliError) as err:
            _load_complex("0 ; 0\n0 1 ; 1\n")[0]
        assert err.value.code == 2
        assert str(err.value) == "line 2: simplex (0, 1) is missing face (1,)"

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("0 ; 0.5\n a b ; 1.5\n", 1, "line 2: bad vertex in 'a b'"),
            ("0 ; 0.5\n0 1\n", 1,
             "line 2: expected 'v0 v1 ... ; birth [; removal]'"),
            ("0 ; 0.5\n1 -2 ; 1.5\n", 1,
             "line 2: vertices must be nonnegative integers"),
            # no vertices: without the check, vertices[0] would raise an
            # IndexError that ``run`` does not catch
            (" ; 0\n", 1, "line 1: vertices must be nonnegative integers"),
            ("0 ; 0.5\n# again\n0 ; 1.5\n", 2,
             "line 3: simplex (0,) listed twice"),
            ("0 ; 0.5\n1 0 ; 1.5\n", 2,
             "line 2: simplex (0, 1) is missing face (1,)"),
            ("0 ; 0.25\n1 ; 2.5\n1 0 ; 1.5\n", 2,
             "line 3: face (1,) born at 2.5, after (0, 1) at 1.5"),
            ("0 ; 0.5 ; 1.5\n1 ; 0.5\n1 0 ; 0.75 ; 2.5\n", 2,
             "line 3: face (0,) removed at 1.5, before (0, 1) at 2.5"),
        ],
    )
    def test_error_lines(self, tmp_path, capsys, text, code, message):
        # values are rank-discretised; messages show them as written
        path = write(tmp_path, "c.flt", text)
        for command in ("barcode", "relative", "stream"):
            assert invoke([command, path], capsys) == (
                code, "", f"error: {message}\n"
            )

    @pytest.mark.parametrize(
        "token",
        [
            "7", "-3", "+5", "1_000", " 4 ", "0.5", "1e5", "2E-3", "-0.0",
            "nan", "inf", "Infinity", "1e999", "", "1.2.3", "0x10",
            "\u00b2", "\u0663", "1_0.5", "-inf", "5.", ".5e-1",
        ],
    )
    def test_value_reader_matches_int_then_float(self, token):
        try:
            want = int_then_float(token, 4)
        except ValueError as e:
            with pytest.raises(CliError) as err:
                _parse_value(token, 4)
            assert (err.value.code, str(err.value)) == (1, str(e))
        else:
            got = _parse_value(token, 4)
            assert (type(got), repr(got)) == (type(want), repr(want))

    def test_round_trip(self):
        rng = random.Random(2)
        for with_removals in (False, True):
            for _ in range(10):
                c = random_filtered_complex(rng, with_removals=with_removals)
                assert _load_complex(complex_text(c))[0] == c

    def test_reader_matches_reference(self):
        # the one-pass reader against the line-by-line one it replaced:
        # equal simplices with their value types, faces, value map and
        # line numbers, or the same error, on decorated complexes with
        # at most one mutation each
        rng = random.Random(25)
        ends = ["\n", "\r\n", "\x0c", "\x0b", "\x1c", "\x1e", "\r"]
        aims, messages = set(), []
        for n in range(660):
            c = random_filtered_complex(
                rng, max_vertices=6, with_removals=n % 2 == 1
            )
            if n % 4 == 3:  # removal times among the birth times
                c = with_component_removals(rng, c)
            style = n // 2 % 3  # ints, floats, or ints and equal floats
            shift = rng.choice([0, 8])  # reach the two-digit "1_0"
            rows = [[[v + shift for v in vs], b, r] for vs, b, r in c.simplices]
            mutation = n // 6 % 11
            if mutation:
                aims.add(self.mutate(rng, rows, mutation))

            def value(v):
                if isinstance(v, str) or style == 0:
                    return str(v)
                if style == 2:
                    return rng.choice([str(v), f"{v}.0"])
                return rng.choice(["0", "0.0"]) if v == 0 else repr(v / 4)

            def vertex(v):
                if isinstance(v, str):
                    return v
                if v >= 10 and rng.random() < 0.5:
                    return f"{v // 10}_{v % 10}"
                return rng.choice(["", "", "+"]) + str(v)

            text = []
            for vertices, birth, removal in rows:
                rng.shuffle(vertices)
                line = " ".join(map(vertex, vertices)) + f" ; {value(birth)}"
                if removal != INF:
                    line += f" ; {value(removal)}"
                if rng.random() < 0.1:
                    line += " # note"
                if rng.random() < 0.1:
                    text.append(rng.choice(["", "  ", "# comment"]))
                text.append(line)
            text = "".join(line + rng.choice(ends) for line in text)
            try:
                want = reference_load_complex(text)
            except CliError as e:
                with pytest.raises(CliError) as err:
                    _load_complex(text)
                assert (err.value.code, str(err.value)) == (e.code, str(e))
                messages.append(str(e))
                continue
            filtration, value_map, lines = _load_complex(text)
            got = (filtration.simplices, filtration._faces, value_map, lines)
            assert got == want
            typed = [
                (type(b), type(r)) for _, b, r in filtration.simplices
            ]
            assert typed == [(type(b), type(r)) for _, b, r in want[0]]
            if value_map:
                assert list(map(type, value_map)) == list(map(type, want[2]))
        assert len(aims) == 10
        for rule in aims:  # each mutation is the first error at least once
            assert any(rule in m for m in messages), rule

    @staticmethod
    def mutate(rng, rows, mutation):
        """Break one rule of the complex in ``rows`` in place; the rule
        the mutation aims at, which an earlier one may hide."""
        faces = [row for row in rows if any(
            len(other[0]) == len(row[0]) + 1 and set(row[0]) < set(other[0])
            for other in rows
        )]
        row = rng.choice(faces or rows)
        if mutation == 1:
            rows.remove(row)
            return "is missing face"
        if mutation == 2:
            rows.insert(rng.randrange(rows.index(row), len(rows) + 1), row)
            return "listed twice"
        if mutation == 3:
            if rng.random() < 0.5:
                row[0] = row[0] + row[0][:1]
            else:  # an edge (v, v) whose faces are all there
                vertex = rng.choice([r for r in rows if len(r[0]) == 1])
                rows.append([vertex[0] * 2, *vertex[1:]])
            return "repeated vertex"
        if mutation == 4:
            row[1] = max(b for _, b, _ in rows) + 1
            if row[2] != INF:
                row[2] = max(row[2], row[1])
            return "born at"
        if mutation == 5:
            row[2] = row[1]
            return "removed at"
        if mutation == 6:
            row[1] = -1
            return "< 0"
        if mutation == 7:
            row[1] = "-0.5"
            return "< 0"
        if mutation == 8:
            row[1], row[2] = row[1] + 2, row[1] + 1
            return "before its birth"
        if mutation == 9:
            if rng.random() < 0.5:
                row[1] = "soon"
                return "bad filtration value"
            row[0] = row[0] + ["x"]
            return "bad vertex"
        row[1] = f"{row[1]} ; 1 ; 2"
        return "expected 'v0"


class TestParsePresentation:
    def test_five_generator_module(self):
        p = parse_presentation(FIVE_GEN_MODULE)
        want = Presentation.from_terms(
            QQ,
            [("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)],
            [
                [(1, 1, "x"), (1, 1, "y"), (1, 0, "z")],
                [(1, 2, "x"), (1, 2, "y"), (1, 0, "u")],
                [(1, 3, "y"), (1, 2, "z"), (1, 1, "v")],
                [(1, 3, "y"), (1, 2, "z"), (1, 1, "u")],
            ],
        )
        assert p == want

    def test_gens_only_gives_free_module(self):
        p = parse_presentation("gen a 0\ngen b 2\n")
        assert len(p.gens) == 2
        assert len(p.rels) == 0

    def test_coefficient_is_optional(self):
        assert parse_presentation("gen x 1\nrel t^3*x\n") == parse_presentation(
            "gen x 1\nrel 1t^3*x\n"
        )

    def test_prime_field_coefficients(self):
        field = PrimeField(5)
        p = parse_presentation("gen x 0\nrel 3t^2*x\n", field)
        assert entry(p.incl, 0, 0) == 3

    def test_unknown_generator_is_validation_error(self):
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 1\nrel 1t^0*ghost\n")
        assert err.value.code == 2
        assert "ghost" in str(err.value)

    def test_mixed_degrees_is_validation_error(self):
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 0\ngen y 5\nrel 1t^0*x + 1t^0*y\n")
        assert err.value.code == 2

    # command (after any options), input, exit code, error line
    ERROR_LINES = [
        ("presentation-barcode", "gen x 0\nrel 1t^1*z\n",
         2, "line 2: no basis element labeled 'z'"),
        # the first term at fault names the fault
        ("presentation-barcode", "gen x 0\nrel 1t^1*z + 1t^1*w\n",
         2, "line 2: no basis element labeled 'z'"),
        ("presentation-barcode", "gen x 0\ngen y 1\nrel 1t^1*x + 1t^3*y + 1t^1*w\n",
         2, "line 3: relation 0 mixes degrees 1 and 4"),
        ("op", "source\ngen x 2\ntarget\ngen u 0\nmaps\n"
         "map x -> 1t^2*u + 1t^1*u + 1t^0*v\n",
         2, "line 6: term on 'u' must have exponent 2 to preserve degree, got 1"),
        # a relation may name a later generator; a fault in it is
        # reported at its own line once every generator is known
        ("presentation-barcode",
         "gen x 0\nrel 1t^1*y\nrel 1t^1*x + 1t^1*y\ngen y 1\n",
         2, "line 3: relation 1 mixes degrees 1 and 2"),
        ("presentation-barcode",
         "gen x 0\ngen y 1\n\nrel 1t^1*x + 1t^1*y\n",
         2, "line 4: relation 0 mixes degrees 1 and 2"),
        ("presentation-barcode",
         "gen x 0\nrel 1t^1*x\n# y\nrel 1t^2*x + 1t^0*y\n",
         2, "line 4: no basis element labeled 'y'"),
        ("op", "source\ngen x 0\ntarget\ngen u 0\nmaps\n"
         "map x -> 1t^0*v\n",
         2, "line 6: no basis element labeled 'v'"),
        ("op", "source\ngen x 0\ntarget\ngen u 0\nmaps\n"
         "map q -> 1t^0*u\n",
         2, "line 6: no basis element labeled 'q'"),
        ("op", "source\ngen x 0\ntarget\ngen u 0\n"
         "rel 1t^2*u + 1t^1*u\nmaps\n",
         2, "line 5: relation 0 mixes degrees 2 and 1"),
        ("presentation-barcode", "gen x 0\ngen x 1\n",
         2, "line 2: duplicate basis label 'x'"),
        ("presentation-barcode",
         "gen x 0\ngen y 0\n# again\ngen y 2\ngen x 1\nrel 1t^1*z\n",
         2, "line 4: duplicate basis label 'y'"),
        ("op", "source\ngen x 0\ngen x 0\ntarget\ngen u 0\nmaps\n",
         2, "line 3: duplicate basis label 'x'"),
        ("op", "source\ngen x 0\ntarget\ngen u 0\ngen u 1\nmaps\n",
         2, "line 5: duplicate basis label 'u'"),
        # reader errors: each exits 1 with one line
        ("presentation-barcode", "gen x\n", 1,
         "line 1: expected 'gen <name> <degree>'"),
        ("presentation-barcode", "gen x a\n", 1,
         "line 1: bad degree 'a'"),
        ("presentation-barcode", "gen x 0\nrel 1t^a*x\n", 1,
         "line 2: bad exponent in '1t^a*x'"),
        ("presentation-barcode", "gen x 0\nrel 1t^-1*x\n", 1,
         "line 2: negative exponent in '1t^-1*x'"),
        ("op", "source\ngen x 0\ntarget\ngen y 0\nmaps\nfoo x\n", 1,
         "line 6: unknown directive 'foo'"),
        ("op", "source\ngen x 0\ntarget\ngen y 0\nmaps\n"
         "map x 1t^0*y\n", 1,
         "line 6: expected 'map <name> -> <terms>'"),
        # a coefficient whose value has more digits than int() reads,
        # refused at once as its digits written out would be
        ("presentation-barcode", "gen x 0\nrel 1e100000000t^1*x\n", 1,
         "line 2: bad coefficient in '1e100000000t^1*x'"),
        ("snf", "gen x 0\nrel 1e100000000t^1*x\n", 1,
         "line 2: bad coefficient in '1e100000000t^1*x'"),
        ("snf", "gen x 0\nrel 1e-100000000t^1*x\n", 1,
         "line 2: bad coefficient in '1e-100000000t^1*x'"),
        ("snf", "gen x 0\ngen y 0\nrel 1e5000t^1*x + 1t^1*y\n", 1,
         "line 3: bad coefficient in '1e5000t^1*x'"),
        ("op", "source\ngen x 0\ntarget\ngen y 0\nmaps\n"
         "map x -> 1e10000000t^0*y\n", 1,
         "line 6: bad coefficient in '1e10000000t^0*y'"),
        # a value the reader accepts but whose digits cannot be written:
        # nothing is printed, and the line is alike on every version
        ("snf", "gen x 0\ngen y 0\ngen z 0\n"
         "rel 1e4000t^1*x + 1e4000t^1*y + 1t^1*z\nrel 1e4000t^2*x + 1t^2*y\n",
         2, "a computed value has more than 4300 digits and cannot be written"),
        # degrees the reader accepts whose sum, a tensor degree or a
        # bar's death, has 4,301 digits
        ("op:tensor", f"gen x {'9' * 4300}\nrel 1t^1*x\n",
         2, "a computed value has more than 4300 digits and cannot be written"),
        ("presentation-barcode", f"gen x {'9' * 4300}\nrel 1t^{'9' * 4300}*x\n",
         2, "a computed value has more than 4300 digits and cannot be written"),
        # the coefficient grammar of Python 3.10's Fraction on every
        # version: no '_' (3.11 reads it) and no blank around '/' (3.12)
        ("presentation-barcode", "gen x 0\nrel 1_000t^1*x\n", 1,
         "line 2: bad coefficient in '1_000t^1*x'"),
        ("presentation-barcode", "gen x 0\nrel 2 / 3t^1*x\n", 1,
         "line 2: bad coefficient in '2 / 3t^1*x'"),
        ("op", "source\ngen x 0\ntarget\ngen y 0\nmaps\n"
         "map x -> 2/ 3t^0*y\n", 1,
         "line 6: bad coefficient in '2/ 3t^0*y'"),
        ("--field Zp:3 presentation-barcode", "gen x 0\nrel 1_0t^1*x\n", 1,
         "line 2: bad coefficient in '1_0t^1*x'"),
        ("--field Zp:3 snf", "gen x 0\nrel 2 / 3t^1*x\n", 1,
         "line 2: bad coefficient in '2 / 3t^1*x'"),
    ]

    @pytest.mark.parametrize(
        "command, text, code, message",
        ERROR_LINES,
        # ids without the exit code, so each row keeps its test name; a
        # long text is named by its head and length
        ids=[
            f"{c}-{t if len(t) < 200 else f'{t[:12]}...({len(t)} chars)'}-{m}"
            for c, t, _, m in ERROR_LINES
        ],
    )
    def test_error_lines(self, tmp_path, capsys, command, text, code, message):
        # "op" reads the input as a morphism and takes its image,
        # "op:tensor" reads it as a presentation and tensors it with itself
        path = write(tmp_path, "in.txt", text)
        out = tmp_path / "out.pmod"
        *options, command = command.split()
        argv = [*options, command, path]
        if command == "snf":
            argv.append("--dump")
        if command == "op":
            argv[-1:] = ["image", path, "-o", str(out)]
        if command == "op:tensor":
            argv[-2:] = ["op", "tensor", path, path, "-o", str(out)]
        started = time.perf_counter()
        assert invoke(argv, capsys) == (code, "", f"error: {message}\n")
        assert time.perf_counter() - started < 2
        assert not out.exists()

    def test_unknown_directive(self):
        with pytest.raises(CliError) as err:
            parse_presentation("generator x 1\n")
        assert err.value.code == 1

    def test_bad_term_reports_line(self):
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 1\nrel x\n")
        assert err.value.code == 1
        assert "line 2" in str(err.value)

    def test_zero_denominator_reports_line(self, tmp_path, capsys):
        # the same bad text again on line 3: line 2 is the one reported
        text = "gen x 1\nrel 1/0t^1*x\nrel 1/0t^2*x\n"
        with pytest.raises(CliError) as err:
            parse_presentation(text)
        assert err.value.code == 1
        assert "line 2" in str(err.value)
        path = write(tmp_path, "m.pmod", text)
        code, out, err = invoke(["presentation-barcode", path], capsys)
        assert (code, out) == (1, "")
        assert err == "error: line 2: bad coefficient in '1/0t^1*x'\n"

    def test_repeated_coefficient_text(self, tmp_path, capsys):
        # one text four times in a file, and again in a second file
        text = (
            "gen x 0\ngen y 1\n"
            "rel -2/3t^2*x + -2/3t^1*y\nrel -2/3t^3*x + -4/6t^2*y\n"
        )
        third = Fraction(-2, 3)
        want = Presentation.from_terms(
            QQ, [("x", 0), ("y", 1)],
            [[(third, 2, "x"), (third, 1, "y")],
             [(third, 3, "x"), (third, 2, "y")]],
        )
        assert parse_presentation(text) == want
        assert parse_presentation(text) == want
        # a table kept across files would hand Z/5's 2 to Q
        seven = "gen x 0\nrel 7t^1*x\n"
        assert parse_presentation(seven, PrimeField(5)).incl.cols == ({0: 2},)
        assert parse_presentation(seven).incl.cols == ({0: 7},)
        path = write(tmp_path, "p.pmod", text)
        code, _, err = invoke(
            ["op", "dsum", path, path, "-o", str(tmp_path / "s.pmod")], capsys
        )
        assert (code, err) == (0, "")
        summed = format_presentation(direct_sum(want, want))
        assert (tmp_path / "s.pmod").read_text() == summed

    def test_round_trip(self):
        for field in BOTH_FIELDS:
            rng = random.Random(7)
            for _ in range(15):
                p = drop_zero_relations(random_presentation(field, rng))
                assert parse_presentation(format_presentation(p), field) == p

    @pytest.mark.parametrize("name", ["a+b", "a->b", "+", "x->"])
    def test_generator_name_no_term_can_name(self, name):
        with pytest.raises(CliError) as err:
            parse_presentation(f"gen x 1\ngen {name} 0\n")
        assert err.value.code == 1
        assert str(err.value).startswith("line 2: ")

    def test_unnameable_generator_exits_before_writing(self, tmp_path, capsys):
        # tensoring would write 'rel 1t^2*(a+b.x)', which no parser reads
        p_path = write(tmp_path, "p.pmod", "gen a+b 0\n")
        q_path = write(tmp_path, "q.pmod", "gen x 1\nrel t^2*x\n")
        out = tmp_path / "t.pmod"
        code, _, err = invoke(
            ["op", "tensor", p_path, q_path, "-o", str(out)], capsys
        )
        assert code == 1
        assert err == "error: line 1: generator name 'a+b' contains '+' or '->'\n"
        assert not out.exists()

    def test_round_trip_with_negative_degrees(self):
        text = "gen x* -1\ngen y* -2\nrel 1t^3*x*\n"
        p = parse_presentation(text)
        assert format_presentation(p) == text


class TestParseMorphism:
    def test_sections_and_map(self):
        f = parse_morphism(SHIFT_MORPHISM)
        assert list(f.src.gens.labels) == ["x"]
        assert list(f.dst.gens.labels) == ["u"]
        assert [e for _, _, e in terms(f.phi, 0)] == [1]

    def test_unmapped_generator_goes_to_zero(self):
        f = parse_morphism(
            "source\ngen x 1\ntarget\ngen u 1\nmaps\n"
        )
        assert f.phi.is_zero

    def test_line_outside_sections(self):
        with pytest.raises(CliError) as err:
            parse_morphism("gen x 1\n")
        assert err.value.code == 1
        assert "header" in str(err.value)

    def test_unknown_source_generator(self):
        text = SHIFT_MORPHISM.replace("map x ->", "map w ->")
        with pytest.raises(CliError) as err:
            parse_morphism(text)
        assert err.value.code == 2

    def test_wrong_exponent_rejected(self):
        text = SHIFT_MORPHISM.replace("1t^1*u", "1t^2*u")
        with pytest.raises(CliError) as err:
            parse_morphism(text)
        assert err.value.code == 2
        assert "exponent" in str(err.value)

    def test_generator_mapped_twice(self):
        text = SHIFT_MORPHISM + "map x -> 1t^1*u\n"
        with pytest.raises(CliError) as err:
            parse_morphism(text)
        assert err.value.code == 1

    def test_coefficient_text_shared_across_sections(self):
        text = (
            "source\ngen x 0\nrel 3/2t^2*x\n"
            "target\ngen u 0\nrel 3/2t^2*u\n"
            "maps\nmap x -> 3/2t^0*u + 3/2t^0*u\n"
        )
        f = parse_morphism(text)
        three_halves = Fraction(3, 2)
        assert f.src.incl.cols == ({0: three_halves},)
        assert f.dst.incl.cols == ({0: three_halves},)
        assert f.phi.cols == ({0: 3},)
        bad = text.replace("3/2", "3/0")
        with pytest.raises(CliError) as err:
            parse_morphism(bad)
        assert (err.value.code, str(err.value)) == (
            1, "line 3: bad coefficient in '3/0t^2*x'"
        )

    def test_map_that_does_not_descend_rejected(self):
        text = (
            "source\ngen x 0\nrel 1t^2*x\n"
            "target\ngen u 0\n"
            "maps\nmap x -> 1t^0*u\n"
        )
        with pytest.raises(CliError) as err:
            parse_morphism(text)
        assert err.value.code == 2
        assert "relation span" in str(err.value)


class TestReaderMatchesReference:
    """The one-pass presentation and morphism reader against the
    term-by-term one it replaced (``helpers.reference_parse_*``): the
    same presentation or morphism, scalar types included, or the same
    exit code and error line."""

    # coefficient texts that each field reads
    COEFFS = {
        0: ["", "", "", "1", "-1", "2", "-3/4", "6/4", "0", "1.5", "2e1"],
        3: ["", "", "", "1", "-1", "2", "0", "5", "-7"],
    }

    def module(self, rng, field, prefix):
        """[kind, ...] entries of a random presentation: its generators
        and relations whose terms agree on their degree."""
        gens = [
            [f"{prefix}{i}", rng.randint(-1, 4)] for i in range(rng.randint(1, 4))
        ]
        entries = [["gen", *g] for g in gens]
        for _ in range(rng.randint(0, 3)):
            degree = max(d for _, d in gens) + rng.randint(0, 2)
            chosen = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            entries.append(
                ["rel", [self.term(rng, field, g, degree) for g in chosen]]
            )
        return gens, entries

    def term(self, rng, field, gen, degree):
        return [rng.choice(self.COEFFS[field.char]), str(degree - gen[1]), gen[0]]

    def morphism(self, rng, field):
        src, src_entries = self.module(rng, field, "x")
        if rng.random() < 0.5:  # a free source: every map descends
            src_entries = [e for e in src_entries if e[0] == "gen"]
        dst, dst_entries = self.module(rng, field, "u")
        maps = []
        for label, d in src:
            below = [g for g in dst if g[1] <= d]
            if below and rng.random() < 0.8:
                chosen = [rng.choice(below) for _ in range(rng.randint(1, 3))]
                terms = [self.term(rng, field, g, d) for g in chosen]
                maps.append(["map", label, "->", terms])
        return [
            ["head", "source"], *src_entries, ["head", "target"], *dst_entries,
            ["head", "maps"], *maps,
        ]

    @staticmethod
    def mutate(rng, entries, fault):
        """Break ``entries`` in place; the error text the fault aims at,
        which an earlier fault may hide, or None if it is no fault."""
        def pick(*kinds):
            found = [e for e in entries if e[0] in kinds]
            return rng.choice(found) if found else None

        term_holder = pick("rel", "map")
        term = term_holder and rng.choice(term_holder[-1])
        if fault in ("term", "exponent", "negative", "coefficient", "label"):
            if term is None:
                return None
            if fault == "term":
                term.append(rng.choice(["nostar", "nocaret", "empty"]))
                return "bad term"
            if fault == "exponent":
                term[1] = rng.choice(["a", "1.5", "", "2-"])
                return "bad exponent"
            if fault == "negative":
                term[1] = "-1"
                return "negative exponent"
            if fault == "coefficient":
                term[0] = rng.choice(["1/0", "q", "1/2/3", "1e100000000", "--1"])
                return "bad coefficient"
            term[2] = "zz"
            return "no basis element labeled 'zz'"
        if fault == "degree":
            if term is None or not term[1].isdigit():
                return None
            term[1] = str(int(term[1]) + 1)
            return "mixes degrees" if term_holder[0] == "rel" else "must have exponent"
        if fault == "repeated":
            gen = pick("gen")
            entries.insert(rng.randint(entries.index(gen) + 1, len(entries)), list(gen))
            return "duplicate basis label"
        if fault == "gen-late":  # no fault: a relation may name a later gen
            gen = pick("gen")
            at = entries.index(gen)
            end = next(
                (k for k in range(at + 1, len(entries)) if entries[k][0] == "head"),
                len(entries),
            )
            entries.insert(end - 1, entries.pop(at))
            return None
        if fault == "twice":
            line = pick("map")
            if line is None:
                return None
            entries.insert(rng.randint(entries.index(line) + 1, len(entries)), line)
            return "mapped twice"
        if fault == "arrow":
            line = pick("map")
            if line is None:
                return None
            line[2] = ""
            return "expected 'map <name> -> <terms>'"
        if fault == "source":
            line = pick("map")
            if line is None:
                return None
            line[1] = "zz"
            return "no basis element labeled 'zz'"
        gen = pick("gen")
        if fault == "gen-degree":
            gen[2] = "a"
            return "bad degree"
        entries.insert(entries.index(gen), ["raw", "foo x"])
        return "unknown directive"

    @staticmethod
    def text(rng, entries):
        def term(t):
            coeff, exponent, label, *style = t
            if style == ["nostar"]:
                return f"{coeff}t^{exponent}{label}"
            if style == ["nocaret"]:
                return f"{coeff}t{exponent}*{label}"
            return "" if style else f"{coeff}t^{exponent}*{label}"

        lines = []
        for kind, *rest in entries:
            if kind in ("head", "raw"):
                lines.append(rest[0])
            elif kind == "gen":
                lines.append(f"gen {rest[0]} {rest[1]}")
            else:
                terms = rng.choice([" + ", "+", "  +  "]).join(map(term, rest[-1]))
                if kind == "rel":
                    lines.append(f"rel {terms}")
                else:
                    lines.append(f"map {rest[0]} {rest[1]} {terms}")
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "# note"]))
        return "".join(line + "\n" for line in lines)

    FAULTS = (
        "term", "exponent", "negative", "coefficient", "label", "degree",
        "repeated", "gen-late", "twice", "arrow", "source", "gen-degree",
        "directive",
    )

    @staticmethod
    def outcome(read, text, field):
        try:
            result = read(text, field)
        except CliError as e:
            return e.code, str(e)
        if isinstance(result, Presentation):
            matrices = [result.incl]
        else:
            matrices = [result.src.incl, result.dst.incl, result.phi]
        # scalars with their types, each column in its key order
        return [
            (m.source, m.target, [[(i, c, type(c)) for i, c in col.items()]
                                  for col in m.cols])
            for m in matrices
        ]

    def test_matches_reference(self):
        rng = random.Random(34)
        aims, messages, parsed = set(), [], {False: 0, True: 0}
        for n in range(2000):
            field = (QQ, PrimeField(3))[n % 2]
            is_morphism = n % 3 != 0
            if is_morphism:
                entries = self.morphism(rng, field)
                read, reference = parse_morphism, reference_parse_morphism
            else:
                entries = self.module(rng, field, "g")[1]
                read, reference = parse_presentation, reference_parse_presentation
            faults = rng.sample(self.FAULTS, rng.choice([0, 1, 1, 2]))
            for fault in faults:
                if not is_morphism and fault in ("twice", "arrow", "source"):
                    continue
                aim = self.mutate(rng, entries, fault)
                if aim is not None:
                    aims.add(aim)
            text = self.text(rng, entries)
            want = self.outcome(reference, text, field)
            assert self.outcome(read, text, field) == want, text
            if type(want) is tuple:
                messages.append(want[1])
            else:
                parsed["gen-late" in faults] += 1
        assert len(aims) == 12
        for aim in aims:  # each fault is the error reported at least once
            assert any(aim in m for m in messages), aim
        assert min(parsed.values()) > 5, parsed


class TestBarcodeCommand:
    def test_two_triangles(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        code, out, _ = invoke(["barcode", path], capsys)
        assert code == 0
        assert out == (
            "0 1 2\n0 1 inf\n0 2 2\n0 2 3\n1 3 6\n1 4 5\n"
        )

    def test_path_complex(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", "0 ; 1\n1 ; 2\n0 1 ; 3\n")
        code, out, _ = invoke(["barcode", path], capsys)
        assert code == 0
        assert out == "0 1 inf\n0 2 3\n"

    def test_prime_field_flag(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        code, out, _ = invoke(["--field", "Zp:5", "barcode", path], capsys)
        assert code == 0
        assert "1 3 6" in out

    def test_non_prime_field_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        code, _, err = invoke(["--field", "Zp:6", "barcode", path], capsys)
        assert code == 2
        assert "not prime" in err

    def test_removals_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", DISSOLVING_COMPLEX)
        assert invoke(["barcode", path], capsys) == (
            2,
            "",
            "error: barcode input cannot carry removal times; "
            "use 'persmod relative'\n",
        )

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = invoke(["barcode", str(tmp_path / "no.flt")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_fractional_values_discretized(self, tmp_path, capsys):
        path = write(
            tmp_path, "c.flt", "0 ; 0.5\n1 ; 1.25\n0 1 ; 2.5\n"
        )
        code, out, _ = invoke(["barcode", path], capsys)
        assert code == 0
        assert out == (
            "# value 0.5 -> 0\n# value 1.25 -> 1\n# value 2.5 -> 2\n"
            "0 0 inf\n0 1 2\n"
        )

    def test_validation_error_cites_line_and_raw_values(self, tmp_path, capsys):
        # ranks 0, 2, 1 stand for 0.5, 0.7, 0.6; the message shows the latter
        path = write(tmp_path, "c.flt", "0 ; 0.5\n1 ; 0.7\n0 1 ; 0.6\n")
        code, out, err = invoke(["barcode", path], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 3: face (1,) born at 0.7, after (0, 1) at 0.6\n"
        path = write(tmp_path, "r.flt", "0 ; 1 ; 9\n# comment\n0 ; 2.5\n")
        code, _, err = invoke(["barcode", path], capsys)
        assert (code, err) == (2, "error: line 3: simplex (0,) listed twice\n")

    @pytest.mark.parametrize("command", ["barcode", "relative", "stream"])
    @pytest.mark.parametrize(
        "text, error",
        [
            ("0 ; -1\n1 ; 0\n0 1 ; 2\n", "line 1: simplex (0,) born at -1 < 0"),
            # ranked values: a rank is never negative, the value is
            ("0 ; -1\n1 ; 0.5\n0 1 ; 2\n", "line 1: simplex (0,) born at -1 < 0"),
            (
                "0 ; -1.5\n1 ; 0.5\n0 1 ; 2\n",
                "line 1: simplex (0,) born at -1.5 < 0",
            ),
            (
                "0 ; 0\n1 ; 0.5\n0 1 ; 2 ; -0.5\n",
                "line 3: simplex (0, 1) removed at -0.5 before its birth 2",
            ),
            # a rule broken at an earlier line is still the one reported
            ("0 0 ; 0.5\n1 ; -1\n", "line 1: repeated vertex in simplex (0, 0)"),
            ("0 ; 0.5\n0 ; 1\n1 ; -1\n", "line 2: simplex (0,) listed twice"),
        ],
        ids=[
            "int", "ranked-int", "ranked-float", "ranked-removal",
            "repeated-vertex-first", "listed-twice-first",
        ],
    )
    def test_negative_value_rejected(self, tmp_path, capsys, command, text, error):
        path = write(tmp_path, "c.flt", text)
        assert invoke([command, path], capsys) == (2, "", f"error: {error}\n")

    def test_python_dash_m_matches_main(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        src = os.path.dirname(os.path.dirname(persmod.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "persmod", "barcode", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        code, out, _ = invoke(["barcode", path], capsys)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code == 0 and out

    def test_package_main_runs_the_cli(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        monkeypatch.setattr(sys, "argv", ["persmod", "barcode", path])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("persmod", run_name="__main__")
        assert exit_.value.code == 0
        assert capsys.readouterr() == (
            "0 1 2\n0 1 inf\n0 2 2\n0 2 3\n1 3 6\n1 4 5\n", ""
        )

    def test_closed_stdout_in_process(self, tmp_path, capsys, monkeypatch):
        # Python ignores SIGPIPE, so the flush into a pipe whose read end
        # is closed raises.  main then dup2s /dev/null onto the pipe's
        # descriptor, so it must be one the test owns, never fd 1
        def lowest_free_descriptor():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            free = lowest_free_descriptor()
            assert main(["barcode", path]) == 1
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
            assert lowest_free_descriptor() == free, "a descriptor leaked"
        # closing flushed the held output into /dev/null without an error
        assert capsys.readouterr() == ("", "")

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # more output than a pipe holds: the child blocks on the full
        # pipe until the read end is closed, then its write fails
        text = "".join(f"{v} ; 0\n" for v in range(20000))
        path = write(tmp_path, "c.flt", text)
        src = os.path.dirname(os.path.dirname(persmod.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "persmod", "barcode", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_byte_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        _, first, _ = invoke(["barcode", path], capsys)
        _, second, _ = invoke(["barcode", path], capsys)
        assert first == second


class TestPresentationBarcodeCommand:
    def test_torsion_module(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        code, out, _ = invoke(["presentation-barcode", path], capsys)
        assert code == 0
        assert out == "- 1 4\n- 2 6\n"

    def test_free_bar_born_past_float_range(self, tmp_path, capsys):
        # INF is not added to, so the int birth is never made a float
        birth = "1" + "0" * 400
        path = write(tmp_path, "m.pmod", f"gen x {birth}\n")
        assert invoke(["presentation-barcode", path], capsys) == (
            0, f"- {birth} inf\n", ""
        )

    def test_direct_sum_doubles_bars(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        out_path = str(tmp_path / "sum.pmod")
        code, _, _ = invoke(["op", "dsum", path, path, "-o", out_path], capsys)
        assert code == 0
        code, out, _ = invoke(["presentation-barcode", out_path], capsys)
        assert code == 0
        assert out == "- 1 4\n- 1 4\n- 2 6\n- 2 6\n"


class TestSnfCommand:
    def test_diagonal_module_round_trips(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        code, out, _ = invoke(["snf", path], capsys)
        assert code == 0
        assert out == TORSION_MODULE

    def test_snf_presentation_matches_engine(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", FIVE_GEN_MODULE)
        code, out, _ = invoke(["snf", path], capsys)
        assert code == 0
        p = parse_presentation(FIVE_GEN_MODULE)
        assert parse_presentation(out) == snf_form(p).presentation
        assert barcode(parse_presentation(out)) == barcode(p).without_ephemeral()

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
    def test_equals_first_block_of_dump(self, field, tmp_path, capsys):
        # without --dump the pairing route writes what --dump writes
        # before its change maps
        rng = random.Random(81)
        for n in range(25):
            text = format_presentation(random_presentation(field, rng))
            path = write(tmp_path, f"p{n}.pmod", text)
            argv = ["--field", repr(field), "snf", path]
            code, plain, err = invoke(argv, capsys)
            assert (code, err) == (0, "")
            code, dumped, _ = invoke([*argv, "--dump"], capsys)
            assert code == 0
            assert plain == dumped[: dumped.index("# to_new\n")], f"input {n}"

    def test_without_dump_runs_no_snf(self, tmp_path, capsys, monkeypatch):
        def refused(*args):
            raise AssertionError("graded_snf called")

        monkeypatch.setattr(persmod.constructions, "graded_snf", refused)
        monkeypatch.setattr(persmod.linalg, "graded_snf", refused)
        path = write(tmp_path, "m.pmod", FIVE_GEN_MODULE)
        code, out, _ = invoke(["snf", path], capsys)
        assert code == 0
        p = parse_presentation(FIVE_GEN_MODULE)
        assert parse_presentation(out) == exterior_power(p, 1)

    def test_dump_prints_change_maps(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", FIVE_GEN_MODULE)
        code, out, _ = invoke(["snf", path, "--dump"], capsys)
        assert code == 0
        assert "# to_new\n" in out
        assert "# from_new\n" in out
        assert out.count("map ") >= 2


class TestRelativeCommand:
    def test_dissolving_triangle_table(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", DISSOLVING_COMPLEX)
        code, out, err = invoke(["relative", path], capsys)
        assert code == 0
        assert out == "0 0 11\n0 1 3\n0 2 4\n1 5 6\n"
        # each face outlives the edge (0, 1) of line 4: the boundary
        # does not descend to the torsion chains
        assert err == (
            "warning: line 4: face (0,) of simplex (0, 1) is removed at 13, "
            "after (0, 1) at 10; bars of every dimension are torsion-chain "
            "homology, not slice homology\n"
        )

    def test_descending_input_has_no_warning(self, tmp_path, capsys):
        # every removed simplex goes with its faces; values as written
        text = "# comment\n0 ; 0.5 ; 3\n1 ; 1 ; 3\n0 1 ; 2 ; 3\n2 ; 1\n"
        path = write(tmp_path, "c.flt", text)
        code, out, err = invoke(["relative", path], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("0 0 3\n0 1 2\n0 1 inf\n")
        text = text.replace("0 1 ; 2 ; 3", "0 1 ; 2 ; 2.5")
        path = write(tmp_path, "d.flt", text)
        code, _, err = invoke(["relative", path], capsys)
        assert code == 0
        assert err.startswith(
            "warning: line 4: face (0,) of simplex (0, 1) is removed at 3, "
            "after (0, 1) at 2.5; "
        )

    def test_free_bar_born_past_float_range(self, tmp_path, capsys):
        birth = "1" + "0" * 400
        path = write(tmp_path, "c.flt", f"0 ; {birth}\n")
        assert invoke(["relative", path], capsys) == (0, f"0 {birth} inf\n", "")

    def test_keep_ephemeral(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", DISSOLVING_COMPLEX)
        code, out, _ = invoke(["relative", "--keep-ephemeral", path], capsys)
        assert code == 0
        assert out == (
            "0 0 11\n0 1 3\n0 2 4\n1 5 6\n"
            "1 12 12\n1 13 13\n2 10 10\n"
        )


class TestStreamCommand:
    def test_final_barcode(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", STREAM_COMPLEX)
        code, out, _ = invoke(["stream", path], capsys)
        assert code == 0
        assert out == "0 1 inf\n0 2 3\n0 4 5\n1 6 7\n"

    def test_emit_events_trace(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", STREAM_COMPLEX)
        code, out, _ = invoke(["stream", "--emit-events", path], capsys)
        assert code == 0
        assert out == (
            "# insert 1 ; 1\n"
            "+ 0 1 inf\n"
            "# insert 2 ; 4\n"
            "+ 0 4 inf\n"
            "# insert 1 2 ; 6\n"
            "- 0 4 inf\n"
            "+ 0 4 6\n"
            "# insert 3 ; 2\n"
            "+ 0 2 inf\n"
            "# insert 1 3 ; 3\n"
            "- 0 2 inf\n"
            "+ 0 2 3\n"
            "# insert 2 3 ; 5\n"
            "- 0 4 6\n"
            "+ 0 4 5\n"
            "+ 1 6 inf\n"
            "# insert 1 2 3 ; 7\n"
            "- 1 6 inf\n"
            "+ 1 6 7\n"
            "0 1 inf\n"
            "0 2 3\n"
            "0 4 5\n"
            "1 6 7\n"
        )

    def test_matches_batch_on_sorted_input(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        code, streamed, _ = invoke(["stream", path], capsys)
        assert code == 0
        code, batch, _ = invoke(["barcode", path], capsys)
        assert streamed == batch

    def test_rejects_removals(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", DISSOLVING_COMPLEX)
        code, _, err = invoke(["stream", path], capsys)
        assert code == 2
        assert "removal" in err

    def test_face_must_arrive_first(self, tmp_path, capsys):
        # every simplex is inserted before anything is printed: no
        # value echoes and no insert events
        path = write(tmp_path, "c.flt", "0 ; 0.5\n0 1 ; 1.5\n1 ; 0.25\n")
        for flags in ([], ["--emit-events"]):
            code, out, err = invoke(["stream", *flags, path], capsys)
            assert code == 2
            assert out == ""
            assert err == "error: line 2: simplex (0, 1) is missing face (1,)\n"

    def test_first_face_listed_late(self, tmp_path, capsys):
        # only the lexicographically first face of the triangle comes
        # after it, so a check of the last face id alone lets it pass
        text = "0 ; 0\n1 ; 0\n2 ; 0\n1 2 ; 0\n0 2 ; 0\n0 1 2 ; 1\n0 1 ; 0\n"
        path = write(tmp_path, "c.flt", text)
        for flags in ([], ["--emit-events"]):
            code, out, err = invoke(["stream", *flags, path], capsys)
            assert code == 2
            assert out == ""
            assert err == (
                "error: line 6: simplex (0, 1, 2) is missing face (0, 1)\n"
            )


class TestBarOutput:
    def check(self, bars, capsys):
        """Bars in reference key order, written as the reference lines,
        none dying before its birth."""
        assert list(bars) == sorted(bars, key=reference_bar_key)
        _print_bars(bars)
        assert capsys.readouterr().out == "".join(
            reference_bar_line(bar) + "\n" for bar in bars
        )
        assert all(bar.birth <= bar.death for bar in bars)

    def test_bars_match_reference(self, tmp_path, capsys):
        # every engine that builds bars, with int, float and Fraction
        # births on the batch path, and ``stream --emit-events`` with
        # each delta sorted and written by the references
        rng = random.Random(26)
        grades = [int, lambda b: b / 4, lambda b: Fraction(b, 4)]
        for field, spec in [(QQ, "Q"), (PrimeField(5), "Zp:5")]:
            for n in range(60):
                c = random_filtered_complex(rng, max_vertices=6)
                scaled = FilteredComplex(
                    (s.vertices, grades[n % 3](s.birth)) for s in c.simplices
                )
                self.check(persistent_homology(scaled, field), capsys)
                if n % 2:
                    dissolving = with_component_removals(rng, c)
                else:
                    dissolving = random_filtered_complex(
                        rng, max_vertices=6, with_removals=True
                    )
                bars = torsion_homology(relative_complex(dissolving, field))
                self.check(bars, capsys)
                self.check(bars.without_ephemeral(), capsys)
                self.check(barcode(random_presentation(field, rng)), capsys)

                order = FilteredComplex(random_insertion_order(rng, c))
                path = write(tmp_path, "c.flt", complex_text(order))
                argv = ["--field", spec, "stream", "--emit-events", path]
                code, out, _ = invoke(argv, capsys)
                state, want = StreamState(field), []
                for s in order.simplices:
                    state, delta = add_simplex(state, s.vertices, s.birth)
                    head = " ".join(map(str, s.vertices))
                    want.append(f"# insert {head} ; {s.birth}\n")
                    for sign, side in [("-", delta.removed), ("+", delta.added)]:
                        assert all(bar.birth <= bar.death for bar in side)
                        want += (
                            f"{sign} {reference_bar_line(bar)}\n"
                            for bar in sorted(side, key=reference_bar_key)
                        )
                bars = current_barcode(state)
                want += (reference_bar_line(bar) + "\n" for bar in bars)
                assert (code, out) == (0, "".join(want))
                self.check(bars, capsys)


class TestOpCommand:
    def test_kernel(self, tmp_path, capsys):
        path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        out_path = str(tmp_path / "k.pmod")
        code, _, _ = invoke(["op", "kernel", path, "-o", out_path], capsys)
        assert code == 0
        assert (tmp_path / "k.pmod").read_text() == (
            "gen k0 4\nrel 1t^0*k0\n"
        )

    def test_cokernel(self, tmp_path, capsys):
        path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        out_path = str(tmp_path / "c.pmod")
        code, _, _ = invoke(["op", "cokernel", path, "-o", out_path], capsys)
        assert code == 0
        code, out, _ = invoke(["presentation-barcode", out_path], capsys)
        assert out == "- 0 1\n"

    def test_image(self, tmp_path, capsys):
        path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        out_path = str(tmp_path / "i.pmod")
        code, _, _ = invoke(["op", "image", path, "-o", out_path], capsys)
        assert code == 0
        assert (tmp_path / "i.pmod").read_text() == (
            "gen x 1\nrel 1t^3*x\n"
        )

    def test_unwritable_output_is_a_file_error(self, tmp_path, capsys):
        # like an unreadable input: exit 1 and one error line
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        out_path = tmp_path / "missing" / "o.pmod"
        code, out, err = invoke(["op", "dual", path, "-o", str(out_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(out_path) in err
        assert err.count("\n") == 1

    def test_unary_and_binary_presentation_ops(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        for op, inputs in [
            ("tensor", [path, path]),
            ("tensor-k", [path, path]),
            ("hom", [path, path]),
            ("dsum", [path, path]),
            ("dual", [path]),
            ("wedge:2", [path]),
            ("sym:2", [path]),
        ]:
            out_path = str(tmp_path / f"{op.replace(':', '_')}.pmod")
            code, _, err = invoke(["op", op, *inputs, "-o", out_path], capsys)
            assert code == 0, f"{op}: {err}"
            parse_presentation((tmp_path / f"{op.replace(':', '_')}.pmod").read_text())

    def test_hom_rejects_colliding_pair_labels(self, tmp_path, capsys):
        # (x*, y*.z) and (x*.y*, z) both print as (x*.y*.z); the diagonal
        # constructions keep the generator basis's label check
        p_path = write(tmp_path, "p.pmod", "gen x*.y 0\ngen x 0\n")
        q_path = write(tmp_path, "q.pmod", "gen z 0\ngen y*.z 0\n")
        out_path = tmp_path / "h.pmod"
        code, out, err = invoke(
            ["op", "hom", p_path, q_path, "-o", str(out_path)], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: duplicate basis label '(x*.y*.z)'\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
    def test_diagonal_ops_match_eager_build(self, field, tmp_path, capsys):
        # the -o bytes equal the matrix writer's text of the same columns
        # built at once; hom's columns come from the dual's built matrix
        rng = random.Random(67)
        for n in range(6):
            p = random_presentation(field, rng, max_gens=5)
            q = random_presentation(field, rng, max_gens=4)
            gens = [(f"u{i}", rng.randint(0, 4)) for i in range(2)]
            torsion = Presentation.from_terms(
                field, gens, [[(1, rng.randint(1, 3), lab)] for lab, _ in gens]
            )
            texts = {
                "p": format_presentation(p),
                "q": format_presentation(q),
                "t": format_presentation(torsion),
            }
            paths = {
                name: write(tmp_path, f"{name}{n}.pmod", text)
                for name, text in texts.items()
            }
            p, q, torsion = (parse_presentation(texts[x], field) for x in "pqt")

            def eager(x):
                return eager_diagonal_presentation(
                    field, x.labels, x.degrees, x.anns
                )

            for op, inputs, want in [
                ("hom", "pq", tensor(eager(dual(p)), q)),
                ("wedge:2", "p", exterior_power(p, 2)),
                ("tensor-k", "pt", tensor_over_k(p, torsion)),
                ("sym:2", "p", symmetric_power(p, 2)),
                ("dual", "p", dual(p)),
            ]:
                out = tmp_path / "out.pmod"
                argv = ["--field", repr(field), "op", op]
                argv += [paths[name] for name in inputs] + ["-o", str(out)]
                assert invoke(argv, capsys) == (0, "", ""), op
                assert out.read_bytes() == format_presentation(
                    eager(want)
                ).encode("ascii"), f"{op}, input {n}"

    def test_pullback_requires_shared_target(self, tmp_path, capsys):
        f_path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        g_path = write(
            tmp_path,
            "g.pmap",
            "source\ngen s 0\ntarget\ngen q 1\nmaps\n",
        )
        out_path = str(tmp_path / "p.pmod")
        code, _, err = invoke(
            ["op", "pullback", f_path, g_path, "-o", out_path], capsys
        )
        assert code == 2
        assert "share a target" in err

    def test_pullback_and_pushout(self, tmp_path, capsys):
        f_path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        g_path = write(
            tmp_path,
            "g.pmap",
            "source\ngen y 2\nrel 1t^2*y\n"
            "target\ngen u 0\nrel 1t^4*u\n"
            "maps\nmap y -> 1t^2*u\n",
        )
        out_path = str(tmp_path / "pb.pmod")
        code, _, _ = invoke(
            ["op", "pullback", f_path, g_path, "-o", out_path], capsys
        )
        assert code == 0
        parse_presentation((tmp_path / "pb.pmod").read_text())

        s_path = write(
            tmp_path,
            "s.pmap",
            "source\ngen s 0\ntarget\ngen p 0\nmaps\nmap s -> 1t^0*p\n",
        )
        t_path = write(
            tmp_path,
            "t.pmap",
            "source\ngen s 0\ntarget\ngen q 1\nmaps\n",
        )
        out_path = str(tmp_path / "po.pmod")
        code, _, _ = invoke(
            ["op", "pushout", s_path, t_path, "-o", out_path], capsys
        )
        assert code == 0
        assert (tmp_path / "po.pmod").read_text() == (
            "gen p 0\ngen q 1\nrel 1t^0*p\n"
        )

    def test_pushout_requires_shared_source(self, tmp_path, capsys):
        f_path = write(tmp_path, "f.pmap", SHIFT_MORPHISM)
        g_path = write(
            tmp_path,
            "g.pmap",
            "source\ngen other 3\ntarget\ngen q 1\nmaps\n",
        )
        code, _, err = invoke(
            ["op", "pushout", f_path, g_path, "-o", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "share a source" in err

    def test_unknown_operation(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        code, _, err = invoke(
            ["op", "suspend", path, "-o", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "unknown operation" in err

    def test_wrong_input_count(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        code, _, err = invoke(
            ["op", "tensor", path, "-o", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "expects 2" in err

    def test_bad_power(self, tmp_path, capsys):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        code, _, err = invoke(
            ["op", "wedge:two", path, "-o", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "bad power" in err


# Generator names the grammar can name: no blank, '#' or '+', and no
# '->' (the alphabet has no '>').
NAMES = st.text(alphabet="abtxyz019*^.()'@-", min_size=1, max_size=4)
COEFFICIENT_FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(5)])


def scalars(field):
    if field == QQ:
        return st.fractions(-5, 5, max_denominator=4)
    return st.integers(0, field.char - 1)


@st.composite
def presentations(draw, field, max_gens=4):
    """Presentations with nameable labels, zero relation columns included."""
    labels = draw(st.lists(NAMES, min_size=1, max_size=max_gens, unique=True))
    gens = GradedBasis((lab, draw(st.integers(-3, 5))) for lab in labels)
    rel_degrees = draw(
        st.lists(st.integers(min(gens.degrees), 8), max_size=max_gens)
    )
    cols = [
        {
            i: draw(scalars(field))
            for i in range(len(gens))
            if gens.degrees[i] <= d and draw(st.booleans())
        }
        for d in rel_degrees
    ]
    rels = GradedBasis((f"r{j}", d) for j, d in enumerate(rel_degrees))
    return Presentation(field, GradedMatrix(field, rels, gens, cols))


def assert_round_trip(p):
    """Generators and nonzero relation columns survive format and parse."""
    q = parse_presentation(format_presentation(p), p.field)
    kept = [j for j, col in enumerate(p.incl.cols) if col]
    assert q.gens == p.gens
    assert q.rels.degrees == tuple(p.rels.degrees[j] for j in kept)
    assert q.incl.cols == tuple(p.incl.cols[j] for j in kept)


class TestRoundTrips:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(c=complexes())
    def test_complex(self, c):
        assert _load_complex(complex_text(c))[0] == c

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data(), field=COEFFICIENT_FIELDS)
    def test_presentation(self, data, field):
        assert_round_trip(data.draw(presentations(field)))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        data=st.data(),
        field=COEFFICIENT_FIELDS,
        op=st.sampled_from(["dsum", "tensor", "dual", "wedge:2"]),
    )
    def test_construction_output(self, data, field, op):
        p = data.draw(presentations(field))
        q = data.draw(presentations(field, max_gens=3))
        result = {
            "dsum": lambda: direct_sum(p, q),
            "tensor": lambda: tensor(p, q),
            "dual": lambda: dual(p),
            "wedge:2": lambda: exterior_power(p, 2),
        }[op]()
        assert_round_trip(result)


class TestFormatterOracle:
    @staticmethod
    def _snf_dump_oracle(q):
        """``snf --dump`` of q, written through ``element_terms``."""
        form = snf_form(q)
        lines = ["# to_new", *element_map_lines(form.to_new)]
        lines += ["# from_new", *element_map_lines(form.from_new)]
        return element_presentation_text(form.presentation) + "".join(
            line + "\n" for line in lines
        )

    def test_text_matches_element_terms(self, tmp_path, capsys):
        # presentations, their duals (negative degrees) and snf --dump
        # change maps, written term by term through ``terms``
        multi_term = negative = 0
        for field in (QQ, PrimeField(5)):
            rng = random.Random(53)
            for n in range(40):
                p = random_presentation(field, rng)
                for q in (p, dual(p)):
                    text = format_presentation(q)
                    assert text == element_presentation_text(q)
                    multi_term += " + " in text
                    negative += any(d < 0 for d in q.gens.degrees)
                path = write(tmp_path, f"p{n}.pmod", format_presentation(p))
                args = ["--field", repr(field), "snf", path, "--dump"]
                code, out, _ = invoke(args, capsys)
                parsed = parse_presentation(format_presentation(p), field)
                assert (code, out) == (0, self._snf_dump_oracle(parsed))
        assert multi_term > 0 and negative > 0

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
    def test_construction_outputs(self, field, tmp_path, capsys):
        # the diagonal constructions' outputs and seeded presentations
        # (zero and multi-term relation columns), written and dumped
        rng = random.Random(61)
        seen = {"zero rel": 0, "multi-term rel": 0, "zero map": 0}
        for n in range(10):
            p = random_presentation(field, rng, max_gens=5)
            q = random_presentation(field, rng, max_gens=4)
            gens = [
                (f"u{i}", rng.randint(0, 4)) for i in range(rng.randint(1, 3))
            ]
            torsion = Presentation.from_terms(
                field, gens, [[(1, rng.randint(1, 3), lab)] for lab, _ in gens]
            )
            diagonal = [
                tensor(p, q), hom(p, q), dual(p),
                tensor_over_k(p, torsion), symmetric_power(p, 2),
                *(exterior_power(p, m) for m in (1, 2, 3)),
            ]
            for k, out in enumerate([p, q, *diagonal]):
                text = format_presentation(out)
                if k >= 2:
                    # written from the columns, before any matrix exists;
                    # the matrix writer gives the same text
                    assert not incl_built(out)
                    eager = eager_diagonal_presentation(
                        field, out.labels, out.degrees, out.anns
                    )
                    assert text == format_presentation(eager)
                assert text == element_presentation_text(out)
                cols = out.incl.cols
                seen["zero rel"] += not all(cols)
                seen["multi-term rel"] += any(len(c) > 1 for c in cols)
                path = write(tmp_path, f"o{n}_{k}.pmod", text)
                code, dumped, _ = invoke(
                    ["--field", repr(field), "snf", path, "--dump"], capsys
                )
                assert (code, dumped) == (
                    0, self._snf_dump_oracle(parse_presentation(text, field))
                )
                seen["zero map"] += " -> 0\n" in dumped
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize(
        "degree, ann", [(10**4300, 1), (0, 10**4300)], ids=["degree", "exponent"]
    )
    def test_value_past_digit_limit_on_the_column_path(self, degree, ann):
        d = _diagonal_presentation(QQ, ["x"], [degree], [ann])
        with pytest.raises(ValueError) as err:
            format_presentation(d)
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == (
            f"a computed value has more than {limit} digits and cannot be written"
        )
        assert not incl_built(d)

    def test_unreadable_label_on_the_triple_path(self):
        d = dual(Presentation.free(QQ, [("a b", 0)]))
        with pytest.raises(ValueError) as err:
            format_presentation(d)
        assert str(err.value) == (
            "generator label 'a b*' cannot be written: labels must be "
            "printable ASCII without blanks, '#', '+' or '->'"
        )
        assert not incl_built(d)


def _lines_of(*texts):
    return sorted({line for text in texts for line in text.splitlines()})


_TOKENS = [
    "0", "1", "2", "-1", "3.5", "1e999", "nan", "inf", ";", "#", "gen",
    "rel", "x", "y", "u", "1t^2*x", "t^-1*y", "1/0t^1*x", "+", "->",
    "map", "source", "target", "maps",
]


def _text(valid_lines):
    """Files of valid lines, token salad and arbitrary text, mixed."""
    line = st.one_of(
        st.sampled_from(valid_lines),
        st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join),
        st.text(max_size=12),
    )
    return st.lists(line, max_size=10).map("\n".join)


COMPLEX_TEXT = _text(
    _lines_of(FIG_COMPLEX, DISSOLVING_COMPLEX, STREAM_COMPLEX)
)
MODULE_TEXT = _text(
    _lines_of(TORSION_MODULE, FIVE_GEN_MODULE, SHIFT_MORPHISM)
)
# Any Zp: spec: most are rejected (exit 2) and the rest run over a
# prime field; every modulus drawn is cheap to test for primality.
FIELDS = st.one_of(
    st.sampled_from(["Q", "Zp:2", "Zp:5", f"Zp:{10**18 + 3}"]),
    st.integers(min_value=-3, max_value=10**30).map(lambda p: f"Zp:{p}"),
    st.text(max_size=8).map(lambda s: f"Zp:{s}"),
)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def assert_contract(directory, field, command, text):
    """Exit 0, 1 or 2 and one error line exactly on failure.

    In process, a traceback would be an exception escaping ``main``,
    which fails the calling test by itself.
    """
    path = directory / "input.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = ["--field", field, *command, str(path)]
    if command[0] == "op":
        argv += ["-o", str(directory / "out.txt")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert sum(ln.startswith("error:") for ln in lines) == (code != 0), lines
    return code, lines


class TestPresentationLabels:
    def test_unreadable_labels_rejected(self):
        p = Presentation.from_terms(
            QQ, [("a b", 0), ("c#d", 1)], [[(1, 2, "a b")]]
        )
        with pytest.raises(ValueError, match="'a b'"):
            format_presentation(p)
        for label in ("", "c#d", "x+y", "x->y", "tab\tin", "caf\u00e9", "nul\x00"):
            with pytest.raises(ValueError, match="cannot be written"):
                format_presentation(Presentation.free(QQ, [(label, 0)]))
        # labels are checked together; no '->' forms across two of them
        assert_round_trip(Presentation.free(QQ, [("a-", 0), (">b", 1)]))

    def test_construction_labels_round_trip(self):
        p = Presentation.from_terms(QQ, [("a", 0)], [[(1, 2, "a")]])
        q = Presentation.from_terms(QQ, [("b", 1)], [[(1, 3, "b")]])
        shift = PresentationMorphism(
            p, q, GradedMatrix.zero(QQ, p.gens, q.gens)
        )
        results = [
            image(shift), kernel(shift)[0], cokernel(shift), tensor(p, q),
            tensor_over_k(p, q), dual(p),
        ]
        labels = {label for r in results for label in r.gens.labels}
        assert {"a", "k0", "(a.b)", "(b@2.a)", "a*"} <= labels
        for r in results:
            assert_round_trip(r)

    def test_op_output_with_unreadable_label(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "m.pmod", TORSION_MODULE)
        out_path = tmp_path / "out.pmod"
        bad = Presentation.free(QQ, [("a b", 0)])
        monkeypatch.setattr(persmod.cli, "dual", lambda p: bad)
        code, out, err = invoke(["op", "dual", path, "-o", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: generator label 'a b'")
        assert err.count("\n") == 1
        assert not out_path.exists()


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


class TestNonAsciiInput:
    """A byte outside ASCII is a parse error at its line, not a crash."""

    def assert_parse_error(self, argv, capsys, lineno):
        code, out, err = invoke(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: line {lineno}: non-ASCII byte 0xc3\n"

    def test_complex(self, tmp_path, capsys):
        path = write_bytes(tmp_path, "c.flt", b"0 ; 0\n\xc3\xa9 ; 1\n")
        self.assert_parse_error(["barcode", path], capsys, 2)

    def test_presentation(self, tmp_path, capsys):
        data = TORSION_MODULE.encode("ascii") + b"gen \xc3\xa9 3\n"
        path = write_bytes(tmp_path, "m.pmod", data)
        self.assert_parse_error(["presentation-barcode", path], capsys, 5)

    def test_morphism(self, tmp_path, capsys):
        data = SHIFT_MORPHISM.encode("ascii")
        data = data.replace(b"> 1t^1*u", b"> 1t^1*\xc3\xa9")
        path = write_bytes(tmp_path, "f.pmap", data)
        out_path = tmp_path / "k.pmod"
        argv = ["op", "kernel", path, "-o", str(out_path)]
        self.assert_parse_error(argv, capsys, 8)
        assert not out_path.exists()


class TestFieldSpec:
    def test_huge_modulus_is_one_error_line(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        spec = "Zp:1" + "0" * 400
        code, out, err = invoke(["--field", spec, "barcode", path], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_large_prime_accepted_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        started = time.monotonic()
        code, out, _ = invoke(
            ["--field", f"Zp:{10**18 + 3}", "barcode", path], capsys
        )
        assert time.monotonic() - started < 1.0
        assert code == 0
        assert out == invoke(["barcode", path], capsys)[1]

    def test_large_composite_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", FIG_COMPLEX)
        code, _, err = invoke(
            ["--field", f"Zp:{10**18 + 1}", "barcode", path], capsys
        )
        assert code == 2
        assert err == f"error: {10**18 + 1} is not prime\n"


class TestCliContract:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        field=FIELDS,
        command=st.sampled_from(
            [["barcode"], ["relative", "--keep-ephemeral"],
             ["stream", "--emit-events"]]
        ),
        text=COMPLEX_TEXT,
    )
    def test_complex_text(self, contract_dir, field, command, text):
        assert_contract(contract_dir, field, command, text)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        field=FIELDS,
        command=st.sampled_from(
            [["presentation-barcode"], ["snf", "--dump"], ["op", "wedge:2"],
             ["op", "kernel"], ["op", "image"]]
        ),
        text=MODULE_TEXT,
    )
    def test_presentation_text(self, contract_dir, field, command, text):
        assert_contract(contract_dir, field, command, text)

    HUGE = "9" * 27

    @pytest.mark.parametrize(
        "operation, text",
        [
            (f"wedge:{HUGE}", "gen x 0\nrel 1t^2*x\n"),
            (f"wedge:{sys.maxsize}", "gen x 0\nrel 1t^2*x\n"),
            (f"wedge:{HUGE}", ""),
            (f"sym:{HUGE}", ""),
            (f"sym:{HUGE}", "gen x 0\nrel 1t^0*x\n"),
        ],
    )
    def test_power_with_no_choice_is_zero(self, tmp_path, operation, text):
        # decided before itertools allocates one slot per factor
        assert assert_contract(tmp_path, "Q", ["op", operation], text) == (0, [])
        assert (tmp_path / "out.txt").read_text() == ""

    @pytest.mark.parametrize(
        "operation, text, size",
        [
            ("sym:1000000000000", "gen x 0\nrel 1t^2*x\n", "2000000000001"),
            (
                f"sym:{sys.maxsize}",
                "gen a 0\ngen b 0\ngen c 1\nrel 1t^2*a\nrel 1t^3*b\n",
                "about 10^56",
            ),
            (
                "wedge:30",
                "".join(f"gen g{i:02d} 0\n" for i in range(60)),
                "about 10^19",
            ),
            (f"sym:{HUGE}", "gen x 0\nrel 1t^2*x\n", "about 10^27"),
        ],
        ids=[
            "sym-one-generator", "sym-maxsize", "wedge-60-choose-30",
            "sym-past-maxsize",
        ],
    )
    def test_power_past_label_limit(self, tmp_path, operation, text, size):
        # refused from its size alone, before itertools allocates a slot
        kind = "symmetric" if operation.startswith("sym") else "exterior"
        got = assert_contract(tmp_path, "Q", ["op", operation], text)
        assert got == (2, [
            f"error: {kind} power needs {size} label characters, "
            "past the limit of 10000000"
        ])
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize(
        "operation, limit, first, text, message",
        [
            ("tensor", 10, "gen ab 0\ngen cd 1\n", "gen x 0\n",
             "tensor product needs 12 label characters, past the limit of 10"),
            ("hom", 10, "gen ab 0\ngen cd 1\n", "gen x 0\n",
             "tensor product needs 14 label characters, past the limit of 10"),
            ("tensor-k", 10, "gen ab 0\ngen cd 1\n", "gen x 0\nrel 1t^3*x\n",
             "tensor product over k needs 48 label characters, "
             "past the limit of 10"),
            # the default limit, set here so that a build without the
            # check fails before it allocates 10^9 summands
            ("tensor-k", 10**7, "gen x 0\n", "gen z 0\nrel 1t^1000000000*z\n",
             "tensor product over k needs 15000000000 label characters, "
             "past the limit of 10000000"),
        ],
        ids=["tensor", "hom", "tensor-k", "tensor-k-long-bar"],
    )
    def test_diagonal_past_label_limit(
        self, tmp_path, monkeypatch, operation, limit, first, text, message
    ):
        monkeypatch.setattr(persmod.constructions, "LABEL_LIMIT", limit)
        (tmp_path / "first.pmod").write_text(first)
        command = ["op", operation, str(tmp_path / "first.pmod")]
        assert assert_contract(tmp_path, "Q", command, text) == (2, [f"error: {message}"])
        assert not (tmp_path / "out.txt").exists()
