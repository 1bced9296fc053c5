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
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import persmod

from helpers import (
    BOTH_FIELDS,
    random_filtered_complex,
    random_presentation,
)
from persmod import (
    FilteredComplex,
    Presentation,
    PrimeField,
    QQ,
    barcode,
    snf_form,
)
from persmod.cli import (
    CliError,
    format_complex,
    format_presentation,
    main,
    parse_complex,
    parse_morphism,
    parse_presentation,
)

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
        [(scalar, exp, p.gens.labels[i]) for i, scalar, exp in p.incl.column(j).terms()]
        for j, col in enumerate(p.incl.cols)
        if col
    ]
    return Presentation.from_terms(
        p.field, list(zip(p.gens.labels, p.gens.degrees)), relations
    )


class TestParseComplex:
    def test_births_removals_comments(self):
        c = parse_complex("# c\n\n0 ; 1\n1;2\n0 1 ; 3 ; 9\n")
        assert [s.vertices for s in c.simplices] == [(0,), (1,), (0, 1)]
        assert [s.birth for s in c.simplices] == [1, 2, 3]
        assert c.simplices[2].removal == 9

    def test_empty_text(self):
        assert len(parse_complex("")) == 0

    def test_bad_value_reports_line(self):
        with pytest.raises(CliError) as err:
            parse_complex("0 ; 1\n1 ; soon\n")
        assert err.value.code == 1
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(CliError) as err:
            parse_complex(f"0 ; 0\n1 ; 1\n0 1 ; {token}\n")
        assert err.value.code == 1
        assert "line 3" in str(err.value)
        assert repr(token) in str(err.value)

    def test_non_finite_removal_rejected(self):
        with pytest.raises(CliError) as err:
            parse_complex("0 ; 0.5 ; inf\n")
        assert err.value.code == 1
        assert "line 1" in str(err.value)

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "c.flt", "0 ; nan\n1 ; 1\n0 1 ; inf\n")
        code, out, err = invoke(["barcode", path], capsys)
        assert (code, out) == (1, "")
        assert err == "error: line 1: non-finite filtration value 'nan'\n"

    def test_missing_separator(self):
        with pytest.raises(CliError) as err:
            parse_complex("0 1\n")
        assert err.value.code == 1

    def test_bad_vertex(self):
        with pytest.raises(CliError) as err:
            parse_complex("a b ; 1\n")
        assert err.value.code == 1

    def test_invariant_violation_is_validation_error(self):
        with pytest.raises(CliError) as err:
            parse_complex("0 ; 0\n0 1 ; 1\n")
        assert err.value.code == 2
        assert "missing face" in str(err.value)

    def test_round_trip(self):
        rng = random.Random(2)
        for with_removals in (False, True):
            for _ in range(10):
                c = random_filtered_complex(rng, with_removals=with_removals)
                assert parse_complex(format_complex(c)) == c


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
        assert p.incl.entry(0, 0) == 3

    def test_unknown_generator_is_validation_error(self):
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 1\nrel 1t^0*ghost\n")
        assert err.value.code == 2
        assert "ghost" in str(err.value)

    def test_mixed_degrees_is_validation_error(self):
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 0\ngen y 5\nrel 1t^0*x + 1t^0*y\n")
        assert err.value.code == 2

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
        with pytest.raises(CliError) as err:
            parse_presentation("gen x 1\nrel 1/0t^1*x\n")
        assert err.value.code == 1
        assert "line 2" in str(err.value)
        path = write(tmp_path, "m.pmod", "gen x 1\nrel 1/0t^1*x\n")
        code, out, err = invoke(["presentation-barcode", path], capsys)
        assert (code, out) == (1, "")
        assert err == "error: line 2: bad coefficient in '1/0t^1*x'\n"

    def test_round_trip(self):
        for field in BOTH_FIELDS:
            rng = random.Random(7)
            for _ in range(15):
                p = drop_zero_relations(random_presentation(field, rng))
                assert parse_presentation(format_presentation(p), field) == p

    def test_round_trip_with_negative_degrees(self):
        text = "gen x* -1\ngen y* -2\nrel 1t^3*x*\n"
        p = parse_presentation(text)
        assert format_presentation(p) == text


class TestParseMorphism:
    def test_sections_and_map(self):
        f = parse_morphism(SHIFT_MORPHISM)
        assert list(f.src.gens.labels) == ["x"]
        assert list(f.dst.gens.labels) == ["u"]
        assert f.phi.monomial(0, 0).exponent == 1

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
        code, _, err = invoke(["barcode", path], capsys)
        assert code == 2
        assert "removal" in err

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
        code, out, _ = invoke(["relative", path], capsys)
        assert code == 0
        assert out == "0 0 11\n0 1 3\n0 2 4\n1 5 6\n"

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
        path = write(tmp_path, "c.flt", "0 ; 0\n0 1 ; 1\n1 ; 0\n")
        code, _, err = invoke(["stream", path], capsys)
        assert code == 2
        assert "missing face" in err


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
            "gen w0 1\nrel 1t^3*w0\n"
        )

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
FIELDS = st.sampled_from(["Q", "Zp:2", "Zp:5"])


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
