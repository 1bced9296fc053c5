"""End-to-end acceptance checks on the worked examples and random oracles.

Each test covers one stated criterion, prints a single PASS or FAIL
line, and then asserts.  Expected values are frozen from the worked
examples; randomized suites re-derive every answer with independent
oracles.
"""

import random
import time

from helpers import (
    BOTH_FIELDS,
    alive_at,
    assert_snf_certificate,
    columns,
    degree_bound,
    dimension_at,
    free_rows,
    induced_slice_rank,
    random_filtered_complex,
    random_graded_matrix,
    random_insertion_order,
    random_presentation,
    random_valid_morphism,
    rank_t_power,
    slice_rank,
    terms,
    times_t,
)
from persmod import (
    INF,
    FilteredComplex,
    Presentation,
    QQ,
    StreamState,
    add_simplex,
    barcode,
    current_barcode,
    persistent_homology,
    relative_complex,
    snf_form,
    torsion_homology,
)
from persmod.cli import main
from persmod.constructions import cokernel, exterior_power, hom, image, kernel
from persmod.linalg import (
    GradedBasis,
    GradedMatrix,
    graded_snf,
    membership,
)
from persmod.presentation import PresentationMorphism

DISSOLVING_TRIANGLE = FilteredComplex([
    ((0,), 0, 13), ((1,), 1, 12), ((2,), 2, 11),
    ((0, 1), 3, 10), ((0, 2), 4, 9), ((1, 2), 5, 8),
    ((0, 1, 2), 6, 7),
])

FIVE_GENERATOR_MODULE = Presentation.from_terms(
    QQ,
    [("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)],
    [
        [(1, 1, "x"), (1, 1, "y"), (1, 0, "z")],
        [(1, 2, "x"), (1, 2, "y"), (1, 0, "u")],
        [(1, 3, "y"), (1, 2, "z"), (1, 1, "v")],
        [(1, 3, "y"), (1, 2, "z"), (1, 1, "u")],
    ],
)

OUT_OF_ORDER_TRACE = [
    ((1,), 1), ((2,), 4), ((1, 2), 6), ((3,), 2),
    ((1, 3), 3), ((2, 3), 5), ((1, 2, 3), 7),
]


def report(number: int, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail}")
    return ok


def bar_set(bars) -> set:
    return {(b.dim, b.birth, b.death) for b in bars}


def test_criterion_1_two_triangle_barcode(tmp_path, capsys):
    started = time.monotonic()
    path = tmp_path / "two_triangles.flt"
    path.write_text(
        "0 ; 1\n1 ; 1\n2 ; 2\n3 ; 2\n"
        "0 1 ; 2\n1 2 ; 2\n0 3 ; 3\n2 3 ; 3\n0 2 ; 4\n"
        "0 1 2 ; 5\n0 2 3 ; 6\n"
    )
    code = main(["barcode", str(path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    want = "0 1 2\n0 1 inf\n0 2 2\n0 2 3\n1 3 6\n1 4 5\n"
    ok = code == 0 and out == want and elapsed < 1.0
    assert report(
        1, ok, f"barcode command output in {elapsed:.3f}s"
    ), f"exit {code}, output {out!r}"


def test_criterion_2_five_generator_normal_form():
    m = FIVE_GENERATOR_MODULE.incl
    res = graded_snf(m)
    labels = FIVE_GENERATOR_MODULE.gens.labels
    exponents = sorted(
        m.source.degrees[c] - m.target.degrees[p] for p, c in res.lows.items()
    )
    new_gens = columns(res.row_change_inv)
    y_new = [(labels[i], c, e) for i, c, e in terms(new_gens[1])]
    v_new = [(labels[i], c, e) for i, c, e in terms(new_gens[4])]
    shape_ok = exponents == [0, 0, 1, 3] and len(free_rows(m, res)) == 1
    y_ok = y_new == [("x", 2, 0), ("y", 1, 0)]
    # deg v = 3 and deg x = 1, so the x-term of v' carries t^2: by hand,
    # r3 - t^2*r1 = t*(v - t^2*x) and r4 - t^2*r1 - t*r2 = -t^3*(y + 2x)
    v_ok = v_new == [("x", -1, 2), ("v", 1, 0)]
    # the basis change itself: t*v' and t^3*y' are relations, while v'
    # and t^2*y' are not
    relations = FIVE_GENERATOR_MODULE.incl
    torsion_ok = (
        membership(times_t(new_gens[4], 1), relations)
        and membership(times_t(new_gens[1], 3), relations)
        and not membership(new_gens[4], relations)
        and not membership(times_t(new_gens[1], 2), relations)
    )
    ok = shape_ok and y_ok and v_ok and torsion_ok
    assert report(
        2,
        ok,
        f"pivot exponents {exponents}, one free row: {shape_ok}; "
        f"y'=y+2x: {y_ok}; v'=v-t^2*x: {v_ok} (recovered {v_new}); "
        f"t*v', t^3*y' relations and v', t^2*y' not: {torsion_ok}",
    ), "the recovered basis change differs from the derived one"


def dense_h0_dimension(filtration, field, grade):
    """dim H0 at ``grade`` of a complex with removals, by dense slice ranks.

    H0 is the cokernel of the edge boundary into the vertex chains
    C0 = <vertices | t^(removal - birth) * vertex>, so its dimension is
    dim (C0)_g minus the rank of the induced slice map.  Only the
    Gaussian elimination in helpers is used, no graded reduction.
    """
    vertices = [s for s in filtration.simplices if len(s.vertices) == 1]
    edges = [s for s in filtration.simplices if len(s.vertices) == 2]
    chains0 = Presentation.from_terms(
        field,
        [(str(s.vertices[0]), s.birth) for s in vertices],
        [
            [(1, s.removal - s.birth, str(s.vertices[0]))]
            for s in vertices
            if s.removal != INF
        ],
    )
    row = {s.vertices[0]: i for i, s in enumerate(vertices)}
    entries = {}
    for j, s in enumerate(edges):
        a, b = s.vertices
        entries[(row[b], j)] = field.one
        entries[(row[a], j)] = field.neg(field.one)
    edge_basis = GradedBasis((f"e{j}", s.birth) for j, s in enumerate(edges))
    boundary = GradedMatrix.from_entries(
        field, edge_basis, chains0.gens, entries
    )
    born = sum(1 for d in chains0.gens.degrees if d <= grade)
    dim_chains = born - slice_rank(chains0.incl, grade)
    return dim_chains - induced_slice_rank(boundary, chains0, grade)


def test_criterion_3_dissolving_triangle_table():
    started = time.monotonic()
    complex_ = relative_complex(DISSOLVING_TRIANGLE)
    boundary_map = PresentationMorphism(
        complex_.chains, complex_.chains, complex_.boundary
    )
    cycle_module, _ = kernel(boundary_map)
    degrees = sorted(cycle_module.gens.degrees)
    table = bar_set(torsion_homology(complex_).without_ephemeral())
    elapsed = time.monotonic() - started
    degrees_ok = degrees == [0, 1, 2, 5, 10, 12, 13]
    # H0 = <v0, v1, v2 | t^13 v0, t^11 v1, t^9 v2> / im(boundary): the
    # edge 0.2 gives t^2 v2 = t^4 v0, so t^11 v0 = t^9 v2 = 0 at grade 11
    want = {(0, 0, 11), (0, 1, 3), (0, 2, 4), (1, 5, 6)}
    table_ok = table == want
    oracle_ok = True
    for field in BOTH_FIELDS:
        bars = torsion_homology(relative_complex(DISSOLVING_TRIANGLE, field))
        for g in range(15):
            alive = sum(1 for b in bars if b.dim == 0 and alive_at(b, g))
            oracle_ok &= alive == dense_h0_dimension(
                DISSOLVING_TRIANGLE, field, g
            )
    ok = degrees_ok and table_ok and oracle_ok and elapsed < 1.0
    assert report(
        3,
        ok,
        f"kernel degrees {degrees}: {degrees_ok}; "
        f"table {sorted(table)} vs stated {sorted(want)}: {table_ok}; "
        f"H0 matches the dense slice oracle at grades 0-14 over Q and "
        f"Z/p: {oracle_ok}; {elapsed:.3f}s",
    ), "the computed table differs from the stated one"


def test_criterion_4_hom_module_relations():
    left = Presentation.from_terms(
        QQ, [("x", 1), ("y", 2)], [[(1, 3, "x")], [(1, 4, "y")]]
    )
    right = Presentation.from_terms(
        QQ,
        [("u", 1), ("v", 1), ("w", 2)],
        [[(1, 2, "u")], [(1, 1, "v")], [(1, 4, "w")]],
    )
    maps = hom(left, right)
    form = snf_form(maps)
    pairs = [(lab, a) for lab, _, a in form.presentation.triples]
    want = [
        ("(x*.u)", 2), ("(x*.v)", 1), ("(x*.w)", 3),
        ("(y*.u)", 2), ("(y*.v)", 1), ("(y*.w)", 4),
    ]
    ok = pairs == want
    assert report(4, ok, f"minimal relation exponents {pairs}"), pairs


def test_criterion_5_exterior_power_discrimination():
    crossing = Presentation.from_terms(
        QQ,
        [("x", 1), ("y", 2)],
        [[(1, 4, "x"), (1, 3, "y")], [(1, 9, "x"), (1, 8, "y")]],
    )
    diagonal = Presentation.from_terms(
        QQ, [("x", 1), ("y", 2)], [[(1, 4, "x")], [(1, 8, "y")]]
    )
    results = []
    for p in (crossing, diagonal):
        form = snf_form(exterior_power(p, 2))
        lab, _, a = form.presentation.triples[0]
        results.append((lab, a))
    ok = results == [("(x^y)", 3), ("(x^y)", 4)]
    assert report(
        5, ok, f"wedge relations t^{results[0][1]} and t^{results[1][1]}"
    ), results


def test_criterion_6_out_of_order_stream():
    state = StreamState(QQ)
    pairing_before = pairing_after = None

    def killer_of_vertex_2():
        killer = state.pairing.get(state.index[(2,)])
        return None if killer is None else state.simplices[killer]

    for vertices, value in OUT_OF_ORDER_TRACE:
        if vertices == (2, 3):
            pairing_before = killer_of_vertex_2()
        state, _ = add_simplex(state, vertices, value)
        if vertices == (2, 3):
            pairing_after = killer_of_vertex_2()
    repaired = pairing_before == (1, 2) and pairing_after == (2, 3)
    batch = persistent_homology(
        FilteredComplex([(v, f) for v, f in OUT_OF_ORDER_TRACE])
    )
    matches = current_barcode(state) == batch
    ok = repaired and pairing_after is not None and matches
    assert report(
        6,
        ok,
        f"pair of vertex 2 moved {pairing_before} -> {pairing_after}, "
        f"final barcode matches batch: {matches}",
    )


def test_criterion_7_randomized_oracles():
    started = time.monotonic()

    checked = 0
    for field in BOTH_FIELDS:
        rng = random.Random(11)
        for _ in range(500):
            p = random_presentation(field, rng)
            bars = barcode(p)
            hi = degree_bound(p) + 2
            for d in range(-1, hi):
                alive = sum(1 for b in bars if alive_at(b, d))
                assert dimension_at(p, d) == alive, (p, d)
            for d in range(-1, hi, 2):
                for jump in (1, 3):
                    surviving = sum(
                        1
                        for b in bars
                        if alive_at(b, d) and alive_at(b, d + jump)
                    )
                    assert rank_t_power(p, d, jump) == surviving, (p, d, jump)
            checked += 1
    assert checked == 1000

    ledgers = 0
    for field in BOTH_FIELDS:
        rng = random.Random(12)
        for _ in range(250):
            f = random_valid_morphism(field, rng)
            cycle_part, _ = kernel(f)
            mid = image(f)
            quotient = cokernel(f)
            hi = max(degree_bound(f.src), degree_bound(f.dst)) + 2
            for d in range(hi):
                src_dim = dimension_at(f.src, d)
                dst_dim = dimension_at(f.dst, d)
                mid_dim = dimension_at(mid, d)
                assert dimension_at(cycle_part, d) + mid_dim == src_dim
                assert mid_dim + dimension_at(quotient, d) == dst_dim
            ledgers += 1
    assert ledgers == 500

    replays = 0
    for field in BOTH_FIELDS:
        rng = random.Random(13)
        for _ in range(100):
            c = random_filtered_complex(rng)
            state = StreamState(field)
            for s in random_insertion_order(rng, c):
                state, _ = add_simplex(state, s.vertices, s.birth)
            assert current_barcode(state) == persistent_homology(c, field)
            replays += 1
    assert replays == 200

    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    assert report(
        7,
        ok,
        f"{checked} presentations, {ledgers} morphism ledgers, "
        f"{replays} stream replays in {elapsed:.1f}s",
    )


def test_criterion_8_normal_form_validity():
    checked = 0
    for field in BOTH_FIELDS:
        rng = random.Random(21)
        for _ in range(250):
            m = random_graded_matrix(field, rng)
            assert_snf_certificate(m, graded_snf(m))
            checked += 1
    assert report(8, checked == 500, f"{checked} matrices diagonalized")
