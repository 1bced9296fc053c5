"""Tests for module constructions: sums, kernels, images, tensors.

Worked examples use small torsion modules whose results were computed
by hand; property tests compare slice dimensions of constructed
modules against the dense rank oracles in helpers.
"""

import itertools
import random

import pytest

from helpers import (
    BOTH_FIELDS,
    alive_at,
    column,
    degree_bound,
    dimension_at,
    eager_diagonal_presentation,
    hand_built_presentations,
    hstack,
    identity_matrix,
    identity_morphism,
    incl_built,
    induced_slice_rank,
    negated,
    random_presentation,
    random_valid_cospan,
    random_valid_morphism,
    random_valid_span,
    rank_t_power,
    sub,
    terms,
    vstack,
    zero_morphism,
)
from persmod import (
    INF,
    Bar,
    Barcode,
    GradedMatrix,
    Presentation,
    PresentationMorphism,
    PrimeField,
    QQ,
    barcode,
    cokernel,
    direct_sum,
    dual,
    exterior_power,
    hom,
    image,
    kernel,
    membership,
    pullback,
    pushout,
    snf_form,
    symmetric_power,
    tensor,
    tensor_over_k,
    validate_morphism,
)
from persmod import constructions
from persmod.constructions import _diagonal


def interval(field, label, birth, length):
    """A one-generator module: free when length is INF, else a bar."""
    if length == INF:
        return Presentation.free(field, [(label, birth)])
    return Presentation.from_terms(
        field, [(label, birth)], [[(1, length, label)]]
    )


def annihilator_exponents(p):
    """Exponent of each single-entry relation column, in column order.

    Only meaningful for diagonal presentations, where every relation
    is a t-power times one generator.
    """
    exps = []
    for j in range(len(p.rels)):
        (row,) = p.incl.cols[j]
        exps.append(p.rels.degrees[j] - p.gens.degrees[row])
    return exps


@pytest.fixture
def m_mod():
    """M = <x(1), y(2) | t^3 x, t^4 y>."""
    return Presentation.from_terms(
        QQ, [("x", 1), ("y", 2)], [[(1, 3, "x")], [(1, 4, "y")]]
    )


@pytest.fixture
def n_mod():
    """N = <u(1), v(1), w(2) | t^2 u, t v, t^4 w>."""
    return Presentation.from_terms(
        QQ,
        [("u", 1), ("v", 1), ("w", 2)],
        [[(1, 2, "u")], [(1, 1, "v")], [(1, 4, "w")]],
    )


@pytest.fixture
def five_gen_module():
    return Presentation.from_terms(
        QQ,
        [("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)],
        [
            [(1, 1, "x"), (1, 1, "y"), (1, 0, "z")],
            [(1, 2, "x"), (1, 2, "y"), (1, 0, "u")],
            [(1, 3, "y"), (1, 2, "z"), (1, 1, "v")],
            [(1, 3, "y"), (1, 2, "z"), (1, 1, "u")],
        ],
    )


@pytest.fixture
def boundary_endomorphism():
    """The boundary operator of a full triangle with removal relations.

    Each simplex generator is killed at the step where the simplex is
    removed, so the boundary does not descend to the quotient and the
    interesting structure sits in its kernel.
    """
    field = QQ
    p = Presentation.from_terms(
        field,
        [("s0", 0), ("s1", 1), ("s2", 2), ("s01", 3), ("s02", 4),
         ("s12", 5), ("s012", 6)],
        [
            [(1, 1, "s012")],
            [(1, 3, "s12")],
            [(1, 5, "s02")],
            [(1, 7, "s01")],
            [(1, 9, "s2")],
            [(1, 11, "s1")],
            [(1, 13, "s0")],
        ],
    )
    one = field.one
    phi = GradedMatrix.from_entries(field, p.gens, p.gens, {
        (0, 3): one, (1, 3): field.neg(one),
        (0, 4): one, (2, 4): field.neg(one),
        (1, 5): one, (2, 5): field.neg(one),
        (3, 6): one, (4, 6): field.neg(one), (5, 6): one,
    })
    return PresentationMorphism(p, p, phi)


def sweep(*presentations):
    """Degree range covering every slice where any argument can live."""
    top = max(degree_bound(p) for p in presentations)
    low = min([0] + [min(p.gens.degrees, default=0) for p in presentations])
    return range(low - 1, top + 1)


class TestDirectSum:
    def test_mismatched_fields_rejected(self, m_mod):
        other = Presentation.free(BOTH_FIELDS[1], [("a", 0)])
        with pytest.raises(ValueError):
            direct_sum(m_mod, other)

    def test_sum_with_zero_module_is_unchanged(self, m_mod):
        s = direct_sum(m_mod, Presentation.free(QQ, []))
        assert s == m_mod, "adding an empty summand should change nothing"

    def test_repeated_summand_primes_labels(self, m_mod):
        s = direct_sum(m_mod, m_mod)
        assert list(s.gens) == [("x", 1), ("y", 2), ("x'", 1), ("y'", 2)]
        assert s.rels.labels == ("rel0", "rel1", "rel0'", "rel1'")

    def test_barcode_is_union(self, m_mod, n_mod):
        got = barcode(direct_sum(m_mod, n_mod))
        assert got == Barcode([*barcode(m_mod), *barcode(n_mod)])

    def test_dimensions_add(self):
        for field in BOTH_FIELDS:
            rng = random.Random(20)
            for _ in range(10):
                p = random_presentation(field, rng)
                q = random_presentation(field, rng)
                s = direct_sum(p, q)
                for d in sweep(p, q):
                    assert dimension_at(s, d) == (
                        dimension_at(p, d) + dimension_at(q, d)
                    ), f"slice {d} not additive over {field!r}"


class TestImage:
    def test_identity_preserves_barcode(self, five_gen_module):
        f = identity_morphism(five_gen_module)
        assert barcode(image(f)) == barcode(five_gen_module)

    def test_zero_morphism_has_zero_image(self, m_mod, n_mod):
        f = zero_morphism(m_mod, n_mod)
        im = image(f)
        assert all(dimension_at(im, d) == 0 for d in sweep(m_mod, n_mod))

    def test_free_inclusion_image_is_shifted_free(self):
        src = Presentation.free(QQ, [("a", 2)])
        dst = Presentation.free(QQ, [("b", 0)])
        f = PresentationMorphism(
            src, dst,
            GradedMatrix.from_entries(QQ, src.gens, dst.gens, {(0, 0): QQ.one}),
        )
        im = image(f)
        assert list(im.gens) == [("a", 2)]
        assert len(im.rels) == 0
        assert list(barcode(im)) == [Bar(None, 2, INF)]

    def test_slice_dimension_matches_rank_oracle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(31)
            for trial in range(15):
                f = random_valid_morphism(field, rng)
                im = image(f)
                for d in sweep(f.src, f.dst):
                    got = dimension_at(im, d)
                    want = induced_slice_rank(f.phi, f.dst, d)
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"image dim {got}, rank oracle {want}"
                    )

    def test_t_action_matches_rank_oracle(self):
        # with the slice dimensions, the rank of every t^j fixes the
        # image up to isomorphism
        for field in (QQ, PrimeField(2), PrimeField(5)):
            rng = random.Random(37)
            for trial in range(15):
                f = random_valid_morphism(field, rng)
                im = image(f)
                top = max(degree_bound(f.src), degree_bound(f.dst))
                for d in sweep(f.src, f.dst):
                    for j in range(top + 1):
                        got = rank_t_power(im, d, j)
                        want = induced_slice_rank(f.phi, f.dst, d, j)
                        assert got == want, (
                            f"trial {trial} t^{j} from degree {d} over "
                            f"{field!r}: image rank {got}, oracle {want}"
                        )


class TestCokernel:
    def test_identity_has_zero_cokernel(self, five_gen_module):
        c = cokernel(identity_morphism(five_gen_module))
        assert all(dimension_at(c, d) == 0 for d in sweep(five_gen_module))

    def test_cokernel_of_map_from_zero_is_target(self, n_mod):
        f = zero_morphism(Presentation.free(QQ, []), n_mod)
        assert cokernel(f) == n_mod

    def test_quotient_of_free_line_by_shifted_line(self):
        src = Presentation.free(QQ, [("a", 2)])
        dst = Presentation.free(QQ, [("b", 0)])
        f = PresentationMorphism(
            src, dst,
            GradedMatrix.from_entries(QQ, src.gens, dst.gens, {(0, 0): QQ.one}),
        )
        assert list(barcode(cokernel(f))) == [Bar(None, 0, 2)]

    def test_source_labels_primed_against_relations(self):
        # the images of the source generators follow the target's
        # relations, under the source labels primed until unique
        dst = Presentation.from_terms(QQ, [("b", 0)], [[(1, 3, "b")]])
        src = Presentation.free(QQ, [("rel0", 2), ("rel0'", 1)])
        phi = GradedMatrix(QQ, src.gens, dst.gens, [{0: QQ.one}, {0: QQ.one}])
        c = cokernel(PresentationMorphism(src, dst, phi))
        assert list(c.rels) == [("rel0", 3), ("rel0'", 2), ("rel0''", 1)]

    def test_slice_dimension_matches_rank_oracle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(32)
            for trial in range(15):
                f = random_valid_morphism(field, rng)
                c = cokernel(f)
                for d in sweep(f.src, f.dst):
                    got = dimension_at(c, d)
                    want = dimension_at(f.dst, d) - induced_slice_rank(
                        f.phi, f.dst, d
                    )
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"cokernel dim {got}, oracle {want}"
                    )


class TestKernel:
    def test_identity_has_zero_kernel(self, five_gen_module):
        k, incl = kernel(identity_morphism(five_gen_module))
        assert all(dimension_at(k, d) == 0 for d in sweep(five_gen_module))
        assert validate_morphism(incl)

    def test_kernel_of_zero_morphism_is_source(self, five_gen_module, n_mod):
        k, _ = kernel(zero_morphism(five_gen_module, n_mod))
        assert (
            barcode(k).without_ephemeral()
            == barcode(five_gen_module).without_ephemeral()
        )

    def test_boundary_kernel_generators(self, boundary_endomorphism):
        f = boundary_endomorphism
        k, incl = kernel(f)
        assert list(k.gens) == [
            ("k0", 0), ("k1", 1), ("k2", 2), ("k3", 5),
            ("k4", 10), ("k5", 12), ("k6", 13),
        ]
        src = f.src.gens
        cycles = {
            "k0": [("s0", 1, 0)],
            "k1": [("s1", 1, 0)],
            "k2": [("s2", 1, 0)],
            "k3": [("s01", 1, 2), ("s02", -1, 1), ("s12", 1, 0)],
            "k4": [("s012", 1, 4)],
            "k5": [("s01", -1, 9), ("s02", 1, 8)],
            "k6": [("s02", 1, 9)],
        }
        for j, label in enumerate(k.gens.labels):
            got = [
                (src.labels[i], c, e)
                for i, c, e in terms(incl.phi, j)
            ]
            want = [(lab, f.src.field.scalar(c), e) for lab, c, e in cycles[label]]
            assert got == want, f"inclusion column for {label}"

    def test_boundary_kernel_barcode(self, boundary_endomorphism):
        k, _ = kernel(boundary_endomorphism)
        assert list(barcode(k)) == [
            Bar(None, 0, 13), Bar(None, 1, 12), Bar(None, 2, 11),
            Bar(None, 5, 10), Bar(None, 10, 10), Bar(None, 12, 12),
            Bar(None, 13, 13),
        ]

    def test_composition_lands_in_target_relations(self):
        for field in BOTH_FIELDS:
            rng = random.Random(33)
            for trial in range(15):
                f = random_valid_morphism(field, rng)
                k, incl = kernel(f)
                assert validate_morphism(incl), f"trial {trial}"
                comp = f.phi @ incl.phi
                for j in range(comp.ncols):
                    assert membership(column(comp, j), f.dst.incl), (
                        f"trial {trial} column {j}: kernel element maps to "
                        f"a nonzero class over {field!r}"
                    )

    def test_rank_nullity_on_slices(self):
        for field in BOTH_FIELDS:
            rng = random.Random(34)
            for trial in range(15):
                f = random_valid_morphism(field, rng)
                k, _ = kernel(f)
                for d in sweep(f.src, f.dst):
                    got = dimension_at(k, d)
                    want = dimension_at(f.src, d) - induced_slice_rank(
                        f.phi, f.dst, d
                    )
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"kernel dim {got}, rank-nullity oracle {want}"
                    )


class TestPullback:
    def test_over_zero_module_is_direct_sum(self, five_gen_module, n_mod):
        zero = Presentation.free(QQ, [])
        pb, _, _ = pullback(
            zero_morphism(five_gen_module, zero),
            zero_morphism(n_mod, zero),
        )
        want = barcode(direct_sum(five_gen_module, n_mod))
        assert barcode(pb).without_ephemeral() == want.without_ephemeral()

    def test_identity_legs_give_diagonal(self, five_gen_module):
        ident = identity_morphism(five_gen_module)
        pb, proj_p, proj_q = pullback(ident, ident)
        assert (
            barcode(pb).without_ephemeral()
            == barcode(five_gen_module).without_ephemeral()
        )
        for j in range(proj_p.phi.ncols):
            gap = sub(column(proj_p.phi, j), column(proj_q.phi, j))
            assert membership(gap, five_gen_module.incl), (
                "diagonal projections should agree in the quotient"
            )

    def test_square_commutes_in_quotient(self):
        for field in BOTH_FIELDS:
            rng = random.Random(36)
            for trial in range(10):
                f, g = random_valid_cospan(field, rng)
                pb, proj_p, proj_q = pullback(f, g)
                assert validate_morphism(proj_p), f"trial {trial}"
                assert validate_morphism(proj_q), f"trial {trial}"
                left = f.phi @ proj_p.phi
                right = g.phi @ proj_q.phi
                for j in range(left.ncols):
                    gap = sub(column(left, j), column(right, j))
                    assert membership(gap, f.dst.incl), (
                        f"trial {trial} column {j} over {field!r}"
                    )

    def test_slice_dimension_matches_kernel_oracle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(37)
            for trial in range(10):
                f, g = random_valid_cospan(field, rng)
                pb, _, _ = pullback(f, g)
                diff = hstack([f.phi, negated(g.phi)])
                for d in sweep(f.src, g.src, f.dst):
                    got = dimension_at(pb, d)
                    want = (
                        dimension_at(f.src, d)
                        + dimension_at(g.src, d)
                        - induced_slice_rank(diff, f.dst, d)
                    )
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"pullback dim {got}, oracle {want}"
                    )


class TestPushout:
    def test_over_zero_module_is_direct_sum(self, five_gen_module, n_mod):
        zero = Presentation.free(QQ, [])
        po = pushout(
            zero_morphism(zero, five_gen_module),
            zero_morphism(zero, n_mod),
        )
        assert po == direct_sum(five_gen_module, n_mod)

    def test_identity_legs_collapse_to_source(self, five_gen_module):
        ident = identity_morphism(five_gen_module)
        po = pushout(ident, ident)
        for d in sweep(five_gen_module):
            assert dimension_at(po, d) == dimension_at(five_gen_module, d)

    def test_slice_dimension_matches_cokernel_oracle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(38)
            for trial in range(10):
                f, g = random_valid_span(field, rng)
                po = pushout(f, g)
                s = direct_sum(f.dst, g.dst)
                combined = vstack([f.phi, negated(g.phi)])
                for d in sweep(f.src, f.dst, g.dst):
                    got = dimension_at(po, d)
                    want = dimension_at(s, d) - induced_slice_rank(
                        combined, s, d
                    )
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"pushout dim {got}, oracle {want}"
                    )


class TestSnfForm:
    def test_maps_compose_to_identity_on_new(self, five_gen_module):
        sf = snf_form(five_gen_module)
        ident = identity_matrix(QQ, sf.presentation.gens)
        assert sf.to_new @ sf.from_new == ident

    def test_maps_are_valid_in_both_directions(self):
        for field in BOTH_FIELDS:
            rng = random.Random(39)
            for trial in range(15):
                p = random_presentation(field, rng)
                sf = snf_form(p)
                fwd = PresentationMorphism(p, sf.presentation, sf.to_new)
                bwd = PresentationMorphism(sf.presentation, p, sf.from_new)
                assert validate_morphism(fwd), f"trial {trial}"
                assert validate_morphism(bwd), f"trial {trial}"

    def test_barcode_and_annihilators_match(self):
        for field in BOTH_FIELDS:
            rng = random.Random(40)
            for trial in range(15):
                p = random_presentation(field, rng)
                sf = snf_form(p)
                want = barcode(p).without_ephemeral()
                assert barcode(sf.presentation) == want, f"trial {trial}"
                from_anns = sorted(
                    (d, d + a) for _, d, a in sf.presentation.triples
                )
                from_bars = sorted((b.birth, b.death) for b in want)
                assert from_anns == from_bars, f"trial {trial}"


    def test_pairing_diagonal_matches_snf(self):
        # the multiplicative family reads column_echelon's pairing;
        # snf_form reads graded_snf's; both must drop the same t^0 pairs
        instant = zero_cols = 0
        for field in (*BOTH_FIELDS, PrimeField(2)):
            rng = random.Random(67)
            cases = list(hand_built_presentations(field))
            cases += [random_presentation(field, rng) for _ in range(60)]
            for p in cases:
                sf = snf_form(p)
                gens = sf.presentation.gens
                assert _diagonal(p) == sf.presentation.triples
                assert exterior_power(p, 1) == sf.presentation
                assert symmetric_power(p, 1) == sf.presentation
                instant += len(p.gens) - len(gens)
                zero_cols += sum(1 for col in p.incl.cols if not col)
        assert instant > 0 and zero_cols > 0


class TestTensor:
    def test_worked_example(self, m_mod, n_mod):
        t = tensor(m_mod, n_mod)
        assert list(t.gens) == [
            ("(x.u)", 2), ("(x.v)", 2), ("(x.w)", 3),
            ("(y.u)", 3), ("(y.v)", 3), ("(y.w)", 4),
        ]
        assert annihilator_exponents(t) == [2, 1, 3, 2, 1, 4]

    def test_unit_preserves_barcode(self, five_gen_module):
        unit = Presentation.free(QQ, [("one", 0)])
        t = tensor(five_gen_module, unit)
        assert barcode(t) == barcode(five_gen_module).without_ephemeral()

    def test_interval_pair(self):
        t = tensor(interval(QQ, "x", 1, 4), interval(QQ, "u", 2, 8))
        assert list(barcode(t)) == [Bar(None, 3, 7)]

    def test_symmetric_up_to_barcode(self, m_mod, n_mod):
        assert barcode(tensor(m_mod, n_mod)) == barcode(tensor(n_mod, m_mod))

    def test_slice_dimension_counts_bar_pairs(self):
        for field in BOTH_FIELDS:
            rng = random.Random(41)
            for trial in range(10):
                p = random_presentation(field, rng, max_gens=5)
                q = random_presentation(field, rng, max_gens=5)
                t = tensor(p, q)
                p_bars = list(barcode(p).without_ephemeral())
                q_bars = list(barcode(q).without_ephemeral())
                for d in range(-1, degree_bound(p) + degree_bound(q)):
                    want = sum(
                        1
                        for b1 in p_bars
                        for b2 in q_bars
                        if alive_at(_min_rule_bar(b1, b2), d)
                    )
                    got = dimension_at(t, d)
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"tensor dim {got}, bar-pair count {want}"
                    )


def _min_rule_bar(*bars):
    birth = sum(b.birth for b in bars)
    length = min(b.death - b.birth for b in bars)
    return Bar(None, birth, birth + length)


class TestTensorOverK:
    def test_field_at_zero_acts_as_unit(self, five_gen_module):
        k0 = Presentation.from_terms(QQ, [("e", 0)], [[(1, 1, "e")]])
        t = tensor_over_k(five_gen_module, k0)
        assert barcode(t) == barcode(five_gen_module).without_ephemeral()

    def test_free_line_times_interval(self):
        t = tensor_over_k(
            Presentation.free(QQ, [("x", 1)]),
            interval(QQ, "u", 0, 2),
        )
        assert list(t.gens) == [("(u@0.x)", 1), ("(u@1.x)", 2)]
        assert list(barcode(t)) == [Bar(None, 1, INF), Bar(None, 2, INF)]

    def test_infinite_passive_factor_rejected(self, m_mod):
        free = Presentation.free(QQ, [("x", 1)])
        with pytest.raises(ValueError):
            tensor_over_k(m_mod, free)

    def test_slice_dimension_is_convolution(self):
        for field in BOTH_FIELDS:
            rng = random.Random(42)
            for trial in range(10):
                p = random_presentation(field, rng, max_gens=4)
                q = _random_finite_diagonal(field, rng)
                t = tensor_over_k(p, q)
                for d in range(-1, degree_bound(p) + degree_bound(q)):
                    want = sum(
                        dimension_at(q, e) * dimension_at(p, d - e)
                        for e in range(degree_bound(q) + 1)
                    )
                    got = dimension_at(t, d)
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"dim {got}, convolution {want}"
                    )


def _random_finite_diagonal(field, rng, max_gens=3):
    gens = []
    rels = []
    for i in range(rng.randint(1, max_gens)):
        label = f"q{i}"
        gens.append((label, rng.randint(0, 4)))
        rels.append([(1, rng.randint(1, 4), label)])
    return Presentation.from_terms(field, gens, rels)


class TestDual:
    def test_worked_example(self, m_mod):
        d = dual(m_mod)
        assert list(d.gens) == [("x*", -1), ("y*", -2)]
        assert list(d.rels) == [("rel0", 2), ("rel1", 2)]
        assert annihilator_exponents(d) == [3, 4]

    def test_dual_of_free_line_flips_degree(self):
        d = dual(Presentation.free(QQ, [("a", 3)]))
        assert list(d.gens) == [("a*", -3)]
        assert len(d.rels) == 0

    def test_torsion_dual_lives_in_negative_degrees(self, m_mod):
        d = dual(m_mod)
        dims = {deg: dimension_at(d, deg) for deg in range(-3, 3)}
        assert dims == {-3: 0, -2: 1, -1: 2, 0: 2, 1: 2, 2: 0}

    def test_double_dual_restores_barcode(self):
        for field in BOTH_FIELDS:
            rng = random.Random(43)
            for trial in range(10):
                p = _random_finite_diagonal(field, rng)
                dd = dual(dual(p))
                assert barcode(dd) == barcode(p).without_ephemeral(), (
                    f"trial {trial} over {field!r}"
                )


class TestHom:
    def test_worked_example(self, m_mod, n_mod):
        h = hom(m_mod, n_mod)
        assert list(h.gens) == [
            ("(x*.u)", 0), ("(x*.v)", 0), ("(x*.w)", 1),
            ("(y*.u)", -1), ("(y*.v)", -1), ("(y*.w)", 0),
        ]
        assert annihilator_exponents(h) == [2, 1, 3, 2, 1, 4]

    def test_hom_from_unit_recovers_target(self, n_mod):
        unit = Presentation.free(QQ, [("one", 0)])
        assert barcode(hom(unit, n_mod)) == barcode(n_mod).without_ephemeral()

class TestExteriorPower:
    def test_power_below_one_rejected(self, m_mod):
        with pytest.raises(ValueError):
            exterior_power(m_mod, 0)

    def test_first_power_is_diagonal_form(self, five_gen_module):
        w = exterior_power(five_gen_module, 1)
        assert w == snf_form(five_gen_module).presentation

    def test_square_of_diagonal_module(self):
        p = Presentation.from_terms(
            QQ, [("x", 1), ("y", 2)], [[(1, 4, "x")], [(1, 8, "y")]]
        )
        w = exterior_power(p, 2)
        assert list(w.gens) == [("(x^y)", 3)]
        assert annihilator_exponents(w) == [4]

    def test_square_with_coupled_relations(self):
        p = Presentation.from_terms(
            QQ, [("x", 1), ("y", 2)],
            [[(1, 4, "x"), (1, 3, "y")], [(1, 9, "x")]],
        )
        assert sorted((b.birth, b.death) for b in barcode(p)) == [
            (1, 10), (2, 5),
        ]
        w = exterior_power(p, 2)
        assert list(w.gens) == [("(x^y)", 3)]
        assert annihilator_exponents(w) == [3]

    def test_square_of_free_line_is_zero(self):
        w = exterior_power(Presentation.free(QQ, [("x", 0)]), 2)
        assert len(w.gens) == 0

    def test_power_beyond_rank_is_zero(self, m_mod):
        w = exterior_power(m_mod, 3)
        assert len(w.gens) == 0

    def test_slice_dimension_counts_subsets(self):
        for field in BOTH_FIELDS:
            rng = random.Random(44)
            for trial in range(10):
                p = random_presentation(field, rng, max_gens=5)
                w = exterior_power(p, 2)
                bars = list(barcode(p).without_ephemeral())
                for d in range(-1, 2 * degree_bound(p)):
                    want = sum(
                        1
                        for pair in itertools.combinations(bars, 2)
                        if alive_at(_min_rule_bar(*pair), d)
                    )
                    got = dimension_at(w, d)
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"wedge dim {got}, subset count {want}"
                    )


class TestSymmetricPower:
    def test_square_of_interval(self):
        s = symmetric_power(interval(QQ, "x", 1, 4), 2)
        assert list(barcode(s)) == [Bar(None, 2, 6)]

    def test_first_power_is_diagonal_form(self, five_gen_module):
        s = symmetric_power(five_gen_module, 1)
        assert s == snf_form(five_gen_module).presentation

    def test_square_of_free_line_is_free(self):
        s = symmetric_power(Presentation.free(QQ, [("x", 0)]), 2)
        assert list(s.gens) == [("(x.x)", 0)]
        assert list(barcode(s)) == [Bar(None, 0, INF)]

    def test_slice_dimension_counts_multisets(self):
        for field in BOTH_FIELDS:
            rng = random.Random(45)
            for trial in range(10):
                p = random_presentation(field, rng, max_gens=5)
                s = symmetric_power(p, 2)
                bars = list(barcode(p).without_ephemeral())
                for d in range(-1, 2 * degree_bound(p)):
                    want = sum(
                        1
                        for pair in itertools.combinations_with_replacement(bars, 2)
                        if alive_at(_min_rule_bar(*pair), d)
                    )
                    got = dimension_at(s, d)
                    assert got == want, (
                        f"trial {trial} degree {d} over {field!r}: "
                        f"symmetric dim {got}, multiset count {want}"
                    )


class TestPowerLabelLimit:
    """A power is refused, before anything is built, when its labels
    would pass ``LABEL_LIMIT`` characters; with labels of equal
    length the estimate is exact."""

    @pytest.mark.parametrize(
        "build, m",
        [(exterior_power, 2), (exterior_power, 3), (symmetric_power, 2),
         (symmetric_power, 3)],
    )
    def test_limit_is_exact_for_equal_labels(self, monkeypatch, build, m):
        p = Presentation.free(QQ, [("ab", 0), ("cd", 1), ("ef", 2), ("gh", 3)])
        size = sum(len(lab) for lab, _ in build(p, m).gens)
        monkeypatch.setattr(constructions, "LABEL_LIMIT", size)
        assert sum(len(lab) for lab, _ in build(p, m).gens) == size
        monkeypatch.setattr(constructions, "LABEL_LIMIT", size - 1)
        with pytest.raises(ValueError) as refused:
            build(p, m)
        assert str(refused.value).endswith(
            f"power needs {size} label characters, past the limit of {size - 1}"
        )

    def test_first_power_and_zero_power_are_not_limited(self, monkeypatch):
        monkeypatch.setattr(constructions, "LABEL_LIMIT", 0)
        p = Presentation.free(QQ, [("x", 0)])
        assert list(exterior_power(p, 1).gens) == [("x", 0)]
        assert len(exterior_power(p, 2).gens) == 0

    def test_huge_power_names_its_magnitude(self):
        # counted with math.comb; itertools is never reached
        p = Presentation.free(QQ, [("x", 0), ("y", 0), ("z", 0)])
        with pytest.raises(ValueError) as refused:
            symmetric_power(p, 10**15)
        assert str(refused.value) == (
            "symmetric power needs about 10^45 label characters, "
            "past the limit of 10000000"
        )


class TestDiagonalLabelLimit:
    """``tensor``, ``hom`` and ``tensor_over_k`` are refused, before a
    triple is built, when their labels would pass ``LABEL_LIMIT``
    characters; the count is exact for ``tensor`` and ``hom``, and for
    ``tensor_over_k`` when the label parts have equal lengths."""

    @pytest.mark.parametrize(
        "build, what",
        [(tensor, "tensor product"), (hom, "tensor product"),
         (tensor_over_k, "tensor product over k")],
        ids=["tensor", "hom", "tensor-k"],
    )
    def test_limit_is_exact(self, monkeypatch, build, what):
        # labels of one length on each side; tensor_over_k's shifts 1..3
        # and 2..5 are one digit each
        p = direct_sum(interval(QQ, "ab", 0, 2), interval(QQ, "cd", 1, INF))
        q = direct_sum(interval(QQ, "xy", 1, 3), interval(QQ, "zw", 2, 4))
        size = sum(len(lab) for lab, _ in build(p, q).gens)
        monkeypatch.setattr(constructions, "LABEL_LIMIT", size)
        assert sum(len(lab) for lab, _ in build(p, q).gens) == size
        monkeypatch.setattr(constructions, "LABEL_LIMIT", size - 1)
        with pytest.raises(ValueError) as refused:
            build(p, q)
        assert str(refused.value) == (
            f"{what} needs {size} label characters, past the limit of {size - 1}"
        )

    def test_tensor_counts_every_pair(self, monkeypatch):
        # 2 x 3 pairs, "(" + pl + "." + ql + ")": 3 * 5 + 2 * 4 + 3 * 6
        p = Presentation.from_terms(QQ, [("ab", 0), ("cde", 1)], [[(1, 2, "ab")]])
        q = Presentation.free(QQ, [("x", 1), ("yz", 2), ("w", 0)])
        assert sum(len(lab) for lab, _ in tensor(p, q).gens) == 41
        monkeypatch.setattr(constructions, "LABEL_LIMIT", 40)
        with pytest.raises(ValueError, match="needs 41 label characters"):
            tensor(p, q)

    def test_tensor_over_k_bounds_mixed_shift_lengths(self, monkeypatch):
        # shifts 8..11: labels of 7 and 8 characters, bounded by 4 * 8
        q = interval(QQ, "z", 8, 4)
        p = Presentation.free(QQ, [("x", 0)])
        assert sum(len(lab) for lab, _ in tensor_over_k(p, q).gens) == 30
        monkeypatch.setattr(constructions, "LABEL_LIMIT", 31)
        with pytest.raises(ValueError, match="needs 32 label characters"):
            tensor_over_k(p, q)

    def test_empty_factor_is_not_limited(self, monkeypatch):
        monkeypatch.setattr(constructions, "LABEL_LIMIT", 0)
        zero = Presentation.free(QQ, [])
        bar = interval(QQ, "z", 0, 2)
        for p, q in [(bar, zero), (zero, bar)]:
            for build in (tensor, hom, tensor_over_k):
                assert len(build(p, q).gens) == 0


class TestLazyDiagonal:
    """The diagonal constructions hold their triples and build their
    matrices on first read; the result must equal the presentation that
    ``eager_diagonal_presentation`` builds at once from the same
    triples, for every reader."""

    @staticmethod
    def assert_equals_eager(lazy, eager):
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert lazy.gens == eager.gens and lazy.rels == eager.rels
        assert lazy.incl.cols == eager.incl.cols

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=repr)
    def test_constructions_equal_eager_build(self, field):
        rng = random.Random(71)
        seen_free = seen_torsion = 0
        for trial in range(15):
            p = random_presentation(field, rng, max_gens=5)
            q = random_presentation(field, rng, max_gens=4)
            torsion = _random_finite_diagonal(field, rng)
            built = {
                "tensor": tensor(p, q),
                "hom": hom(p, q),
                "dual": dual(p),
                "tensor-k": tensor_over_k(p, torsion),
                "wedge:1": exterior_power(p, 1),
                "wedge:2": exterior_power(p, 2),
                "wedge:3": exterior_power(p, 3),
                "sym:2": symmetric_power(p, 2),
            }
            for name, lazy in built.items():
                assert not incl_built(lazy), f"{name}, trial {trial}"
                eager = eager_diagonal_presentation(field, lazy.triples)
                self.assert_equals_eager(lazy, eager)
                seen_free += INF in [a for _, _, a in lazy.triples]
                seen_torsion += len(lazy.rels) > 0
            form = snf_form(p)
            eager = eager_diagonal_presentation(field, form.presentation.triples)
            self.assert_equals_eager(form.presentation, eager)
        assert seen_free > 0 and seen_torsion > 0

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=repr)
    def test_triples_read_back_equal_the_pairing(self, field):
        # a diagonal input gives its triples back unreduced; they must be
        # what the pivot pairing of its built matrix gives
        rng = random.Random(72)
        for trial in range(15):
            p = random_presentation(field, rng, max_gens=5)
            q = random_presentation(field, rng, max_gens=4)
            d = dual(p)
            eager_dual = eager_diagonal_presentation(field, d.triples)
            assert _diagonal(eager_dual) == d.triples
            assert hom(p, q) == tensor(eager_dual, q), f"trial {trial}"
            t = tensor(p, q)
            eager_t = eager_diagonal_presentation(field, t.triples)
            assert exterior_power(t, 2) == exterior_power(eager_t, 2)
            assert symmetric_power(t, 2) == symmetric_power(eager_t, 2)

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=repr)
    def test_readers_of_the_built_matrix(self, field):
        rng = random.Random(73)
        for trial in range(10):
            p = random_presentation(field, rng, max_gens=5)
            q = random_presentation(field, rng, max_gens=4)
            lazy = tensor(p, q)
            eager = eager_diagonal_presentation(field, lazy.triples)
            assert barcode(lazy) == barcode(eager)
            ident = identity_matrix(field, eager.gens)
            f = PresentationMorphism(tensor(p, q), eager, ident)
            assert validate_morphism(f), f"trial {trial}"
            got, want = snf_form(tensor(p, q)), snf_form(eager)
            assert got.presentation == want.presentation
            assert (got.to_new, got.from_new) == (want.to_new, want.from_new)
            assert got.presentation.triples == want.presentation.triples

    def test_colliding_labels_fail_at_construction(self):
        # (x*, y*.z) and (x*.y*, z) both make (x*.y*.z)
        p = Presentation.free(QQ, [("x*.y", 0), ("x", 0)])
        q = Presentation.free(QQ, [("z", 0), ("y*.z", 0)])
        with pytest.raises(ValueError) as err:
            hom(p, q)
        assert str(err.value) == "duplicate basis label '(x*.y*.z)'"
