from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from temperedk import (
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    ConeChart,
    LeviShape,
    RealTemperedPoint,
    SigmaOrbit,
    TemperedPoint,
    canonicalize_point,
    complex_components,
    cone_chart,
    enumerate_levi_shapes,
    enumerate_orbits,
    real_components,
)
from temperedk import param_space

from oracles import (
    canonical_twists_bruteforce,
    complex_components_bruteforce,
    real_components_bruteforce,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
TWIST = st.sampled_from((-1.5, -0.0, 0.0, 2.0)) | FINITE


def component(gl2, gl1):
    return Component(SigmaOrbit(tuple(gl2), tuple(gl1)))


def by_label(pairs):
    """(label, twist) pairs stably sorted by label, so each twist stays
    with its label when the component sorts the labels."""
    return sorted(pairs, key=lambda pair: pair[0])


def real_point(gl2_pairs, gl1_pairs):
    gl2, gl1 = by_label(gl2_pairs), by_label(gl1_pairs)
    c = component((ell for ell, _ in gl2), (eps for eps, _ in gl1))
    return RealTemperedPoint(c, tuple(t for _, t in gl2 + gl1))


def complex_point(pairs):
    pairs = by_label(pairs)
    return ComplexTemperedPoint(ComplexComponent(tuple(ell for ell, _ in pairs)), (t for _, t in pairs))


@pytest.mark.parametrize(
    "value_class, labels, bad",
    [
        (ComplexComponent, ((1, "a"),), "'a'"),
        (ComplexComponent, ((1, None),), "None"),
        (SigmaOrbit, ((1, "a"), ()), "'a'"),
        (SigmaOrbit, ((), (0, None)), "None"),
        (SigmaOrbit, ((2.5, 1.5), ()), "2.5"),
        (SigmaOrbit, ((2.5,), (None,)), "2.5"),
        (SigmaOrbit, ((), (1, "a", 0.5)), "'a'"),
        (ComplexComponent, ((2, 1.5, 0.5),), "1.5"),
    ],
    ids=[
        "complex-str", "complex-None", "gl2-str", "gl1-None",
        "gl2-first-given", "gl2-before-gl1", "gl1-first-given", "complex-first-given",
    ],
)
def test_mixed_type_labels_are_named(value_class, labels, bad):
    # Labels that do not sort together get the message a single bad label
    # gets, not the sort's bare comparison error.
    # Each label is checked before the sort, in the order given, so when
    # several are bad the first given is named.
    with pytest.raises(TypeError, match=f"^label must be an integer, got {bad}$"):
        value_class(*labels)


@pytest.mark.parametrize(
    "build, name, bad",
    [
        (lambda: SigmaOrbit(None, ()), "gl2_labels", "None"),
        (lambda: SigmaOrbit((1, 2), None), "gl1_labels", "None"),
        (lambda: ComplexComponent(None), "labels", "None"),
        (lambda: ComplexComponent(5), "labels", "5"),
    ],
    ids=["gl2-None", "gl1-None", "complex-None", "complex-int"],
)
def test_labels_argument_that_cannot_be_iterated_is_named(build, name, bad):
    message = f"^{name} must be an iterable of integers, got {bad}$"
    with pytest.raises(TypeError, match=message) as caught:
        build()
    # Raised by the package itself, not while handling the builtin's error.
    assert caught.value.__context__ is None


def test_labels_may_come_from_any_iterable():
    assert SigmaOrbit((ell for ell in (3, 1)), iter((1, 0))) == SigmaOrbit((1, 3), (0, 1))
    assert ComplexComponent(ell for ell in (2, -1)).labels == (-1, 2)
    # An error raised while iterating is the iterable's own, not a complaint
    # that the argument cannot be iterated.
    with pytest.raises(TypeError, match="unsupported operand"):
        ComplexComponent(1 + ell for ell in (0, None))


@pytest.mark.parametrize("empty", [(), [], (ell for ell in ())], ids=["tuple", "list", "generator"])
def test_complex_component_needs_a_label(empty):
    with pytest.raises(ValueError, match="^a complex component needs at least one label$"):
        ComplexComponent(empty)


class TestComponent:
    def test_dimension_is_block_count(self):
        assert component((1, 3), (0,)).dimension == 3

    def test_shape_is_read_off_the_orbit(self):
        for n in range(1, 7):
            for shape in enumerate_levi_shapes(n):
                for cutoff in range(1, 4):
                    for orbit in enumerate_orbits(shape, cutoff):
                        assert Component(orbit).shape == shape
        with pytest.raises(ValueError, match="empty shape"):
            Component(SigmaOrbit((), ()))
        with pytest.raises(TypeError):
            Component(LeviShape(1, 0), SigmaOrbit((1,), ()))
        a, b = Component(SigmaOrbit((3, 1), (1, 0))), Component(SigmaOrbit((1, 3), (0, 1)))
        assert a == b and hash(a) == hash(b)
        assert a != Component(SigmaOrbit((1, 3), (0, 0)))

    def test_one_shape_per_q_r(self):
        # Components of one shape share its LeviShape, as they share charts;
        # an empty shape raises from LeviShape's own check and is not stored.
        a, b = component((1, 2), (0,)), component((3, 3), (1,))
        assert a.shape is b.shape and a.shape == LeviShape(2, 1)
        with pytest.raises(ValueError, match="empty shape"):
            Component(SigmaOrbit((), ()))
        assert (0, 0) not in param_space._SHAPES

    def test_free_iff_trivial_isotropy(self):
        assert component((), (0, 1)).is_free
        assert not component((), (0, 0)).is_free
        assert component((1, 2), ()).kind == "free"
        assert component((2, 2), ()).kind == "cone"

    def test_key_format(self):
        assert component((2,), (0,)).key == "shape:1,1|gl2:2|gl1:0"
        assert component((1, 3), ()).key == "shape:2,0|gl2:1,3|gl1:"
        assert component((), (1,)).key == "shape:0,1|gl2:|gl1:1"


class TestRealCatalog:
    def test_gl2_catalog_at_cutoff_one(self):
        catalog = real_components(2, 1)
        facts = [(c.shape.q, c.orbit.gl2_labels, c.orbit.gl1_labels, c.kind, c.dimension)
                 for c in catalog]
        assert facts == [
            (1, (1,), (), "free", 1),
            (0, (), (0, 0), "cone", 2),
            (0, (), (0, 1), "free", 2),
            (0, (), (1, 1), "cone", 2),
        ]

    def test_gl1_catalog(self):
        catalog = real_components(1, 1)
        assert [(c.kind, c.dimension) for c in catalog] == [("free", 1), ("free", 1)]

    def test_gl1_catalog_at_a_huge_cutoff(self):
        # GL(1, R) has no gl2 block, so its catalog ignores the cutoff.
        assert real_components(1, 10**12) == real_components(1, 1)

    def test_gl3_catalog_at_cutoff_two(self):
        catalog = real_components(3, 2)
        free = [c for c in catalog if c.is_free]
        cones = [c for c in catalog if not c.is_free]
        assert len(free) == 4 and all(c.shape == LeviShape(1, 1) for c in free)
        assert {(c.orbit.gl2_labels[0], c.orbit.gl1_labels[0]) for c in free} == {
            (1, 0), (1, 1), (2, 0), (2, 1),
        }
        assert len(cones) == 4 and all(c.shape == LeviShape(0, 3) for c in cones)

    def test_count_formula(self):
        for n in range(1, 7):
            for cutoff in range(1, 5):
                catalog = real_components(n, cutoff)
                expected = sum(
                    comb(cutoff + q - 1, q) * (n - 2 * q + 1) for q in range(n // 2 + 1)
                )
                assert len(catalog) == expected

    def test_shape_count_formula(self):
        # The per-shape count that the bc table's header sums.
        for n in range(1, 9):
            for shape in enumerate_levi_shapes(n):
                for cutoff in range(1, 7):
                    count = param_space._shape_catalog_size(shape.q, shape.r, cutoff)
                    assert count == len(enumerate_orbits(shape, cutoff)), (shape, cutoff)

    def test_matches_bruteforce(self):
        for n in range(1, 7):
            for cutoff in range(1, 4):
                got = [
                    (c.shape.q, c.shape.r, c.orbit.gl2_labels, c.orbit.gl1_labels,
                     c.dimension, c.is_free)
                    for c in real_components(n, cutoff)
                ]
                assert got == real_components_bruteforce(n, cutoff)

    def test_keys_unique(self):
        catalog = real_components(6, 3)
        keys = [c.key for c in catalog]
        assert len(set(keys)) == len(keys)

    def test_three_gl1_blocks_force_cones(self):
        for n in range(3, 9):
            for c in real_components(n, 2):
                if c.shape.r >= 3:
                    assert not c.is_free

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            real_components(0, 1)
        with pytest.raises(ValueError):
            real_components(2, 0)


class TestComplexCatalog:
    def test_singletons(self):
        catalog = complex_components(1, 2)
        assert [c.labels for c in catalog] == [(-2,), (-1,), (0,), (1,), (2,)]
        assert all(c.is_free for c in catalog)

    def test_pairs_at_cutoff_one(self):
        catalog = complex_components(2, 1)
        assert len(catalog) == 6
        free = {c.labels for c in catalog if c.is_free}
        cone = {c.labels for c in catalog if not c.is_free}
        assert free == {(-1, 0), (-1, 1), (0, 1)}
        assert cone == {(-1, -1), (0, 0), (1, 1)}

    def test_repeated_zero_is_cone(self):
        assert ComplexComponent((0, 0)).kind == "cone"

    def test_labels_canonicalized(self):
        assert ComplexComponent((3, -1, 0)).labels == (-1, 0, 3)
        assert ComplexComponent((2, -2)).key == "labels:-2,2"

    def test_matches_bruteforce(self):
        for n in range(1, 5):
            for cutoff in range(1, 4):
                got = [(c.labels, c.is_free) for c in complex_components(n, cutoff)]
                assert got == complex_components_bruteforce(n, cutoff)

    def test_dimension_is_n(self):
        assert all(c.dimension == 3 for c in complex_components(3, 1))


class TestConeChart:
    def test_fully_repeated_triple(self):
        chart = cone_chart(component((), (0, 0, 0)))
        assert (chart.num_lines, chart.num_rays) == (1, 2)

    def test_free_component_has_no_rays(self):
        chart = cone_chart(component((), (0, 1)))
        assert (chart.num_lines, chart.num_rays) == (2, 0)

    def test_two_pairs(self):
        chart = cone_chart(ComplexComponent((1, 1, 2, 2)))
        assert (chart.num_lines, chart.num_rays) == (2, 2)

    @pytest.mark.parametrize(
        "lines, rays, error",
        [
            (True, 0, TypeError),
            (1, False, TypeError),
            ("a", None, TypeError),
            (1.0, 0, TypeError),
            (1, None, TypeError),
            (0, 0, ValueError),
            (-1, 2, ValueError),
            (1, -1, ValueError),
        ],
    )
    def test_counts_are_checked(self, lines, rays, error):
        # A chart has at least one line (the mean of a block) and no
        # negative number of rays; bools and non-ints are not counts.
        with pytest.raises(error, match="num_lines|num_rays"):
            ConeChart(lines, rays)

    def test_chart_dimensions_add_up(self):
        # The chart counts distinct labels; the rays it leaves are the
        # isotropy's sum of (m - 1), read off the run scan.
        catalogs = [real_components(n, L) for n in range(1, 9) for L in range(1, 5)]
        catalogs += [complex_components(n, L) for n in range(1, 7) for L in range(1, 4)]
        for c in (c for catalog in catalogs for c in catalog):
            chart = cone_chart(c)
            assert chart.num_rays == sum(m - 1 for m in c.multiplicities)
            assert chart.num_lines + chart.num_rays == c.dimension
            assert (chart.num_rays == 0) == c.is_free

    @given(
        st.lists(st.integers(1, 4) | st.integers(min_value=1), max_size=6),
        st.lists(st.integers(0, 1), max_size=6),
        st.lists(st.integers(-3, 3) | st.integers(), min_size=1, max_size=8),
    )
    def test_block_lines_sum_to_the_chart(self, gl2, gl1, labels):
        # The CLI counts a record's lines once per block, from its sorted
        # label strings; summed, those counts are the lines of the library's
        # chart, and the dimension less the run scan's rays, over both fields.
        assume(gl2 or gl1)
        cases = [
            (component(sorted(gl2), sorted(gl1)), (sorted(gl2), sorted(gl1))),
            (ComplexComponent(tuple(labels)), (sorted(labels),)),
        ]
        for c, blocks in cases:
            lines = sum(param_space._block_lines(tuple(map(str, block))) for block in blocks)
            assert lines == cone_chart(c).num_lines
            assert lines == c.dimension - sum(m - 1 for m in c.multiplicities)

    def test_free_or_cone_is_read_off_the_chart(self, monkeypatch):
        # The chart is the one free-or-cone rule: with the run scan gone,
        # is_free and kind still answer, and agree with the chart.
        def no_scan(*blocks):
            raise AssertionError("free or cone scanned label runs")

        monkeypatch.setattr(param_space, "run_multiplicities", no_scan)
        catalogs = [real_components(n, L) for n in range(1, 7) for L in range(1, 4)]
        catalogs += [complex_components(n, L) for n in range(1, 6) for L in range(1, 3)]
        for c in (c for catalog in catalogs for c in catalog):
            free = not cone_chart(c).num_rays
            assert c.is_free == free
            assert c.kind == ("free" if free else "cone")


class TestPoints:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            RealTemperedPoint(component((2,), (0,)), (0.5,))
        with pytest.raises(ValueError):
            ComplexTemperedPoint(ComplexComponent((0, 1)), (1.0, 2.0, 3.0))

    def test_canonicalize_repeated_pair(self):
        point = ComplexTemperedPoint(ComplexComponent((0, 0)), (3.0, -1.0))
        assert canonicalize_point(point).params == (-1.0, 3.0)

    def test_canonicalize_distinct_pair_is_identity(self):
        point = ComplexTemperedPoint(ComplexComponent((0, 1)), (3.0, -1.0))
        assert canonicalize_point(point).params == (3.0, -1.0)

    def test_canonicalize_sorts_only_within_blocks(self):
        point = ComplexTemperedPoint(ComplexComponent((2, 2, 5)), (1.0, 0.0, 7.0))
        assert canonicalize_point(point).params == (0.0, 1.0, 7.0)

    def test_canonicalize_real_point_blockwise(self):
        c = component((1, 1), (0, 0))
        point = RealTemperedPoint(c, (4.0, -2.0, 9.0, 5.0))
        assert canonicalize_point(point).params == (-2.0, 4.0, 5.0, 9.0)

    def test_gl2_and_gl1_blocks_do_not_mix(self):
        c = component((1,), (0,))
        point = RealTemperedPoint(c, (4.0, -2.0))
        assert canonicalize_point(point).params == (4.0, -2.0)

    def test_canonicalize_idempotent(self):
        point = ComplexTemperedPoint(ComplexComponent((1, 1, 1)), (2.0, -3.0, 0.5))
        once = canonicalize_point(point)
        assert canonicalize_point(once) == once

    @given(st.permutations([0.5, -1.5, 2.0, 0.0]))
    def test_canonicalize_permutation_invariant(self, params):
        c = ComplexComponent((4, 4, 4, 4))
        point = ComplexTemperedPoint(c, tuple(params))
        reference = ComplexTemperedPoint(c, (-1.5, 0.0, 0.5, 2.0))
        assert canonicalize_point(point) == reference

    # Labels 1..2 in gl2 and 0..1 in gl1 repeat within each block, and
    # label 1 can sit in both blocks without its twists mixing.
    @given(
        st.lists(st.tuples(st.integers(1, 2), FINITE), max_size=4),
        st.lists(st.tuples(st.integers(0, 1), FINITE), max_size=4),
        st.data(),
    )
    def test_canonicalize_real_across_blocks(self, gl2, gl1, data):
        assume(gl2 or gl1)
        point = real_point(gl2, gl1)
        orbit = point.component.orbit
        canonical = canonicalize_point(point)
        assert type(canonical) is RealTemperedPoint
        expected = canonical_twists_bruteforce((orbit.gl2_labels, orbit.gl1_labels), point.params)
        assert canonical == RealTemperedPoint(point.component, expected)
        permuted = real_point(data.draw(st.permutations(gl2)), data.draw(st.permutations(gl1)))
        assert canonicalize_point(permuted) == canonical

    @given(st.lists(st.tuples(st.integers(-1, 1), FINITE), min_size=1, max_size=5), st.data())
    def test_canonicalize_complex_matches_oracle(self, pairs, data):
        point = complex_point(pairs)
        canonical = canonicalize_point(point)
        assert type(canonical) is ComplexTemperedPoint
        expected = canonical_twists_bruteforce((point.component.labels,), point.params)
        assert canonical == ComplexTemperedPoint(point.component, expected)
        assert canonicalize_point(complex_point(data.draw(st.permutations(pairs)))) == canonical

    def test_canonical_point_is_returned_itself(self):
        real = RealTemperedPoint(component((1, 1), (0, 1)), (-2.0, 4.0, 9.0, 5.0))
        cplx = ComplexTemperedPoint(ComplexComponent((0, 0, 2)), (-1.0, 3.0, -7.0))
        assert canonicalize_point(real) is real
        assert canonicalize_point(cplx) is cplx

    def test_non_canonical_point_gives_new_point_of_its_class(self):
        real = RealTemperedPoint(component((1, 1), (0,)), (4.0, -2.0, 9.0))
        cplx = ComplexTemperedPoint(ComplexComponent((0, 0)), (3.0, -1.0))
        for point, want in ((real, (-2.0, 4.0, 9.0)), (cplx, (-1.0, 3.0))):
            canonical = canonicalize_point(point)
            assert canonical is not point
            assert type(canonical) is type(point)
            assert canonical.component is point.component
            assert canonical.params == want

    # Few twist values, so equal twists and already-sorted runs are common.
    @given(
        st.lists(st.tuples(st.integers(1, 2), TWIST), max_size=4),
        st.lists(st.tuples(st.integers(0, 1), TWIST), max_size=4),
        st.lists(st.tuples(st.integers(-1, 1), TWIST), min_size=1, max_size=5),
    )
    def test_point_returned_exactly_when_canonical(self, gl2, gl1, pairs):
        points = [complex_point(pairs)]
        if gl2 or gl1:
            points.append(real_point(gl2, gl1))
        for p in points:
            blocks = p.component.label_blocks
            assert (canonicalize_point(p) is p) == (p.params == canonical_twists_bruteforce(blocks, p.params))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_twists_rejected(self, bad):
        with pytest.raises(ValueError):
            RealTemperedPoint(component((), (0, 0, 0)), (1.0, bad, 0.5))
        with pytest.raises(ValueError):
            ComplexTemperedPoint(ComplexComponent((0, 0)), (bad, 0.0))

    @pytest.mark.parametrize(
        "twist, value",
        [
            (2, 2.0),
            (True, 1.0),
            (Fraction(1, 2), 0.5),
            (Decimal("0.25"), 0.25),
            (type("FloatSubclass", (float,), {})(1.5), 1.5),
        ],
        ids=["int", "bool", "Fraction", "Decimal", "float-subclass"],
    )
    def test_twists_become_plain_floats(self, twist, value):
        # As a character does, a point converts a finite twist that is not
        # a float, and converts every twist once one needs it.
        real = RealTemperedPoint(component((3,), (0,)), (0.5, twist))
        cplx = ComplexTemperedPoint(ComplexComponent((0, 1)), [twist, -1.0])
        assert real.params == (0.5, value) and cplx.params == (value, -1.0)
        for t in real.params + cplx.params:
            assert type(t) is float

    def test_str_twist_rejected(self):
        with pytest.raises(TypeError):
            RealTemperedPoint(component((), (0,)), ("2",))
        with pytest.raises(TypeError):
            ComplexTemperedPoint(ComplexComponent((0, 1)), (0.5, "0.5"))

    def test_point_kind_must_match_component(self):
        real_c, complex_c = component((), (0,)), ComplexComponent((0,))
        with pytest.raises(TypeError, match="a RealTemperedPoint needs a Component$"):
            RealTemperedPoint(complex_c, (1.0,))
        with pytest.raises(TypeError, match="a ComplexTemperedPoint needs a ComplexComponent$"):
            ComplexTemperedPoint(real_c, (1.0,))
        with pytest.raises(TypeError, match="a ComplexTemperedPoint needs a ComplexComponent$"):
            ComplexTemperedPoint(None, ())
        # The base class holds a complex component, as ComplexTemperedPoint does.
        with pytest.raises(TypeError, match="a TemperedPoint needs a ComplexComponent$"):
            TemperedPoint(real_c, (1.0,))
        with pytest.raises(TypeError, match="a RealTemperedPoint needs a Component$"):
            RealTemperedPoint(None, ())

    def test_point_kinds_never_equal(self):
        real = RealTemperedPoint(component((), (0,)), (1.0,))
        cplx = ComplexTemperedPoint(ComplexComponent((0,)), (1.0,))
        assert isinstance(real, TemperedPoint) and isinstance(cplx, TemperedPoint)
        assert real != cplx

    def test_label_blocks(self):
        assert component((1, 3), (1,)).label_blocks == ((1, 3), (1,))
        assert ComplexComponent((2, -1)).label_blocks == ((-1, 2),)
