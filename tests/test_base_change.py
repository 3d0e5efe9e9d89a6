import operator
from decimal import Decimal
from fractions import Fraction
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import base_change
from temperedk import (
    ComplexCharacter,
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    InducedKMap,
    KClass,
    LParameterC,
    LParameterR,
    OneDim,
    ParameterMap,
    RealCharacter,
    RealTemperedPoint,
    SigmaOrbit,
    bc_component,
    bc_point_real,
    canonicalize_point,
    cone_chart,
    enumerate_orbits,
    induced_k_map,
    k_complex,
    k_real,
    kclass,
    kclass_add,
    kclass_scale,
    langlands_complex,
    langlands_real,
    langlands_real_inverse,
    pullback,
    real_components,
    restrict,
    run_multiplicities,
    weyl_group,
)

from oracles import (
    column_rank_bruteforce,
    combination_add,
    combination_pullback,
    combination_scale,
)
from test_weil import random_real_parameter


def component(gl2, gl1):
    return Component(SigmaOrbit(tuple(gl2), tuple(gl1)))


COMPLEX_POINT = ComplexTemperedPoint(ComplexComponent((0,)), (1.0,))
COMPLEX_PARAMETER = LParameterC((ComplexCharacter(1, 0.5),))


# A value of the wrong kind is named in a TypeError, not met by an
# AttributeError from deep inside the function.
@pytest.mark.parametrize(
    "function, value, expected",
    [
        (bc_point_real, COMPLEX_POINT, "a RealTemperedPoint"),
        (langlands_real_inverse, COMPLEX_POINT, "a RealTemperedPoint"),
        (bc_component, ComplexComponent((0,)), "a Component"),
        (restrict, COMPLEX_PARAMETER, "an LParameterR"),
        (langlands_real, COMPLEX_PARAMETER, "an LParameterR"),
        (langlands_complex, LParameterR((OneDim(RealCharacter(0, 0.5)),)), "an LParameterC"),
        (canonicalize_point, "x", "a TemperedPoint"),
        (canonicalize_point, None, "a TemperedPoint"),
    ],
)
def test_wrong_kind_is_named(function, value, expected):
    message = f"{function.__name__} takes {expected}, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        function(value)


REAL_COMPONENT = component((1,), ())
TWISTS = "params must be an iterable of twists"
ZERO_CLASS = kclass(k_complex(1, 1)[1])
ONE_KMAP = induced_k_map(1, 1)
BC_TARGET = ComplexComponent((-1, 1))


# Every argument of the wrong kind, or that cannot be iterated, is named in
# the package's own TypeError, raised outside any handler of a builtin one.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RealTemperedPoint(REAL_COMPONENT, None), f"{TWISTS}, got None"),
        (lambda: ComplexTemperedPoint(COMPLEX_POINT.component, 5), f"{TWISTS}, got 5"),
        (lambda: LParameterR(None), "summands must be an iterable of W_R summands, got None"),
        (lambda: LParameterC(5), "summands must be an iterable of W_C summands, got 5"),
        (lambda: kclass(None), "a KClass needs a KGroupPresentation, got None"),
        (lambda: kclass("junk"), "a KClass needs a KGroupPresentation, got 'junk'"),
        (lambda: KClass(None, (("labels:0", 1),)), "a KClass needs a KGroupPresentation, got None"),
        (
            lambda: KClass(ZERO_CLASS.presentation, None),
            "items must be an iterable of (key, coefficient) pairs, got None",
        ),
        (
            lambda: kclass(ZERO_CLASS.presentation, None),
            "kclass takes a mapping of generator keys to coefficients, got None",
        ),
        (
            lambda: kclass(ZERO_CLASS.presentation, 5),
            "kclass takes a mapping of generator keys to coefficients, got 5",
        ),
        (lambda: kclass_add(None, ZERO_CLASS), "kclass_add takes a KClass, got None"),
        (lambda: kclass_add(ZERO_CLASS, {}), "kclass_add takes a KClass, got {}"),
        (lambda: kclass_scale(None, 2), "kclass_scale takes a KClass, got None"),
        (lambda: pullback(None, ZERO_CLASS), "pullback takes an InducedKMap, got None"),
        (lambda: pullback(ONE_KMAP, None), "pullback takes a KClass, got None"),
        (lambda: cone_chart(None), "cone_chart takes a Component or a ComplexComponent, got None"),
        (lambda: weyl_group(None), "weyl_group takes a LeviShape, got None"),
        (lambda: enumerate_orbits(None, 2), "enumerate_orbits takes a LeviShape, got None"),
        (lambda: run_multiplicities(None), "run_multiplicities takes label tuples, got None"),
        (
            lambda: ParameterMap(None, ComplexComponent((0,)), ((1,), (1,))),
            "a ParameterMap source must be a Component, got None",
        ),
        (
            lambda: ParameterMap(REAL_COMPONENT, None, ((1,), (1,))),
            "a ParameterMap target must be a ComplexComponent, got None",
        ),
        (
            lambda: ParameterMap(REAL_COMPONENT, BC_TARGET, None),
            "matrix must be an iterable of rows, got None",
        ),
        (
            lambda: ParameterMap(REAL_COMPONENT, BC_TARGET, ((1,), None)),
            "matrix row must be an iterable of integers, got None",
        ),
        (
            lambda: ParameterMap(REAL_COMPONENT, BC_TARGET, (5, (1,))),
            "matrix row must be an iterable of integers, got 5",
        ),
        (
            lambda: InducedKMap(None, k_real(1, 1)[1], ()),
            "an InducedKMap source must be a KGroupPresentation, got None",
        ),
        (
            lambda: InducedKMap(ONE_KMAP.source, None, ()),
            "an InducedKMap target must be a KGroupPresentation, got None",
        ),
        (
            lambda: InducedKMap(ONE_KMAP.source, ONE_KMAP.target, None),
            "assignments must be an iterable of (key, KClass) pairs, got None",
        ),
        (
            lambda: InducedKMap(ONE_KMAP.source, ONE_KMAP.target, (("labels:0", 5),)),
            "image of 'labels:0' must be a KClass, got 5",
        ),
    ],
    ids=[
        "real-point-None", "complex-point-int", "LParameterR-None", "LParameterC-int",
        "kclass-None", "kclass-str", "KClass-None", "KClass-items-None", "kclass-coefficients-None",
        "kclass-coefficients-int", "kclass_add-a", "kclass_add-b",
        "kclass_scale", "pullback-kmap", "pullback-class", "cone_chart", "weyl_group",
        "enumerate_orbits", "run_multiplicities", "ParameterMap-source", "ParameterMap-target",
        "ParameterMap-matrix", "ParameterMap-row-None", "ParameterMap-row-int",
        "InducedKMap-source", "InducedKMap-target", "InducedKMap-assignments",
        "InducedKMap-image",
    ],
)
def test_argument_of_the_wrong_kind_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.value.__context__ is None


# An error raised while an iterable argument is read is its own, not a
# complaint about the argument: a summand key's included.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RealTemperedPoint(REAL_COMPONENT, (t + 1 for t in [None])), "unsupported operand"),
        (lambda: LParameterR(s + 1 for s in [None]), "unsupported operand"),
        (lambda: LParameterC(s + 1 for s in [None]), "unsupported operand"),
        (lambda: LParameterR([None]), "a W_R summand is a OneDim or a TwoDimInduced, got None"),
        (lambda: LParameterC([None]), "a W_C summand is a ComplexCharacter, got None"),
        (
            lambda: ParameterMap(REAL_COMPONENT, BC_TARGET, (row + 1 for row in [None])),
            "unsupported operand",
        ),
        (
            lambda: ParameterMap(REAL_COMPONENT, BC_TARGET, ((1,), (x + 1 for x in [None]))),
            "unsupported operand",
        ),
        (
            lambda: InducedKMap(ONE_KMAP.source, ONE_KMAP.target, (a + 1 for a in [None])),
            "unsupported operand",
        ),
    ],
)
def test_error_while_reading_an_iterable_passes_through(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}"):
        call()


# Like labels, every other iterable argument is read once, so a one-shot
# generator or iterator serves as well as a tuple.
def test_params_summands_matrix_and_assignments_may_come_from_any_iterable():
    point = RealTemperedPoint(REAL_COMPONENT, (0.5,))
    assert RealTemperedPoint(REAL_COMPONENT, (t for t in point.params)) == point
    parameter = langlands_real_inverse(RealTemperedPoint(component((2,), (1, 0)), (0.5, 0.0, 1.0)))
    assert LParameterR(s for s in reversed(parameter.summands)) == parameter
    assert LParameterC(iter(COMPLEX_PARAMETER.summands)) == COMPLEX_PARAMETER
    pmap = bc_component(component((1,), (0,)))
    rebuilt = ParameterMap(pmap.source, pmap.target, (iter(row) for row in pmap.matrix))
    assert rebuilt == pmap and rebuilt.column_rank == pmap.column_rank == 2
    kmap = induced_k_map(1, 2)
    rebuilt = InducedKMap(kmap.source, kmap.target, (pair for pair in kmap.assignments))
    assert rebuilt == kmap and rebuilt.support == kmap.support != ()
    key = kmap.support[0]
    assert rebuilt.image_of(key) == kmap.image_of(key)


class TestBcComponent:
    def test_two_characters(self):
        pmap = bc_component(component((), (0, 1)))
        assert pmap.target.labels == (0, 0)
        assert pmap.target.kind == "cone"
        assert pmap.matrix == ((2, 0), (0, 2))

    def test_single_character(self):
        pmap = bc_component(component((), (1,)))
        assert pmap.target.labels == (0,)
        assert pmap.matrix == ((2,),)

    def test_mixed_blocks(self):
        pmap = bc_component(component((1,), (0,)))
        assert pmap.target.labels == (-1, 0, 1)
        assert pmap.matrix == ((1, 0), (1, 0), (0, 2))

    def test_block_structure(self):
        for n in range(1, 7):
            for c in real_components(n, 3):
                pmap = bc_component(c)
                q = c.shape.q
                for j in range(c.dimension):
                    column = [row[j] for row in pmap.matrix]
                    if j < q:
                        assert sorted(column, reverse=True)[:2] == [1, 1]
                        assert sum(x != 0 for x in column) == 2
                    else:
                        assert sum(x != 0 for x in column) == 1
                        assert 2 in column

    def test_target_label_multiset(self):
        pmap = bc_component(component((2, 5), (1,)))
        assert pmap.target.labels == (-5, -2, 0, 2, 5)


class TestParameterMap:
    def test_shape_validation(self):
        source = component((), (0,))
        target = ComplexComponent((0,))
        with pytest.raises(ValueError):
            ParameterMap(source, target, ((2, 1),))
        with pytest.raises(ValueError):
            ParameterMap(source, target, ((2,), (0,)))

    def test_full_rank_mixed_map_is_proper(self):
        pmap = bc_component(component((1,), (0,)))
        assert pmap.column_rank == 2
        assert pmap.is_proper

    def test_doubling_is_proper(self):
        assert bc_component(component((), (0,))).is_proper

    def test_zero_column_is_not_proper(self):
        source = component((), (0,))
        target = ComplexComponent((0, 0))
        pmap = ParameterMap(source, target, ((0,), (0,)))
        assert pmap.column_rank == 0
        assert not pmap.is_proper

    def test_rank_matches_bruteforce_on_random_matrices(self):
        rng = random.Random(11)
        source = component((1,), (0,))
        target = ComplexComponent((-1, 0, 1))
        for _ in range(200):
            matrix = tuple(
                tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)
            )
            pmap = ParameterMap(source, target, matrix)
            assert pmap.column_rank == column_rank_bruteforce(matrix)
        # Up to 7 x 7: half with entries up to +-50, half products of a
        # rows x k and a k x cols factor, so often rank-deficient.
        for _ in range(400):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            if rng.random() < 0.5:
                k = rng.randint(0, min(rows, cols))
                a = [[rng.randint(-7, 7) for _ in range(k)] for _ in range(rows)]
                b = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(k)]
                matrix = tuple(
                    tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(cols))
                    for i in range(rows)
                )
            else:
                matrix = tuple(
                    tuple(rng.choice((0, rng.randint(-50, 50))) for _ in range(cols))
                    for _ in range(rows)
                )
            source = Component(SigmaOrbit((), (0,) * cols))
            pmap = ParameterMap(source, ComplexComponent((0,) * rows), matrix)
            assert pmap.column_rank == column_rank_bruteforce(matrix)

    @pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
    def test_non_int_entry_rejected(self, bad):
        source = component((), (0,))
        with pytest.raises(TypeError):
            ParameterMap(source, ComplexComponent((0,)), ((bad,),))

    def test_rank_stored_once_outside_equality_and_repr(self):
        pmap = bc_component(component((1,), (0,)))
        assert pmap.column_rank == 2
        assert "column_rank" not in repr(pmap)
        assert pmap == ParameterMap(pmap.source, pmap.target, pmap.matrix)
        assert hash(pmap) == hash(ParameterMap(pmap.source, pmap.target, pmap.matrix))

    def test_every_catalog_map_is_proper(self):
        for n in range(1, 6):
            for cutoff in range(1, 4):
                for c in real_components(n, cutoff):
                    assert bc_component(c).is_proper


_SIZES = st.integers(1, 10)
_SMALL = st.integers(-3, 3)
_HUGE = st.integers(-(10**20), 10**20)


def _grid(draw, rows, cols, entries):
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _dense(draw):
    return _grid(draw, draw(_SIZES), draw(_SIZES), st.one_of(_SMALL, _HUGE))


@st.composite
def _low_rank(draw):
    # A rows x k times k x cols product has rank at most k.
    rows, cols = draw(_SIZES), draw(_SIZES)
    k = draw(st.integers(0, min(rows, cols)))
    factor = st.one_of(_SMALL, st.integers(-(10**10), 10**10))
    a, b = _grid(draw, rows, k, factor), _grid(draw, k, cols, factor)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(cols)] for i in range(rows)]


@st.composite
def _bc_like(draw):
    # At most one nonzero per row, and some rows repeated, as a gl2
    # coordinate feeds two equal rows.
    cols = draw(_SIZES)
    rows = draw(st.lists(st.tuples(st.integers(0, cols - 1), _SMALL), min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10 - len(rows)))
    rows = draw(st.permutations(rows))
    return [[value if j == col else 0 for j in range(cols)] for col, value in rows]


@st.composite
def _with_zero_lines(draw):
    matrix = draw(st.one_of(_dense(), _low_rank()))
    zero_rows = draw(st.sets(st.integers(0, len(matrix) - 1)))
    zero_cols = draw(st.sets(st.integers(0, len(matrix[0]) - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


class TestColumnRank:
    """The sparse rank against the Fraction oracle, up to 10 x 10."""

    @pytest.mark.parametrize(
        "matrices",
        [_dense(), _low_rank(), _bc_like(), _with_zero_lines()],
        ids=["dense", "low_rank", "bc_like", "zero_lines"],
    )
    @given(data=st.data())
    def test_matches_bruteforce_and_transpose(self, matrices, data):
        matrix = tuple(map(tuple, data.draw(matrices)))
        rank = base_change._column_rank(matrix)
        assert rank == column_rank_bruteforce(matrix)
        assert rank == base_change._column_rank(tuple(zip(*matrix)))

    def test_exact_where_floats_are_not(self):
        # Rows (10^20, 1) and (10^20 + 1, 1) are independent, though equal
        # as floats.
        big = 10**20
        assert base_change._column_rank(((big, 1), (big + 1, 1))) == 2
        assert base_change._column_rank(((big, big + 1), (2 * big, 2 * big + 2))) == 1


class TestBcPointReal:
    def test_sign_character(self):
        point = RealTemperedPoint(component((), (1,)), (3.0,))
        image = bc_point_real(point)
        assert image.component.labels == (0,)
        assert image.params == (6.0,)

    def test_two_characters(self):
        point = RealTemperedPoint(component((), (0, 1)), (0.3, -1.0))
        image = bc_point_real(point)
        assert image.component.labels == (0, 0)
        assert image.params == (-2.0, 0.6)

    def test_gl2_block(self):
        point = RealTemperedPoint(component((2,), ()), (0.5,))
        image = bc_point_real(point)
        assert image.component.labels == (-2, 2)
        assert image.params == (0.5, 0.5)

    @given(st.permutations([0.5, -1.5, 2.0]), st.permutations([1.0, -0.25]))
    def test_twist_order_within_runs_is_irrelevant(self, gl2, gl1):
        point = RealTemperedPoint(component((1, 1, 1), (0, 0)), tuple(gl2 + gl1))
        canonical = canonicalize_point(point)
        assert bc_point_real(point) == bc_point_real(canonical)
        assert langlands_real_inverse(point) == langlands_real_inverse(canonical)

    @given(st.permutations([0.5, -1.5, 2.0]), st.permutations([1.0, -0.25]))
    def test_output_is_returned_by_canonicalize(self, gl2, gl1):
        image = bc_point_real(RealTemperedPoint(component((1, 1, 3), (0, 0)), tuple(gl2 + gl1)))
        assert canonicalize_point(image) is image

    @given(st.data())
    def test_matrix_rows_follow_the_source_coordinates(self, data):
        # bc_component's rows come by source coordinate, not in the target's
        # label order: for each gl2 label ell a row for ell and one for -ell,
        # then a row for 0 per gl1 label.  Paired so, each row carries the
        # twist bc_point_real gives its label.
        q = data.draw(st.integers(0, 3))
        gl2 = sorted(data.draw(st.lists(st.integers(1, 4), min_size=q, max_size=q)))
        gl1 = sorted(data.draw(st.lists(st.integers(0, 1), min_size=0 if q else 1, max_size=3)))
        c = component(gl2, gl1)
        # |t| <= 1e300, so no doubled twist overflows.
        twists = st.lists(st.floats(-1e300, 1e300), min_size=c.dimension, max_size=c.dimension)
        params = tuple(data.draw(twists))
        labels = [label for ell in gl2 for label in (ell, -ell)] + [0] * len(gl1)
        rows = bc_component(c).matrix
        pairs = [(label, sum(map(operator.mul, row, params))) for label, row in zip(labels, rows)]
        image = bc_point_real(RealTemperedPoint(c, params))
        assert len(rows) == len(labels)
        assert sorted(pairs) == sorted(zip(image.component.labels, image.params))

    def test_decimal_gl1_twist_doubles_to_a_float(self):
        # The point converts its twists to floats, so doubling never meets
        # a Decimal.
        image = bc_point_real(RealTemperedPoint(component((3,), (0,)), (Fraction(1, 2), Decimal("0.25"))))
        assert image.params == (0.5, 0.5, 0.5)
        assert all(type(t) is float for t in image.params)

    def test_doubling_overflow_names_the_input_twist(self):
        c = component((), (0,))
        assert bc_point_real(RealTemperedPoint(c, (8e307,))).params == (1.6e308,)
        with pytest.raises(ValueError, match=r"twist 1e\+308 overflows when doubled"):
            bc_point_real(RealTemperedPoint(c, (1e308,)))

    def test_image_component_matches_bc_component(self):
        rng = random.Random(12)
        for n in range(1, 7):
            for _ in range(30):
                p = random_real_parameter(rng, n)
                point = langlands_real(p)
                assert bc_point_real(point).component == bc_component(point.component).target

    def test_commuting_square(self):
        rng = random.Random(13)
        for n in range(1, 7):
            for _ in range(100):
                p = random_real_parameter(rng, n)
                left = langlands_complex(restrict(p))
                right = bc_point_real(langlands_real(p))
                assert left.component == right.component
                assert left.params == right.params


class TestInducedKMap:
    def test_rank_one_diagonal(self):
        kmap = induced_k_map(1, 3)
        assert kmap.support == ("labels:0",)
        image = kmap.image_of("labels:0")
        assert image.coefficients == {
            "shape:0,1|gl2:|gl1:0": 1,
            "shape:0,1|gl2:|gl1:1": 1,
        }
        for key in kmap.source.generator_keys:
            if key != "labels:0":
                assert kmap.image_of(key).is_zero

    # Every generator outside the support maps to one zero class of the
    # target, built with the map, not a new class per call.
    def test_zero_images_are_one_class(self):
        kmap = induced_k_map(1, 6)
        zero = kmap.image_of("labels:3")
        assert zero.is_zero and zero.presentation == kmap.target
        for key in kmap.source.generator_keys:
            if key != "labels:0":
                assert kmap.image_of(key) is zero, key
        assert kmap.image_of("labels:3") is kmap.image_of("labels:-2")

    def test_rank_two_is_zero(self):
        kmap = induced_k_map(2, 3)
        assert kmap.is_zero
        assert kmap.support == ()

    def test_rank_five_is_zero(self):
        assert induced_k_map(5, 3).is_zero

    def test_zero_for_all_small_ranks(self):
        for n in range(2, 7):
            for cutoff in range(max(1, n // 2), 5):
                assert induced_k_map(n, cutoff).is_zero

    def test_degrees_match_parity(self):
        kmap = induced_k_map(3, 2)
        assert kmap.source.degree == 1 and kmap.target.degree == 1
        kmap = induced_k_map(2, 2)
        assert kmap.source.degree == 0 and kmap.target.degree == 0

    # An unhashable key cannot be looked up at all; it is named all the same.
    @pytest.mark.parametrize(
        "key", ["labels:99", ["labels:0"], {}, (["labels:0"],)], ids=["str", "list", "dict", "tuple"]
    )
    def test_image_of_unknown_key(self, key):
        kmap = induced_k_map(1, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(repr(key))} is not a source generator$"):
            kmap.image_of(key)

    def test_cutoff_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^cutoff must be >= 1, got 0$"):
            induced_k_map(1, 0)

    def test_examines_only_the_q0_generators(self, monkeypatch):
        calls = []

        def counting(component):
            calls.append(component)
            return bc_component(component)

        monkeypatch.setattr(base_change, "bc_component", counting)
        for n in range(1, 7):
            for cutoff in range(max(1, n // 2), 6):
                calls.clear()
                kmap = induced_k_map(n, cutoff)
                q0 = [c for c in kmap.target.generators if c.shape.q == 0]
                assert calls == q0 and len(calls) <= 2, (n, cutoff)


    def test_repeated_assignment_rejected(self):
        kmap = induced_k_map(1, 2)
        image = kmap.image_of("labels:0")
        with pytest.raises(ValueError):
            InducedKMap(kmap.source, kmap.target, (("labels:0", image), ("labels:0", image)))

    def test_unknown_assignment_rejected(self):
        kmap = induced_k_map(1, 2)
        with pytest.raises(ValueError):
            InducedKMap(kmap.source, kmap.target, (("labels:9", kclass(kmap.target)),))

    # A key that is not a string cannot be sorted against the source keys; it
    # is still named as a stranger, whatever the order of the assignments.
    def test_assignment_key_of_another_type_is_named(self):
        kmap = induced_k_map(1, 2)
        image = kmap.image_of("labels:0")
        message = "^assignment for 1, which is not a source generator$"
        for assignments in (((1, image), ("labels:0", image)), (("labels:0", image), (1, image))):
            with pytest.raises(ValueError, match=message):
                InducedKMap(kmap.source, kmap.target, assignments)

    @pytest.mark.parametrize("stray", [["labels:0"], {}, (["labels:0"],)])
    def test_unhashable_assignment_key_is_named(self, stray):
        kmap = induced_k_map(1, 2)
        image = kmap.image_of("labels:0")
        message = f"^assignment for {re.escape(repr(stray))}, which is not a source generator$"
        for assignments in (((stray, image),), (("labels:0", image), (stray, image))):
            with pytest.raises(ValueError, match=message):
                InducedKMap(kmap.source, kmap.target, assignments)

    def test_image_in_wrong_presentation_rejected(self):
        kmap = induced_k_map(1, 2)
        with pytest.raises(ValueError):
            InducedKMap(kmap.source, kmap.target, (("labels:0", kclass(k_real(1, 2)[0])),))

    def test_equal_target_built_separately_accepted(self):
        kmap = induced_k_map(1, 2)
        target = k_real(1, 2)[1]
        image = kclass(target, kmap.image_of("labels:0").coefficients)
        rebuilt = InducedKMap(kmap.source, target, (("labels:0", image),))
        assert rebuilt == kmap


class TestPullback:
    def test_diagonal_scales(self):
        kmap = induced_k_map(1, 2)
        cls = kclass(kmap.source, {"labels:0": 2})
        assert pullback(kmap, cls).coefficients == {
            "shape:0,1|gl2:|gl1:0": 2,
            "shape:0,1|gl2:|gl1:1": 2,
        }

    def test_zero_class(self):
        kmap = induced_k_map(1, 2)
        assert pullback(kmap, kclass(kmap.source)).is_zero

    def test_everything_dies_in_rank_three(self):
        kmap = induced_k_map(3, 2)
        full = kclass(kmap.source, {key: 1 for key in kmap.source.generator_keys})
        assert pullback(kmap, full).is_zero

    def test_additive(self):
        kmap = induced_k_map(1, 3)
        rng = random.Random(14)
        keys = kmap.source.generator_keys
        for _ in range(20):
            a = kclass(kmap.source, {k: rng.randint(-3, 3) for k in keys})
            b = kclass(kmap.source, {k: rng.randint(-3, 3) for k in keys})
            left = pullback(kmap, kclass_add(a, b))
            right = kclass_add(pullback(kmap, a), pullback(kmap, b))
            assert left == right

    def test_presentation_mismatch(self):
        kmap = induced_k_map(1, 2)
        k0, k1 = k_complex(1, 3)
        with pytest.raises(ValueError):
            pullback(kmap, kclass(k1, {"labels:3": 1}))

    def test_equal_source_built_separately_accepted(self):
        kmap = induced_k_map(1, 2)
        source = k_complex(1, 2)[1]
        assert source is not kmap.source
        assert pullback(kmap, kclass(source, {"labels:0": 1})) == kmap.image_of("labels:0")

    def test_class_operations_never_rebuild_keys(self, monkeypatch):
        kmap = induced_k_map(2, 12)
        ones = {key: 1 for key in kmap.source.generator_keys}
        # Built before counting: the negative control below reads one of them.
        generators = kmap.source.generators
        evaluations = []
        for cls in (Component, ComplexComponent):
            def counted(self, key=cls.key.fget):
                evaluations.append(self)
                return key(self)

            monkeypatch.setattr(cls, "key", property(counted))
        a = kclass(kmap.source, ones)
        doubled = kclass_add(a, a)
        images = [kmap.image_of(key) for key in ones]
        pulled = pullback(kmap, a)
        assert evaluations == []
        assert doubled.coefficients == {key: 2 for key in ones}
        assert pulled.is_zero and all(image.is_zero for image in images)
        assert generators[0].key in ones
        assert len(evaluations) == 1


# The paper's K-map, written out: for n = 1 the winding-0 line pulls back to
# both real character lines; for n >= 2 the map is zero.
PAPER_IMAGES = {
    1: {"labels:0": {"shape:0,1|gl2:|gl1:0": 1, "shape:0,1|gl2:|gl1:1": 1}},
    2: {},
}
LINEARITY_MAPS = {(n, cutoff): induced_k_map(n, cutoff) for n, cutoff in ((1, 2), (1, 4), (2, 1), (2, 3))}


class TestPullbackLinearity:
    @pytest.mark.parametrize("n, cutoff", list(LINEARITY_MAPS))
    @given(data=st.data())
    def test_linear_and_matches_paper(self, n, cutoff, data):
        kmap = LINEARITY_MAPS[(n, cutoff)]
        combinations = st.dictionaries(
            st.sampled_from(kmap.source.generator_keys), st.integers(-20, 20), max_size=12
        )
        a, b = data.draw(combinations), data.draw(combinations)
        k = data.draw(st.integers(-6, 6))
        class_a, class_b = kclass(kmap.source, a), kclass(kmap.source, b)
        left = pullback(kmap, kclass_add(class_a, kclass_scale(class_b, k)))
        right = kclass_add(pullback(kmap, class_a), kclass_scale(pullback(kmap, class_b), k))
        assert left == right
        combined = combination_add(a, combination_scale(b, k))
        assert left.coefficients == combination_pullback(PAPER_IMAGES[n], combined)
