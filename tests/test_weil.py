import random
import re
import sys
from math import isfinite

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from temperedk import (
    ComplexCharacter,
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    LParameterC,
    LParameterR,
    LeviShape,
    OneDim,
    RealCharacter,
    RealTemperedPoint,
    SigmaOrbit,
    TwoDimInduced,
    bc_point_real,
    canonicalize_point,
    langlands_complex,
    langlands_real,
    langlands_real_inverse,
    param_space,
    restrict,
    weil,
)

from oracles import restricted_labels_by_induction


def random_real_parameter(rng, n):
    """Random tempered parameter with total dimension n."""
    q = rng.randint(0, n // 2)
    r = n - 2 * q
    summands = [
        TwoDimInduced(ComplexCharacter(rng.randint(1, 5), rng.uniform(-3, 3)))
        for _ in range(q)
    ]
    summands.extend(
        OneDim(RealCharacter(rng.randint(0, 1), rng.uniform(-3, 3))) for _ in range(r)
    )
    return LParameterR(tuple(summands))


class TestCharacters:
    def test_real_character_validation(self):
        with pytest.raises(ValueError):
            RealCharacter(2, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_twists_rejected(self, bad):
        with pytest.raises(ValueError):
            RealCharacter(0, bad)
        with pytest.raises(ValueError):
            ComplexCharacter(1, bad)

    def test_str_twist_rejected(self):
        # float() would parse these; a TemperedPoint rejects them too.
        with pytest.raises(TypeError):
            RealCharacter(0, "2")
        with pytest.raises(TypeError):
            ComplexCharacter(1, "0.5")

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5], ids=["bool", "integral-float", "float"])
    def test_non_int_label_rejected(self, bad):
        with pytest.raises(TypeError):
            RealCharacter(bad, 0.0)
        with pytest.raises(TypeError):
            ComplexCharacter(bad, 0.0)

    def test_induced_summand_needs_positive_winding(self):
        with pytest.raises(ValueError):
            TwoDimInduced(ComplexCharacter(0, 1.0))
        with pytest.raises(ValueError):
            TwoDimInduced(ComplexCharacter(-2, 0.0))

    @pytest.mark.parametrize(
        "make, wrong",
        [
            (OneDim, ComplexCharacter(1, 0.0)),
            (OneDim, (0, 0.0)),
            (TwoDimInduced, RealCharacter(0, 0.0)),
            (TwoDimInduced, 1),
        ],
    )
    def test_summand_checks_the_character_it_wraps(self, make, wrong):
        # A OneDim wraps a character of R^*, a TwoDimInduced one of C^*.
        with pytest.raises(TypeError, match="wraps a"):
            make(wrong)


class TestParameters:
    def test_summands_canonicalized(self):
        p = LParameterR(
            (
                OneDim(RealCharacter(1, 0.0)),
                TwoDimInduced(ComplexCharacter(2, 1.0)),
                TwoDimInduced(ComplexCharacter(1, 5.0)),
            )
        )
        assert isinstance(p.summands[0], TwoDimInduced)
        assert p.summands[0].chi.ell == 1
        assert p.n == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LParameterR(())
        with pytest.raises(ValueError):
            LParameterC(())

    @pytest.mark.parametrize(
        "make, summands",
        [
            (LParameterR, (RealCharacter(0, 0.0),)),
            (LParameterR, (OneDim(RealCharacter(0, 0.0)), ComplexCharacter(1, 0.0))),
            (LParameterC, (1,)),
            (LParameterC, (ComplexCharacter(1, 0.0), RealCharacter(0, 0.0))),
            (LParameterC, (TwoDimInduced(ComplexCharacter(1, 0.0)),)),
        ],
    )
    def test_wrong_summand_class_rejected(self, make, summands):
        with pytest.raises(TypeError, match="summand is a"):
            make(summands)

    def test_complex_parameter_sorted(self):
        p = LParameterC((ComplexCharacter(2, 0.0), ComplexCharacter(-1, 3.0)))
        assert [c.ell for c in p.summands] == [-1, 2]
        assert p.n == 2


class TestRestrict:
    def test_sign_character_doubles_twist(self):
        p = LParameterR((OneDim(RealCharacter(1, 2.0)),))
        assert restrict(p).summands == (ComplexCharacter(0, 4.0),)

    def test_doubling_overflow_names_the_input_twist(self):
        near_max = LParameterR((OneDim(RealCharacter(1, -8e307)),))
        assert restrict(near_max).summands == (ComplexCharacter(0, -1.6e308),)
        with pytest.raises(ValueError, match=r"twist -1e\+308 overflows when doubled"):
            restrict(LParameterR((OneDim(RealCharacter(1, -1e308)),)))

    def test_induced_splits_into_conjugate_pair(self):
        p = LParameterR((TwoDimInduced(ComplexCharacter(3, 0.5)),))
        assert restrict(p).summands == (
            ComplexCharacter(-3, 0.5),
            ComplexCharacter(3, 0.5),
        )

    def test_trivial_character(self):
        p = LParameterR((OneDim(RealCharacter(0, 0.0)),))
        assert restrict(p).summands == (ComplexCharacter(0, 0.0),)

    def test_preserves_dimension(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(25):
                p = random_real_parameter(rng, n)
                assert restrict(p).n == p.n == n

    def test_conjugation_symmetric(self):
        rng = random.Random(8)
        for _ in range(50):
            p = random_real_parameter(rng, 5)
            pairs = [(c.ell, c.t) for c in restrict(p).summands]
            assert sorted(pairs) == sorted((-ell, t) for ell, t in pairs)

    def test_shares_inducing_characters(self):
        # Each induced summand's character is passed on, not rebuilt.
        rng = random.Random(14)
        for n in range(1, 7):
            for _ in range(25):
                p = random_real_parameter(rng, n)
                restricted = restrict(p).summands
                for s in p.summands:
                    if type(s) is TwoDimInduced:
                        assert any(c is s.chi for c in restricted)

    def test_matches_induced_representation_oracle(self):
        for ell, t in ((3, 0.5), (1, -2.0), (7, 1.25)):
            p = LParameterR((TwoDimInduced(ComplexCharacter(ell, t)),))
            got = sorted((c.ell, c.t) for c in restrict(p).summands)
            oracle = restricted_labels_by_induction(ell, t)
            assert [g[0] for g in got] == [o[0] for o in oracle]
            for g, o in zip(got, oracle):
                assert abs(g[1] - o[1]) < 1e-9


class TestLanglandsReal:
    def test_single_gl2_block(self):
        p = LParameterR((TwoDimInduced(ComplexCharacter(1, 0.0)),))
        point = langlands_real(p)
        assert point.component.shape == LeviShape(1, 0)
        assert point.component.orbit == SigmaOrbit((1,), ())
        assert point.params == (0.0,)

    def test_two_characters(self):
        p = LParameterR((OneDim(RealCharacter(0, 0.25)), OneDim(RealCharacter(1, -4.0))))
        point = langlands_real(p)
        assert point.component.shape == LeviShape(0, 2)
        assert point.component.orbit == SigmaOrbit((), (0, 1))
        assert point.params == (0.25, -4.0)

    def test_rank_one(self):
        p = LParameterR((OneDim(RealCharacter(1, 3.0)),))
        point = langlands_real(p)
        assert point.component.key == "shape:0,1|gl2:|gl1:1"
        assert point.params == (3.0,)

    def test_round_trip_from_parameters(self):
        rng = random.Random(9)
        for n in range(1, 7):
            for _ in range(50):
                p = random_real_parameter(rng, n)
                assert langlands_real_inverse(langlands_real(p)) == p

    def test_round_trip_from_points(self):
        rng = random.Random(10)
        for _ in range(50):
            c = Component(SigmaOrbit((3, 3), (0,)))
            point = RealTemperedPoint(c, tuple(rng.uniform(-2, 2) for _ in range(3)))
            back = langlands_real(langlands_real_inverse(point))
            assert back == canonicalize_point(point)

    def test_output_is_canonical(self):
        p = LParameterR(
            (
                TwoDimInduced(ComplexCharacter(2, 5.0)),
                TwoDimInduced(ComplexCharacter(2, -1.0)),
            )
        )
        point = langlands_real(p)
        assert point.params == (-1.0, 5.0)
        assert canonicalize_point(point) == point

    def test_output_is_returned_by_canonicalize(self):
        rng = random.Random(15)
        for n in range(1, 7):
            for _ in range(25):
                point = langlands_real(random_real_parameter(rng, n))
                assert canonicalize_point(point) is point


class TestLanglandsComplex:
    def test_repeated_zero_labels(self):
        p = LParameterC((ComplexCharacter(0, 0.6), ComplexCharacter(0, -2.0)))
        point = langlands_complex(p)
        assert point.component.labels == (0, 0)
        assert point.params == (-2.0, 0.6)

    def test_conjugate_pair(self):
        p = LParameterC((ComplexCharacter(3, 1.0), ComplexCharacter(-3, 1.0)))
        point = langlands_complex(p)
        assert point.component.labels == (-3, 3)
        assert point.params == (1.0, 1.0)

    def test_base_point(self):
        p = LParameterC((ComplexCharacter(0, 0.0),))
        point = langlands_complex(p)
        assert point == ComplexTemperedPoint(ComplexComponent((0,)), (0.0,))

    def test_output_is_returned_by_canonicalize(self):
        rng = random.Random(16)
        for n in range(1, 7):
            for _ in range(25):
                point = langlands_complex(restrict(random_real_parameter(rng, n)))
                assert canonicalize_point(point) is point


# Drawn first, before any float: NaN, +-inf, +-0.0, subnormals and +-max.
EDGE_FLOATS = (
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min,
)


def with_edges(test):
    for t in EDGE_FLOATS:
        test = example(t)(test)
    return given(st.floats())(test)


class TestInlineFiniteTest:
    # A twist passes on a type test and t - t == 0.0; this must agree with
    # math.isfinite on every float, and a twist it rejects must meet the
    # helper's own check and message.

    @with_edges
    def test_characters_accept_exactly_the_finite_floats(self, t):
        for make, label in ((RealCharacter, 0), (ComplexCharacter, 1)):
            if isfinite(t):
                assert make(label, t).t is t
            else:
                with pytest.raises(ValueError, match=f"^twist must be finite, got {re.escape(str(t))}$"):
                    make(label, t)

    @with_edges
    def test_points_accept_exactly_the_finite_floats(self, t):
        twists = (t,)
        makers = (
            lambda: RealTemperedPoint(Component(SigmaOrbit((), (1,))), twists),
            lambda: ComplexTemperedPoint(ComplexComponent((0,)), twists),
        )
        for point in makers:
            if isfinite(t):
                p = point()
                assert p.params is twists and p.params[0] is t
            else:
                with pytest.raises(ValueError, match=f"^twists must be finite, got {re.escape(str(twists))}$"):
                    point()

    @with_edges
    def test_doubling_raises_exactly_when_the_double_is_infinite(self, t):
        if isfinite(2.0 * t):
            assert param_space._doubled_twist(t) == 2.0 * t
        else:
            with pytest.raises(ValueError, match=f"^twist {re.escape(repr(t))} overflows when doubled$"):
                param_space._doubled_twist(t)


class TestNoHelperForValidValues:
    def test_point_path_calls_no_twist_or_tuple_helper(self, monkeypatch):
        # Float twists and tuple arguments pass on inline tests; only a value
        # that needs converting or rejecting goes through a helper.
        calls = []
        for module, name in ((weil, "_finite_twist"), (weil, "_unpacked"), (param_space, "_unpacked")):
            helper = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _h=helper, _n=name: calls.append(_n) or _h(*a))
        rng = random.Random(35)
        for n in range(1, 9):
            for _ in range(10):
                parameter = random_real_parameter(rng, n)
                restricted = restrict(parameter)
                point = langlands_real(parameter)
                assert langlands_real_inverse(point) == parameter
                complex_point = langlands_complex(restricted)
                image = bc_point_real(point)
                assert image == complex_point
                reversed_point = RealTemperedPoint(point.component, point.params[::-1])
                for p in (point, complex_point, image, reversed_point):
                    canonicalize_point(p)
        assert calls == []
        # The helpers are still there for a value that is not valid as given.
        RealCharacter(0, 1)
        LParameterC([ComplexCharacter(0, 0.0)])
        RealTemperedPoint(Component(SigmaOrbit((), (0,))), [0.0])
        assert calls == ["_finite_twist", "_unpacked", "_unpacked"]
