import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    Component,
    LeviShape,
    SigmaOrbit,
    enumerate_levi_shapes,
    enumerate_orbits,
    run_multiplicities,
    weyl_group,
)

from oracles import orbits_bruteforce


class TestLeviShape:
    def test_fields_and_n(self):
        shape = LeviShape(2, 1)
        assert (shape.q, shape.r, shape.n) == (2, 1, 5)

    def test_negative_blocks_rejected(self):
        with pytest.raises(ValueError):
            LeviShape(-1, 2)
        with pytest.raises(ValueError):
            LeviShape(0, -3)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            LeviShape(0, 0)


class TestEnumerateLeviShapes:
    def test_small_cases(self):
        assert [(s.q, s.r) for s in enumerate_levi_shapes(5)] == [(2, 1), (1, 3), (0, 5)]
        assert [(s.q, s.r) for s in enumerate_levi_shapes(1)] == [(0, 1)]
        assert [(s.q, s.r) for s in enumerate_levi_shapes(4)] == [(2, 0), (1, 2), (0, 4)]

    def test_count_and_consistency_up_to_64(self):
        for n in range(1, 65):
            shapes = enumerate_levi_shapes(n)
            assert len(shapes) == n // 2 + 1
            assert all(2 * s.q + s.r == n for s in shapes)
            assert [s.q for s in shapes] == sorted({s.q for s in shapes}, reverse=True)

    def test_invalid_n(self):
        for n in (0, -4):
            with pytest.raises(ValueError):
                enumerate_levi_shapes(n)


class TestWeylGroup:
    """Degrees of the S_q x S_r factors; the CLI's rendering is in test_cli."""

    def test_two_factors(self):
        assert weyl_group(LeviShape(3, 2)) == (3, 2)

    def test_trivial(self):
        assert weyl_group(LeviShape(1, 0)) == ()
        assert weyl_group(LeviShape(1, 1)) == ()

    def test_single_factor(self):
        assert weyl_group(LeviShape(0, 3)) == (3,)
        assert weyl_group(LeviShape(2, 0)) == (2,)


class TestSigmaOrbit:
    def test_canonical_sorting(self):
        orbit = SigmaOrbit((3, 1, 2), (1, 0))
        assert orbit.gl2_labels == (1, 2, 3)
        assert orbit.gl1_labels == (0, 1)

    def test_equality_is_multiset_equality(self):
        assert SigmaOrbit((2, 1), (1, 0)) == SigmaOrbit((1, 2), (0, 1))

    def test_gl2_labels_start_at_one(self):
        with pytest.raises(ValueError):
            SigmaOrbit((0,), ())
        with pytest.raises(ValueError):
            SigmaOrbit((-2,), ())

    def test_gl1_labels_are_bits(self):
        with pytest.raises(ValueError):
            SigmaOrbit((), (2,))

    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=5),
        st.lists(st.integers(min_value=0, max_value=1), max_size=5),
        st.randoms(),
    )
    def test_permutation_invariance(self, gl2, gl1, rng):
        if not gl2 and not gl1:
            return
        shuffled2, shuffled1 = list(gl2), list(gl1)
        rng.shuffle(shuffled2)
        rng.shuffle(shuffled1)
        assert SigmaOrbit(tuple(gl2), tuple(gl1)) == SigmaOrbit(tuple(shuffled2), tuple(shuffled1))


def orbit_multiplicities(orbit):
    """Degrees of the S_m factors of the orbit's isotropy in the Weyl group."""
    return run_multiplicities(orbit.gl2_labels, orbit.gl1_labels)


class TestIsotropy:
    def test_one_repeat_in_gl2(self):
        assert orbit_multiplicities(SigmaOrbit((1, 1, 4), (0,))) == (2,)

    def test_distinct_gl1_pair_is_free(self):
        orbit = SigmaOrbit((), (0, 1))
        assert orbit_multiplicities(orbit) == ()
        assert Component(orbit).is_free

    def test_repeated_gl1(self):
        assert orbit_multiplicities(SigmaOrbit((), (0, 0, 1))) == (2,)

    def test_repeats_in_both_blocks(self):
        assert orbit_multiplicities(SigmaOrbit((5, 5), (1, 1, 1))) == (2, 3)

    def test_same_label_across_blocks_does_not_mix(self):
        orbit = SigmaOrbit((1,), (1,))
        assert orbit_multiplicities(orbit) == ()
        assert Component(orbit).is_free

    def test_multiplicities_match_label_counts(self):
        for shape in enumerate_levi_shapes(6):
            for orbit in enumerate_orbits(shape, 3):
                expected = sorted(
                    [count for _label, group in itertools.groupby(orbit.gl2_labels)
                     if (count := len(list(group))) > 1]
                    + [count for _label, group in itertools.groupby(orbit.gl1_labels)
                       if (count := len(list(group))) > 1]
                )
                component = Component(orbit)
                assert sorted(component.multiplicities) == expected
                assert component.is_free == (expected == [])


class TestRunMultiplicities:
    def test_runs_in_block_order(self):
        assert run_multiplicities((1, 1, 2, 3, 3, 3), (0, 1)) == (2, 3)

    def test_equal_labels_across_blocks_never_merge(self):
        assert run_multiplicities((1,), (1,)) == ()
        assert run_multiplicities((0, 1, 1), (1, 1)) == (2, 2)

    def test_empty_blocks(self):
        assert run_multiplicities() == ()
        assert run_multiplicities((), ()) == ()

    @given(st.lists(st.lists(st.integers(-2, 2), max_size=6), max_size=3))
    def test_matches_label_counts(self, blocks):
        blocks = [tuple(sorted(block)) for block in blocks]
        expected = tuple(
            block.count(label)
            for block in blocks
            for label in sorted(set(block))
            if block.count(label) >= 2
        )
        assert run_multiplicities(*blocks) == expected


class TestEnumerateOrbits:
    def test_single_gl2_block(self):
        orbits = enumerate_orbits(LeviShape(1, 0), 3)
        assert [o.gl2_labels for o in orbits] == [(1,), (2,), (3,)]
        assert all(o.gl1_labels == () for o in orbits)

    def test_two_gl1_blocks(self):
        orbits = enumerate_orbits(LeviShape(0, 2), 1)
        assert [o.gl1_labels for o in orbits] == [(0, 0), (0, 1), (1, 1)]

    def test_two_gl2_blocks(self):
        orbits = enumerate_orbits(LeviShape(2, 0), 3)
        assert [o.gl2_labels for o in orbits] == [
            (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
        ]

    def test_count_formula(self):
        for q in range(4):
            for r in range(4):
                if q == 0 and r == 0:
                    continue
                for cutoff in range(1, 4):
                    orbits = enumerate_orbits(LeviShape(q, r), cutoff)
                    assert len(orbits) == comb(cutoff + q - 1, q) * (r + 1)

    def test_matches_bruteforce(self):
        for q in range(4):
            for r in range(4):
                if q == 0 and r == 0:
                    continue
                for cutoff in range(1, 4):
                    got = {
                        (o.gl2_labels, o.gl1_labels)
                        for o in enumerate_orbits(LeviShape(q, r), cutoff)
                    }
                    assert got == set(orbits_bruteforce(q, r, cutoff))

    def test_orbits_are_canonical(self):
        for shape in enumerate_levi_shapes(7):
            for orbit in enumerate_orbits(shape, 3):
                assert orbit == SigmaOrbit(orbit.gl2_labels, orbit.gl1_labels)

    def test_three_gl1_blocks_always_have_isotropy(self):
        for shape in (LeviShape(0, 3), LeviShape(1, 3), LeviShape(0, 5)):
            for orbit in enumerate_orbits(shape, 2):
                assert not Component(orbit).is_free

    def test_no_gl2_block_needs_no_label_pool(self):
        # A pool of 10**15 gl2 labels would never fit in memory.
        orbits = enumerate_orbits(LeviShape(0, 3), 10**15)
        assert [o.gl1_labels for o in orbits] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            enumerate_orbits(LeviShape(1, 0), 0)
