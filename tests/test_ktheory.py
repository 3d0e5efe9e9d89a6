import os
import re
import subprocess
import sys
from math import comb, inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    Component,
    ComplexComponent,
    IndexFamily,
    InducedKMap,
    KClass,
    KGroupPresentation,
    LeviShape,
    SigmaOrbit,
    closed_form_complex,
    closed_form_real,
    complex_components,
    enumerate_levi_shapes,
    enumerate_orbits,
    induced_k_map,
    k_complex,
    k_real,
    kclass,
    kclass_add,
    kclass_scale,
    ktheory,
    param_space,
    real_components,
)

from oracles import (
    combination_add,
    combination_scale,
    complex_components_bruteforce,
    complex_key_bruteforce,
    k_complex_rank_bruteforce,
    k_real_ranks_bruteforce,
    real_components_bruteforce,
    real_key_bruteforce,
)


def accepted_degrees(component):
    """Degrees whose presentation lists the component as a generator: K of
    R^d is Z in degree d mod 2, and a cone contributes nothing.  The
    presentation is that of the component's field and n, at the smallest
    cutoff that covers its labels and offers enough distinct ones."""
    if isinstance(component, Component):
        field, n, labels = "real", component.shape.n, component.orbit.gl2_labels
        cutoff = max(1, n // 2, *labels)
    else:
        field, n, labels = "complex", component.dimension, component.labels
        cutoff = max(1, n // 2, *map(abs, labels))
    return tuple(
        degree
        for degree in (0, 1)
        if component.key in KGroupPresentation(field, n, cutoff, degree).generator_index
    )


def real_component(gl2, gl1):
    return Component(SigmaOrbit(gl2, gl1))


class TestKOfEuclidean:
    def test_point(self):
        # No component is a point; the even-dimensional free ones, from the
        # smallest up, sit in degree 0 as R^0 does.
        assert accepted_degrees(real_component((), (0, 1))) == (0,)
        assert accepted_degrees(real_component((1, 2), (0, 1))) == (0,)

    def test_line(self):
        assert accepted_degrees(ComplexComponent((0,))) == (1,)
        assert accepted_degrees(real_component((3,), ())) == (1,)

    def test_plane(self):
        assert accepted_degrees(ComplexComponent((-2, 5))) == (0,)
        assert accepted_degrees(real_component((1,), (0,))) == (0,)

    def test_parity_table(self):
        for d in range(1, 12):
            free = ComplexComponent(tuple(range(d)))
            assert accepted_degrees(free) == (d % 2,)
        for n in range(1, 7):
            for c in real_components(n, 3):
                if c.is_free:
                    assert accepted_degrees(c) == (c.dimension % 2,)


class TestKOfComponent:
    def test_cone_vanishes(self):
        assert accepted_degrees(ComplexComponent((0, 0))) == ()
        assert accepted_degrees(ComplexComponent((1, 1, 1, 2, 2))) == ()

    def test_free_follows_parity(self):
        assert accepted_degrees(ComplexComponent((-1, 0, 1))) == (1,)
        assert accepted_degrees(ComplexComponent((0, 1))) == (0,)

    def test_vanishes_exactly_on_cones(self):
        for c in real_components(5, 3) + complex_components(3, 2):
            assert (accepted_degrees(c) == ()) == (not c.is_free)


class TestClosedForms:
    def test_even_rank_six(self):
        deg0, deg1 = closed_form_real(6)
        assert deg1 == IndexFamily("nat_subsets", 3)
        assert deg0 == IndexFamily("nat_subsets", 2)
        assert deg1.describe() == "3-subsets of N"

    def test_rank_one(self):
        deg0, deg1 = closed_form_real(1)
        assert deg1 == IndexFamily("rank", 2)
        assert deg0 == IndexFamily("rank", 0)

    def test_rank_two(self):
        deg0, deg1 = closed_form_real(2)
        assert deg1 == IndexFamily("nat_subsets", 1)
        assert deg0 == IndexFamily("rank", 1)

    def test_odd_rank_five(self):
        deg0, deg1 = closed_form_real(5)
        assert deg1 == IndexFamily("nat_subsets_x_z2", 2)
        assert deg0 == IndexFamily("rank", 0)
        assert deg1.describe() == "2-subsets of N x Z/2"

    def test_complex_families(self):
        deg0, deg1 = closed_form_complex(4)
        assert deg0 == IndexFamily("int_subsets", 4)
        assert deg1 == IndexFamily("rank", 0)
        deg0, deg1 = closed_form_complex(3)
        assert deg0 == IndexFamily("rank", 0)
        assert deg1 == IndexFamily("int_subsets", 3)
        assert deg1.describe() == "3-subsets of Z"

    def test_family_size_has_no_default(self):
        with pytest.raises(TypeError):
            IndexFamily("rank")

    def test_rank_at_cutoff(self):
        assert IndexFamily("rank", 2).rank_at(7) == 2
        assert IndexFamily("nat_subsets", 2).rank_at(5) == comb(5, 2)
        assert IndexFamily("nat_subsets_x_z2", 1).rank_at(4) == 8
        assert IndexFamily("int_subsets", 3).rank_at(1) == comb(3, 3)

    # An unhashable kind is unknown too, not a TypeError from the lookup.
    def test_unknown_kind_rejected(self):
        for kind in ("lists", []):
            message = re.escape(f"unknown family kind: {kind!r}")
            with pytest.raises(ValueError, match=f"^{message}$") as caught:
                IndexFamily(kind, 2)
            assert caught.value.__context__ is None

    def test_bounded_read_is_exact_below_its_bound(self):
        for n in range(1, 41):
            for family in closed_form_real(n) + closed_form_complex(n):
                for cutoff in range(13):
                    assert family._bounded_rank_at(cutoff) == family.rank_at(cutoff), (n, cutoff)

    def test_bounded_read_is_infinite_past_its_bound(self):
        # Both degrees are q-subsets (or (q - 1)-subsets) of 2 * 10^9 labels,
        # q = 5 * 10^8: far past C(128, 64), and never computed.
        for family in closed_form_real(10**9):
            assert family._bounded_rank_at(2 * 10**9) == inf

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            closed_form_real(0)
        with pytest.raises(ValueError):
            closed_form_complex(0)


class TestKReal:
    def test_rank_one_pair(self):
        k0, k1 = k_real(1, 4)
        assert (k0.rank, k1.rank) == (0, 2)

    def test_rank_three_at_cutoff_four(self):
        k0, k1 = k_real(3, 4)
        assert (k0.rank, k1.rank) == (8, 0)
        assert k0.generator_keys[0] == "shape:1,1|gl2:1|gl1:0"

    def test_rank_four_at_cutoff_five(self):
        k0, k1 = k_real(4, 5)
        assert (k0.rank, k1.rank) == (10, 5)

    def test_generators_free_with_matching_parity(self):
        for n in range(1, 7):
            k0, k1 = k_real(n, 4)
            for presentation in (k0, k1):
                for c in presentation.generators:
                    assert c.is_free
                    assert c.dimension % 2 == presentation.degree

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cannot host 3 distinct gl2 labels"):
            k_real(6, 2)
        with pytest.raises(ValueError):
            k_real(1, 0)

    def test_matches_bruteforce_and_closed_form(self):
        for n in range(1, 11):
            q = n // 2
            for cutoff in range(max(1, q), 9):
                k0, k1 = k_real(n, cutoff)
                assert (k0.rank, k1.rank) == k_real_ranks_bruteforce(n, cutoff)
                assert k0.rank == k0.closed_form.rank_at(cutoff)
                assert k1.rank == k1.closed_form.rank_at(cutoff)

    def test_parity_split(self):
        for n in range(1, 11):
            k0, k1 = k_real(n, 5)
            if n % 2 == 1:
                assert k0.rank == 0 or k1.rank == 0
            elif n >= 4:
                assert k0.rank > 0 and k1.rank > 0

    def test_monotone_truncation(self):
        for n in range(1, 7):
            for cutoff in range(max(1, n // 2), 6):
                smaller = k_real(n, cutoff)
                larger = k_real(n, cutoff + 1)
                for a, b in zip(smaller, larger):
                    assert set(a.generator_keys) <= set(b.generator_keys)
                    assert a.rank <= b.rank


class TestKComplex:
    def test_pairs_at_cutoff_one(self):
        k0, k1 = k_complex(2, 1)
        assert (k0.rank, k1.rank) == (3, 0)

    def test_singletons_at_cutoff_two(self):
        k0, k1 = k_complex(1, 2)
        assert (k0.rank, k1.rank) == (0, 5)

    def test_triples_at_cutoff_one(self):
        k0, k1 = k_complex(3, 1)
        assert (k0.rank, k1.rank) == (0, 1)
        assert k1.generator_keys == ("labels:-1,0,1",)

    def test_single_live_degree(self):
        for n in range(1, 7):
            cutoff = max(1, (n + 1) // 2)
            k0, k1 = k_complex(n, cutoff)
            live = k1 if n % 2 else k0
            dead = k0 if n % 2 else k1
            assert dead.rank == 0
            assert live.rank == comb(2 * cutoff + 1, n)
            assert live.rank == k_complex_rank_bruteforce(n, cutoff)

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="offers only 3 labels for 4 distinct ones"):
            k_complex(4, 1)

    def test_cutoff_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^cutoff must be >= 1, got 0$"):
            k_complex(1, 0)


class TestFreeEnumeration:
    """Generators against the free rows of the brute-force catalogs, in order,
    and the work done to build them."""

    def test_real_generators_are_the_free_catalog_rows(self):
        for n in range(1, 9):
            for cutoff in range(max(1, n // 2), 6):
                rows = [row for row in real_components_bruteforce(n, cutoff) if row[5]]
                for presentation in k_real(n, cutoff):
                    generators = presentation.generators
                    got = [
                        (c.shape.q, c.shape.r, c.orbit.gl2_labels, c.orbit.gl1_labels)
                        for c in generators
                    ]
                    want = [row[:4] for row in rows if row[4] % 2 == presentation.degree]
                    assert got == want, (n, cutoff, presentation.degree)
                    keys = tuple(c.key for c in generators)
                    assert keys == presentation.generator_keys, (n, cutoff, presentation.degree)

    def test_complex_generators_are_the_free_catalog_rows(self):
        for n in range(1, 9):
            for cutoff in range(max(1, n // 2), 6):
                rows = [labels for labels, free in complex_components_bruteforce(n, cutoff) if free]
                for presentation in k_complex(n, cutoff):
                    generators = presentation.generators
                    got = [c.labels for c in generators]
                    want = rows if n % 2 == presentation.degree else []
                    assert got == want, (n, cutoff, presentation.degree)
                    keys = tuple(c.key for c in generators)
                    assert keys == presentation.generator_keys, (n, cutoff, presentation.degree)

    def test_complex_builds_only_generators(self, monkeypatch):
        built = count_constructions(monkeypatch, ComplexComponent)
        k0, k1 = k_complex(8, 8)
        kmap = induced_k_map(10, 10)
        assert k0.rank == comb(17, 8) == 24310
        assert kmap.source.rank == comb(21, 10) and kmap.is_zero
        assert built[0] == 0
        generators = k0.generators
        assert len(generators) == k0.rank and built[0] == 24310
        # Nothing is kept: a second read builds them again.
        again = k0.generators
        assert again == generators and again is not generators and built[0] == 2 * 24310
        assert k1.generators == () and built[0] == 2 * 24310

    def test_construction_lists_nothing(self, monkeypatch):
        built = [count_constructions(monkeypatch, cls) for cls in (Component, ComplexComponent)]
        listed = count_listed_keys(monkeypatch)
        k0, k1 = k_complex(8, 8)
        kmap = induced_k_map(16, 16)
        assert kmap.is_zero and kmap.support == ()
        assert kmap.source.rank == comb(33, 16) and kmap.target.rank == comb(16, 8)
        assert [count[0] for count in built] == [0, 0] and listed[0] == 0

    def test_first_key_read_lists_once(self, monkeypatch):
        listed = [0]
        complex_key = ktheory._complex_key

        def counting(labels):
            listed[0] += 1
            return complex_key(labels)

        monkeypatch.setattr(ktheory, "_complex_key", counting)
        p = k_complex(8, 8)[0]
        assert listed[0] == 0
        assert p.generator_keys[0] == "labels:-8,-7,-6,-5,-4,-3,-2,-1"
        assert listed[0] == 24310
        assert len(p.generator_index) == len(p.generator_keys) == 24310
        assert listed[0] == 24310

    def test_real_builds_only_generators(self, monkeypatch):
        built = count_constructions(monkeypatch, Component)
        k0, k1 = k_real(10, 5)
        assert built[0] == 0
        first = k0.generators, k1.generators
        assert len(first[0]) + len(first[1]) == comb(5, 5) + comb(5, 4)
        assert built[0] == k0.rank + k1.rank
        # Nothing is kept: a second read builds them again.
        again = k0.generators, k1.generators
        assert again == first and again[0] is not first[0] and again[1] is not first[1]
        assert built[0] == 2 * (k0.rank + k1.rank)

    def test_keys_are_the_bruteforce_free_rows(self):
        # Keys are listed before any component exists; the oracle formats
        # its own rows.
        for n in range(1, 9):
            for cutoff in range(max(1, n // 2), 7):
                rows = [row for row in real_components_bruteforce(n, cutoff) if row[5]]
                for p in k_real(n, cutoff):
                    want = [real_key_bruteforce(*row[:4]) for row in rows if row[4] % 2 == p.degree]
                    assert list(p.generator_keys) == want, (n, cutoff, p.degree)
                rows = [labels for labels, free in complex_components_bruteforce(n, cutoff) if free]
                want = list(map(complex_key_bruteforce, rows))
                for p in k_complex(n, cutoff):
                    expected = want if n % 2 == p.degree else []
                    assert list(p.generator_keys) == expected, (n, cutoff, p.degree)


def count_constructions(monkeypatch, cls):
    """One-cell counter of the instances of a value class built from now on."""
    built = [0]
    init = cls.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def count_listed_keys(monkeypatch):
    """One-cell counter of the generator keys presentations list from now on."""
    listed = [0]

    def counting(key):
        def listing(*labels):
            listed[0] += 1
            return key(*labels)

        return listing

    for name in ("_complex_key", "_real_key"):
        monkeypatch.setattr(ktheory, name, counting(getattr(ktheory, name)))
    return listed


class TestPresentationValidation:
    """A presentation is defined by (field, n, cutoff, degree): construction
    checks those, and the first read of ``generator_index`` checks the keys
    it lists against the closed-form rank."""

    def test_bad_degree_rejected(self):
        for degree in (2, -1):
            with pytest.raises(ValueError, match=f"^degree must be 0 or 1, got {degree}$"):
                KGroupPresentation("complex", 2, 1, degree)
        for degree in (True, 0.0, "0"):
            with pytest.raises(TypeError, match="^degree must be an integer"):
                KGroupPresentation("complex", 2, 1, degree)

    @pytest.mark.parametrize("field", ["R", "Real", "", None])
    def test_bad_field_rejected(self, field):
        with pytest.raises(ValueError, match="^field must be 'real' or 'complex', got "):
            KGroupPresentation(field, 2, 1, 0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bad_n_and_cutoff_rejected(self, field):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            KGroupPresentation(field, 0, 0, 0)
        with pytest.raises(ValueError, match="^cutoff must be >= 1, got 0$"):
            KGroupPresentation(field, 9, 0, 0)
        for n, cutoff in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
            with pytest.raises(TypeError, match="must be an integer"):
                KGroupPresentation(field, n, cutoff, 0)

    def test_label_count_rejected(self):
        with pytest.raises(ValueError, match="^cutoff 2 cannot host 3 distinct gl2 labels"):
            KGroupPresentation("real", 6, 2, 1)
        with pytest.raises(ValueError, match="^cutoff 1 offers only 3 labels for 4 distinct ones"):
            KGroupPresentation("complex", 4, 1, 0)

    # One presentation of each field with generators: K_0 of GL(3, R) and of
    # GL(2, C) at cutoff 2.
    FILLED = (("real", 3, 2, 0), ("complex", 2, 2, 0))

    def test_duplicate_generator_rejected(self, monkeypatch):
        # Construction lists nothing, so the first read of the index raises.
        monkeypatch.setattr(ktheory, "_complex_key", lambda labels: "labels:x")
        p = KGroupPresentation("complex", 2, 1, 0)
        with pytest.raises(RuntimeError, match="duplicate generator key"):
            p.generator_index

    def test_listing_must_match_the_closed_form(self, monkeypatch):
        presentations = [KGroupPresentation(*fields) for fields in self.FILLED]
        # Subsets one label short: a listing of the wrong length, without duplicates.
        combinations = ktheory.combinations
        monkeypatch.setattr(ktheory, "combinations", lambda pool, k: combinations(pool, k - 1))
        for p in presentations:
            with pytest.raises(RuntimeError, match=f"^listed .* keys for a closed-form rank of {p.rank}$"):
                p.generator_index

    def test_generators_stay_out_of_equality_and_hash(self, monkeypatch):
        listed = count_listed_keys(monkeypatch)
        p, p_again = KGroupPresentation("real", 4, 3, 1), KGroupPresentation("real", 4, 3, 1)
        assert p.generators and len(p.generator_index) == listed[0] > 0
        assert p == p_again and hash(p) == hash(p_again)
        # Comparing and hashing listed none of p_again's keys.
        assert listed[0] == len(p.generator_index)


class TestPresentationIdentity:
    """Presentations of different (field, n, cutoff) never compare equal,
    even when both are empty with a rank-0 closed form, so no class
    arithmetic mixes them."""

    PAIRS = [
        (k_complex(2, 2)[1], k_complex(4, 3)[1]),
        (k_complex(2, 2)[1], k_complex(2, 3)[1]),
        (k_real(1, 1)[0], k_complex(1, 1)[0]),
        (k_real(1, 1)[0], k_real(1, 2)[0]),
        (k_real(3, 3)[1], k_real(7, 3)[1]),
    ]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_never_equal(self, a, b):
        assert a.rank == b.rank == 0 and a.closed_form == b.closed_form
        assert a != b
        with pytest.raises(ValueError, match="different presentations"):
            kclass_add(kclass(a), kclass(b))

    def test_distinct_across_a_grid(self):
        built = {}
        for field, k in (("real", k_real), ("complex", k_complex)):
            for n in range(1, 6):
                for cutoff in range(max(1, n // 2), 4):
                    for p in k(n, cutoff):
                        built.setdefault(p, []).append((field, n, cutoff, p.degree))
        assert all(len(where) == 1 for where in built.values())


class TestKClasses:
    def setup_method(self):
        self.k0, self.k1 = k_complex(2, 1)
        self.g1, self.g2, self.g3 = self.k0.generator_keys

    def test_inverse_cancels(self):
        a = kclass(self.k0, {self.g1: 1})
        b = kclass_scale(a, -1)
        assert kclass_add(a, b).is_zero

    def test_sum_of_distinct_generators(self):
        total = kclass_add(kclass(self.k0, {self.g1: 1}), kclass(self.k0, {self.g2: 1}))
        assert total.coefficients == {self.g1: 1, self.g2: 1}

    def test_scaling(self):
        assert kclass_scale(kclass(self.k0, {self.g1: 3}), 2).coefficients == {self.g1: 6}

    def test_zero_pruning(self):
        assert kclass(self.k0, {self.g1: 0}).is_zero
        assert kclass_scale(kclass(self.k0, {self.g1: 5}), 0).is_zero

    def test_mixed_presentations_rejected(self):
        with pytest.raises(ValueError):
            kclass_add(kclass(self.k0, {self.g1: 1}), kclass(self.k1))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            kclass(self.k0, {"labels:7,8": 1})

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(TypeError):
            kclass(self.k0, {self.g1: 0.5})

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_coefficient_rejected(self, flag):
        with pytest.raises(TypeError):
            kclass(self.k0, {self.g1: flag})

    def test_bool_scalar_rejected(self):
        with pytest.raises(TypeError):
            kclass_scale(kclass(self.k0, {self.g1: 2}), True)

    def test_default_coefficients_immutable(self):
        assert kclass(self.k0).is_zero
        with pytest.raises(TypeError):
            kclass.__defaults__[0][self.g1] = 1

    # A class reads membership from each key, so a zero class, such as an
    # induced map's zero image, lists no key.
    def test_zero_class_lists_no_key(self, monkeypatch):
        listed = count_listed_keys(monkeypatch)
        p = k_complex(8, 8)[0]
        assert kclass(p).is_zero and KClass(p, ()).is_zero
        assert kclass(p, {"labels:-8,-7,-6,-5,-4,-3,-2,-1": 0}).is_zero
        # A one-term class reads its key and lists none either.
        assert not kclass(p, {"labels:-8,-7,-6,-5,-4,-3,-2,-1": 1}).is_zero
        assert listed[0] == 0
        # Control: the counter sees the index when it is listed.
        assert len(p.generator_index) == p.rank and listed[0] == p.rank

    def test_repeated_generator_rejected(self):
        with pytest.raises(ValueError):
            KClass(self.k0, ((self.g1, 1), (self.g1, 2)))

    # Terms sort by key alone, so two coefficients of one key are never
    # compared: each term is checked in turn, and the first fault met is named.
    def test_repeat_of_an_int_term_is_named(self):
        with pytest.raises(ValueError, match="repeated in class"):
            KClass(self.k0, ((self.g1, 1), (self.g1, "x")))

    @pytest.mark.parametrize("first, second", [(2.5, "x"), ("x", 1)])
    def test_first_non_integer_term_of_a_repeat_is_named(self, first, second):
        with pytest.raises(TypeError, match=re.escape(f"integers, got {first!r}")):
            KClass(self.k0, ((self.g1, first), (self.g1, second)))

    # A key that is not a string cannot be sorted against the generator
    # keys; it is still named as a stranger, whatever the order of the terms.
    @pytest.mark.parametrize("stray", [1, None, 2.5])
    def test_key_of_another_type_is_named(self, stray):
        message = re.escape(f"generator {stray!r} does not belong to this presentation")
        for terms in (((stray, 1), (self.g1, 1)), ((self.g1, 1), (stray, 1))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                KClass(self.k0, terms)
        with pytest.raises(ValueError, match=f"^{message}$"):
            kclass(self.k0, {self.g2: 3, stray: 1, self.g1: 2})

    # An unhashable key cannot be looked up in the index at all; it is named
    # the same way, alone, next to a generator key or next to its like.
    @pytest.mark.parametrize("stray", [[1], {"labels:0"}, {}, ([1],)])
    def test_unhashable_key_is_named(self, stray):
        message = re.escape(f"generator {stray!r} does not belong to this presentation")
        for terms in (
            ((stray, 1),),
            ((stray, 1), (self.g1, 1)),
            ((self.g1, 1), (stray, 1)),
            ((stray, 1), (stray, 2)),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                KClass(self.k0, terms)

    def test_terms_sort_by_key(self):
        c = KClass(self.k0, ((self.g3, -1), (self.g1, 2), (self.g2, 1)))
        assert c.items == ((self.g1, 2), (self.g2, 1), (self.g3, -1))


# Each call passes a bool where an int count, cutoff or label is meant.
BOOL_INPUTS = {
    "k_real-n": lambda: k_real(True, 1),
    "k_real-cutoff": lambda: k_real(1, True),
    "k_complex-n": lambda: k_complex(True, 1),
    "k_complex-cutoff": lambda: k_complex(1, True),
    "real_components-n": lambda: real_components(True, 1),
    "real_components-cutoff": lambda: real_components(1, True),
    "complex_components-n": lambda: complex_components(True, 1),
    "complex_components-cutoff": lambda: complex_components(1, True),
    "enumerate_levi_shapes": lambda: enumerate_levi_shapes(True),
    "enumerate_orbits": lambda: enumerate_orbits(LeviShape(1, 0), True),
    "closed_form_real": lambda: closed_form_real(True),
    "closed_form_complex": lambda: closed_form_complex(True),
    "LeviShape-q": lambda: LeviShape(True, 0),
    "LeviShape-r": lambda: LeviShape(0, True),
    "SigmaOrbit-gl2": lambda: SigmaOrbit((True,), ()),
    "SigmaOrbit-gl1": lambda: SigmaOrbit((), (True,)),
    "ComplexComponent": lambda: ComplexComponent((True, 0)),
    "IndexFamily-size": lambda: IndexFamily("rank", True),
    "KGroupPresentation-degree": lambda: KGroupPresentation("complex", 1, 1, True),
    "rank_at-cutoff": lambda: closed_form_real(4)[0].rank_at(True),
}

# Every entry point that takes n, called with a valid cutoff where it takes one.
N_INPUTS = {
    "enumerate_levi_shapes": enumerate_levi_shapes,
    "closed_form_real": closed_form_real,
    "closed_form_complex": closed_form_complex,
    "real_components": lambda n: real_components(n, 2),
    "complex_components": lambda n: complex_components(n, 2),
    "k_real": lambda n: k_real(n, 2),
    "k_complex": lambda n: k_complex(n, 2),
    "induced_k_map": lambda n: induced_k_map(n, 2),
}

# Every entry point that takes a cutoff, at n = 1, where any cutoff >= 1 is
# valid, and the real catalog at n = 3, whose shapes draw gl2 labels.
CUTOFF_INPUTS = {
    "enumerate_orbits": lambda cutoff: enumerate_orbits(LeviShape(0, 1), cutoff),
    "real_components": lambda cutoff: real_components(1, cutoff),
    "real_components-gl2": lambda cutoff: real_components(3, cutoff),
    "complex_components": lambda cutoff: complex_components(1, cutoff),
    "k_real": lambda cutoff: k_real(1, cutoff),
    "k_complex": lambda cutoff: k_complex(1, cutoff),
    "induced_k_map": lambda cutoff: induced_k_map(1, cutoff),
}


class TestCatalogInputTypes:
    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("call", list(N_INPUTS.values()), ids=list(N_INPUTS))
    def test_n_below_one_rejected(self, call, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            call(n)

    @pytest.mark.parametrize("cutoff", [0, -1])
    @pytest.mark.parametrize("call", list(CUTOFF_INPUTS.values()), ids=list(CUTOFF_INPUTS))
    def test_cutoff_below_one_rejected(self, call, cutoff):
        # k_real and k_complex check the cutoff before they count its labels.
        with pytest.raises(ValueError, match=f"^cutoff must be >= 1, got {cutoff}$"):
            call(cutoff)

    def test_negative_family_size_rejected(self):
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            IndexFamily("rank", -1)

    @pytest.mark.parametrize("call", list(BOOL_INPUTS.values()), ids=list(BOOL_INPUTS))
    def test_bool_rejected(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("n", [1.0, "a", None], ids=["float", "str", "None"])
    @pytest.mark.parametrize("call", list(N_INPUTS.values()), ids=list(N_INPUTS))
    def test_n_of_another_type_is_named(self, call, n):
        # n is checked before any arithmetic on it, such as its parity.
        with pytest.raises(TypeError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            call(n)

    def test_float_label_rejected(self):
        with pytest.raises(TypeError):
            SigmaOrbit((1.0,), ())
        with pytest.raises(TypeError):
            ComplexComponent((1.5, 0))
        with pytest.raises(TypeError):
            IndexFamily("rank", 1.0)
        with pytest.raises(TypeError):
            KGroupPresentation("complex", 1, 1, 0.0)

    @pytest.mark.parametrize("kind", ["rank", "nat_subsets", "nat_subsets_x_z2", "int_subsets"])
    def test_rank_at_checks_the_cutoff(self, kind):
        family = IndexFamily(kind, 2)
        for cutoff in (2.0, "2", None):
            with pytest.raises(TypeError, match="cutoff must be an integer"):
                family.rank_at(cutoff)
        for cutoff in (-1, -5):
            with pytest.raises(ValueError, match="cutoff must be >= 0"):
                family.rank_at(cutoff)
        assert family.rank_at(0) == (2 if kind == "rank" else 0)

    def test_label_ranges_still_checked(self):
        with pytest.raises(ValueError):
            SigmaOrbit((0, 2), ())
        with pytest.raises(ValueError):
            SigmaOrbit((), (0, 2))
        with pytest.raises(ValueError):
            SigmaOrbit((), (-1, 0))


class TestIndexOnce:
    def test_keys_computed_once(self, monkeypatch):
        listed = count_listed_keys(monkeypatch)
        p = k_real(4, 3)[1]
        assert p.generator_index is p.generator_index
        assert p.generator_keys == p.generator_keys == tuple(c.key for c in p.generators)
        assert listed[0] == p.rank > 0
        assert p.generator_index == {key: i for i, key in enumerate(p.generator_keys)}

    def test_rank_keys_and_index_agree(self):
        for n in range(1, 9):
            for cutoff in range(max(1, n // 2), 7):
                for field in ("real", "complex"):
                    for degree in (0, 1):
                        p = KGroupPresentation(field, n, cutoff, degree)
                        keys, index = p.generator_keys, p.generator_index
                        assert p.rank == len(keys) == len(index) == p.closed_form.rank_at(cutoff)
                        assert all(index[key] == i for i, key in enumerate(keys))

    def test_index_fields_stay_out_of_equality_and_repr(self):
        p = k_complex(2, 1)[0]
        assert "generator_keys" not in repr(p)
        assert hash(p) == hash(k_complex(2, 1)[0])

    def test_equal_presentations_built_separately_interoperate(self):
        p, p_again = k_complex(2, 3)[0], k_complex(2, 3)[0]
        assert p is not p_again and p == p_again
        g = p.generator_keys[0]
        total = kclass_add(kclass(p, {g: 1}), kclass(p_again, {g: 2}))
        assert total.coefficients == {g: 3}

    def test_degrees_built_separately_do_not_mix(self):
        k0 = k_complex(2, 3)[0]
        k1 = k_complex(2, 3)[1]
        with pytest.raises(ValueError):
            kclass_add(kclass(k0, {k0.generator_keys[0]: 1}), kclass(k1))


def grid_presentations():
    """Every presentation with n <= 7 and cutoff <= 5, of both fields and degrees."""
    for field in ("real", "complex"):
        for n in range(1, 8):
            # Over R the cutoff hosts n // 2 gl2 labels, over C 2 * cutoff + 1 >= n.
            for cutoff in range(max(1, n // 2), 6):
                for degree in (0, 1):
                    yield KGroupPresentation(field, n, cutoff, degree)


# A generator key of each field with a two-digit label and, for each, keys
# that are not: written otherwise than canonically (each would parse to the
# generator's labels), unsorted, repeated, out of range, of another count or
# degree, under a wrong head, or not a string at all.
COMPLEX_MEMBER = (k_complex(2, 12)[0], "labels:-1,10")
REAL_MEMBER = (k_real(3, 12)[0], "shape:1,1|gl2:10|gl1:0")
STRANGERS = {
    "complex": [
        "labels:+1,10", "labels:-1,+10", "labels:-1,010", "labels:-0,10", "labels:-1,1_0",
        "labels: -1,10", "labels:-1,10 ", "labels:-1,\u0661\u0660", "labels:-1,10,",
        "labels:,-1,10", "labels:10,-1", "labels:10,10", "labels:-1,13", "labels:-13,10",
        "labels:-1", "labels:-2,-1,10", "Labels:-1,10", "labels -1,10", "shape:1,1|gl2:10|gl1:0",
    ],
    "real": [
        "shape:1,1|gl2:+10|gl1:0", "shape:1,1|gl2:010|gl1:0", "shape:1,1|gl2:1_0|gl1:0",
        "shape:1,1|gl2:10|gl1:-0", "shape:1,1|gl2: 10|gl1:0", "shape:1,1|gl2:10|gl1:0,",
        "shape:1,1|gl2:\u0661\u0660|gl1:0", "shape:1,1|gl2:13|gl1:0", "shape:1,1|gl2:0|gl1:0",
        "shape:1,1|gl2:10|gl1:2", "shape:0,3|gl2:|gl1:0,1,1", "shape:0,3|gl2:|gl1:1,0,1",
        "shape:1,2|gl2:10|gl1:0", "shape:01,1|gl2:10|gl1:0", "shape:1,1|gl3:10|gl1:0",
        "shape:1,1|gl1:0|gl2:10", "shape:1,1|gl2:10|gl1:0|", "shape:1,1|gl2:10", "labels:-1,10",
    ],
}
NOT_STRINGS = [
    10, None, 2.5, b"labels:-1,10", ("labels:-1,10",), ["labels:-1,10"], {"labels:-1,10"},
]


class TestMembershipFromTheKey:
    """``_is_generator`` and ``_are_generators`` read membership from the
    keys alone, and agree with the listing that ``generator_index`` still
    makes."""

    def test_membership_equals_the_listing_on_a_grid(self):
        listed = {p: set(p.generator_keys) for p in grid_presentations()}
        # Every key any presentation on the grid lists, and cones of both fields.
        pool = set().union(*listed.values())
        pool.update(c.key for n in range(1, 5) for c in real_components(n, 3))
        pool.update(c.key for n in range(1, 4) for c in complex_components(n, 2))
        for p, keys in listed.items():
            fresh = KGroupPresentation(p.field, p.n, p.cutoff, p.degree)
            accepted = {key for key in pool if ktheory._is_generator(fresh, key)}
            assert accepted == keys, p
            # Read again, the keys accepted come from the presentation's members.
            assert fresh._members == keys
            assert {key for key in pool if ktheory._are_generators(fresh, [key])} == keys
            # Read all at once, the listed keys are accepted together, and
            # any other key of the pool among them refuses the lot.
            for stranger in sorted(pool - keys)[:4]:
                fresh = KGroupPresentation(p.field, p.n, p.cutoff, p.degree)
                assert not ktheory._are_generators(fresh, [*keys, stranger])
                assert fresh._members == frozenset()
            assert ktheory._are_generators(fresh, sorted(keys))
            assert fresh._members == keys

    @pytest.mark.parametrize("p", [k_complex(4, 3)[0], k_real(6, 4)[0]], ids=["complex", "real"])
    def test_a_class_of_every_generator_reads_its_keys_together(self, p, monkeypatch):
        keys = p.generator_keys
        fresh = KGroupPresentation(p.field, p.n, p.cutoff, p.degree)
        reads = []
        read = ktheory._are_free_keys
        monkeypatch.setattr(ktheory, "_are_free_keys", lambda *args: reads.append(args[4]) or read(*args))
        whole = kclass(fresh, dict.fromkeys(reversed(keys), 3))
        assert whole.items == tuple((key, 3) for key in sorted(keys))
        assert fresh._members == set(keys)
        # One read of every key, and none once they are members.
        assert reads == [sorted(keys)]
        kclass_add(whole, kclass(fresh, {keys[0]: 1}))
        assert len(reads) == 1
        # One stranger among them is named, whichever keys are read first.
        for stranger in STRANGERS[p.field][:3] + NOT_STRINGS[:2]:
            fresh = KGroupPresentation(p.field, p.n, p.cutoff, p.degree)
            message = re.escape(f"generator {stranger!r} does not belong to this presentation")
            with pytest.raises(ValueError, match=f"^{message}$"):
                KClass(fresh, tuple((key, 1) for key in (*keys, stranger)))

    @pytest.mark.parametrize("p, member", [COMPLEX_MEMBER, REAL_MEMBER], ids=["complex", "real"])
    def test_strangers_are_named(self, p, member):
        kmap = InducedKMap(p, p, ())
        assert kclass(p, {member: 2}).coefficients == {member: 2}
        assert kmap.image_of(member).is_zero
        for key in STRANGERS[p.field] + NOT_STRINGS:
            message = re.escape(f"generator {key!r} does not belong to this presentation")
            for terms in (((key, 1),), ((member, 1), (key, 1))):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    KClass(p, terms)
            message = re.escape(f"assignment for {key!r}, which is not a source generator")
            with pytest.raises(ValueError, match=f"^{message}$"):
                InducedKMap(p, p, ((key, kclass(p)),))
            message = re.escape(f"{key!r} is not a source generator")
            with pytest.raises(ValueError, match=f"^{message}$"):
                kmap.image_of(key)
        assert p._members == {member}

    def test_presentations_share_no_members_until_one_is_accepted(self):
        p, q = k_complex(2, 12)
        assert p._members is q._members == frozenset()
        kclass(p, {"labels:-1,10": 1})
        assert p._members == {"labels:-1,10"} and q._members == frozenset()

    def test_construction_builds_no_closed_form(self, monkeypatch):
        built = count_constructions(monkeypatch, IndexFamily)
        presentations = [*k_real(4, 3), *k_complex(3, 2), *k_real(5, 2), *k_complex(2, 1)]
        assert built[0] == 0
        for p in presentations:
            forms = closed_form_real if p.field == "real" else closed_form_complex
            assert p.closed_form == forms(p.n)[p.degree]
            assert p.rank == forms(p.n)[p.degree].rank_at(p.cutoff)

    # Each key below is as wide as the widest free key of its presentation's
    # catalog: its labels written widest.
    @pytest.mark.parametrize(
        "fields, key",
        [(("complex", 2, 12, 0), "labels:-12,-11"), (("real", 3, 12, 0), "shape:1,1|gl2:12|gl1:0")],
        ids=["complex", "real"],
    )
    def test_key_wider_than_the_widest_is_refused_before_it_is_split(self, fields, key, monkeypatch):
        write = param_space._real_key if fields[0] == "real" else param_space._complex_key
        widest = param_space._widest_blocks(*fields[:3], free=True)
        assert len(key) == max(len(write(*blocks)) for blocks in widest)
        read, rows_read = [], param_space._rows_read
        monkeypatch.setattr(
            param_space, "_rows_read", lambda keys, row: read.extend(keys) or rows_read(keys, row)
        )
        assert ktheory._are_generators(KGroupPresentation(*fields), [key]) and read == [key]
        assert not ktheory._are_generators(KGroupPresentation(*fields), [key + "0"])
        assert read == [key]

    # Two keys, neither a generator, that split into as many pieces as two
    # generator keys do: one short of its labels and one over, one with a
    # head too many and one with none, or one with a block mark too many.
    # In the second and the last, every column holds what a row of
    # generator keys would, read off the joined keys: only the keys' heads
    # tell in the one, and the columns of fixed pieces in the other.
    @pytest.mark.parametrize(
        "fields, keys",
        [
            (("complex", 2, 12, 0), ["labels:", "labels:-1,10,11"]),
            (("complex", 2, 10**6, 0), ["labels:1,2,labels:3", "4"]),
            (("complex", 2, 12, 0), ["labels:-1", "labels:10,11,12"]),
            (("real", 3, 12, 0), ["shape:1,1|gl2:10", "shape:1,1|gl2:10|gl1:0|gl1:0"]),
            (("real", 3, 12, 0), ["shape:1,1|gl2:10|gl1:0,1", "shape:1,1|gl2:10,0"]),
            (("real", 3, 12, 0), ["shape:1,1|gl2:7", "shape:1,1|gl2:,,9,,0"]),
        ],
    )
    def test_each_key_is_read_as_one_row(self, fields, keys):
        row_pieces = {"complex": 4, "real": 6}[fields[0]]
        text = ",".join(keys)
        for mark in param_space._MARKS:
            text = text.replace(mark, f",{mark},")
        assert len(text.split(",")) == row_pieces * len(keys)
        for batch in (keys, keys[::-1], keys[:1], keys[1:]):
            assert not ktheory._are_generators(KGroupPresentation(*fields), batch)


# Memory the membership rule may use: an interpreter with temperedk imported
# fits well within it, a listing of the presentation's index does not.
_BOUNDED_PROBE = """
import resource
limit = 256 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
from temperedk import induced_k_map, k_complex, kclass
image = induced_k_map(1, 10**12).image_of("labels:0")
key = "labels:" + ",".join(map(str, range(-12, 0)))
one = kclass(k_complex(12, 12)[0], {key: 1})
print(image.coefficients == {"shape:0,1|gl2:|gl1:0": 1, "shape:0,1|gl2:|gl1:1": 1})
print(one.items == ((key, 1),))
"""


def test_membership_runs_in_bounded_memory():
    # induced_k_map(1, 10**12) has a source of rank 2 * 10**12 + 1, and
    # k_complex(12, 12)[0] one of rank 5,200,300: neither is listed.
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", _BOUNDED_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True"]


LAW_PRESENTATION = k_complex(2, 2)[0]
COMBINATIONS = st.dictionaries(
    st.sampled_from(LAW_PRESENTATION.generator_keys), st.integers(-20, 20), max_size=10
)
SCALARS = st.integers(-6, 6)


def as_class(combination):
    return kclass(LAW_PRESENTATION, combination)


class TestClassGroupLaws:
    """K-class arithmetic against the plain-dict oracle."""

    @given(COMBINATIONS, COMBINATIONS, COMBINATIONS)
    def test_add_associative(self, a, b, c):
        left = kclass_add(kclass_add(as_class(a), as_class(b)), as_class(c))
        right = kclass_add(as_class(a), kclass_add(as_class(b), as_class(c)))
        assert left == right
        assert left.coefficients == combination_add(combination_add(a, b), c)

    @given(COMBINATIONS, COMBINATIONS)
    def test_add_commutative(self, a, b):
        total = kclass_add(as_class(a), as_class(b))
        assert total == kclass_add(as_class(b), as_class(a))
        assert total.coefficients == combination_add(a, b)

    @given(COMBINATIONS)
    def test_inverse_cancels(self, a):
        assert kclass_add(as_class(a), kclass_scale(as_class(a), -1)).is_zero

    @given(COMBINATIONS, COMBINATIONS, SCALARS)
    def test_scale_distributes_over_add(self, a, b, k):
        left = kclass_scale(kclass_add(as_class(a), as_class(b)), k)
        right = kclass_add(kclass_scale(as_class(a), k), kclass_scale(as_class(b), k))
        assert left == right
        assert left.coefficients == combination_scale(combination_add(a, b), k)
