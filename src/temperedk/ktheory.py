"""K-theory of component catalogs, two-periodic with compact supports.

The only topological input: K of R^d is Z in degree d mod 2 and zero in the
other degree, and closed cones contribute nothing in either degree.  A
K-group is therefore free abelian with one generator per free component of
matching parity.  At a finite label cutoff the generator catalog is a finite
truncation; the accompanying closed form describes the full countable index
family and predicts the truncated rank at any cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, Union

from .levi import SigmaOrbit, _require_at_least, _require_int, enumerate_levi_shapes
from .param_space import Component, ComplexComponent

_FAMILY_KINDS = ("rank", "nat_subsets", "nat_subsets_x_z2", "int_subsets")


@dataclass(frozen=True)
class IndexFamily:
    """Closed-form description of one K-degree's generator family.

    kind "rank": constant rank ``size`` at every cutoff.
    kind "nat_subsets": ``size``-element subsets of {1, 2, ...}.
    kind "nat_subsets_x_z2": such subsets paired with a two-valued character.
    kind "int_subsets": ``size``-element subsets of Z.
    """

    kind: str
    size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown family kind: {self.kind!r}")
        _require_at_least("size", self.size, 0)

    def rank_at(self, cutoff: int) -> int:
        """Generator count once labels are truncated at the given cutoff."""
        _require_at_least("cutoff", cutoff, 0)
        if self.kind == "rank":
            return self.size
        if self.kind == "nat_subsets":
            return comb(cutoff, self.size)
        if self.kind == "nat_subsets_x_z2":
            return 2 * comb(cutoff, self.size)
        return comb(2 * cutoff + 1, self.size)

    def describe(self) -> str:
        if self.kind == "rank":
            return f"rank {self.size}"
        if self.kind == "nat_subsets":
            return f"{self.size}-subsets of N"
        if self.kind == "nat_subsets_x_z2":
            return f"{self.size}-subsets of N x Z/2"
        return f"{self.size}-subsets of Z"


@dataclass(frozen=True)
class KGroupPresentation:
    """One K-degree presented by its generator catalog.

    Every generator is a free component whose dimension matches the degree
    mod 2; generators keep the (deterministic) order of the full component
    catalog with its cones left out.  The generator keys and the
    key-to-catalog-index map are computed once, at construction, so classes
    and maps over the presentation never rebuild a key; treat both as
    read-only.
    """

    degree: int
    generators: tuple[Union[Component, ComplexComponent], ...]
    closed_form: IndexFamily
    generator_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    generator_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            _require_int("degree", self.degree)
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        object.__setattr__(self, "generators", tuple(self.generators))
        keys = tuple(c.key for c in self.generators)
        index = {key: i for i, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ValueError("duplicate generator in presentation")
        for c, key in zip(self.generators, keys):
            if not c.is_free:
                raise ValueError(f"cone component {key} cannot generate K-theory")
            if c.dimension % 2 != self.degree:
                raise ValueError(f"generator {key} has the wrong parity for degree {self.degree}")
        object.__setattr__(self, "generator_keys", keys)
        object.__setattr__(self, "generator_index", index)

    @property
    def rank(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class KClass:
    """Integer combination of a presentation's generators.

    Zero coefficients are never stored; the empty combination is the zero
    class.  Items are kept sorted by generator key so equal classes compare
    equal structurally.
    """

    presentation: KGroupPresentation
    items: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        # Zeros of any type other than int are kept so the check below
        # rejects them; bool is an int subclass and is rejected too.
        items = tuple(sorted((k, c) for k, c in self.items if c != 0 or type(c) is not int))
        object.__setattr__(self, "items", items)
        known = self.presentation.generator_index
        seen = set()
        for key, coeff in items:
            if key in seen:
                raise ValueError(f"generator {key!r} repeated in class")
            seen.add(key)
            if key not in known:
                raise ValueError(f"generator {key!r} does not belong to this presentation")
            if type(coeff) is not int:
                raise TypeError(f"coefficients must be integers, got {coeff!r}")

    @property
    def coefficients(self) -> dict[str, int]:
        return dict(self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items


def kclass(
    presentation: KGroupPresentation, coefficients: Mapping[str, int] = MappingProxyType({})
) -> KClass:
    """Class from a generator-to-coefficient mapping; zeros are pruned."""
    return KClass(presentation, tuple(coefficients.items()))


def kclass_add(a: KClass, b: KClass) -> KClass:
    # Identity first: deep equality is only needed for equal presentations
    # built separately, which still interoperate.
    if a.presentation is not b.presentation and a.presentation != b.presentation:
        raise ValueError("cannot add classes over different presentations")
    total = dict(a.items)
    for key, coeff in b.items:
        total[key] = total.get(key, 0) + coeff
    return KClass(a.presentation, tuple(total.items()))


def kclass_scale(a: KClass, scalar: int) -> KClass:
    _require_int("scalar", scalar)
    return KClass(a.presentation, tuple((k, scalar * c) for k, c in a.items))


def closed_form_real(n: int) -> tuple[IndexFamily, IndexFamily]:
    """Closed forms for (degree 0, degree 1) of the real-side K-groups.

    For even n = 2q the all-2-blocks shapes contribute q-subsets of N in
    degree q mod 2, and the r = 2 shapes (paired with the split character
    pair id/sgn) contribute (q-1)-subsets of N in the other degree.  For odd
    n = 2q + 1 the only surviving shape contributes q-subsets of N x Z/2 in
    degree (q+1) mod 2 and nothing elsewhere.  Size-0 subset families
    collapse to constant ranks (1 and 2 respectively).
    """
    _require_at_least("n", n, 1)
    q, odd = divmod(n, 2)
    if odd:
        main = IndexFamily("nat_subsets_x_z2", q) if q >= 1 else IndexFamily("rank", 2)
        other = IndexFamily("rank", 0)
        main_degree = (q + 1) % 2
    else:
        main = IndexFamily("nat_subsets", q)
        other = IndexFamily("nat_subsets", q - 1) if q >= 2 else IndexFamily("rank", 1)
        main_degree = q % 2
    families = {main_degree: main, 1 - main_degree: other}
    return families[0], families[1]


def closed_form_complex(n: int) -> tuple[IndexFamily, IndexFamily]:
    """n-subsets of Z in degree n mod 2, zero in the other degree."""
    _require_at_least("n", n, 1)
    main = IndexFamily("int_subsets", n)
    other = IndexFamily("rank", 0)
    return (main, other) if n % 2 == 0 else (other, main)


def k_real(n: int, cutoff: int) -> tuple[KGroupPresentation, KGroupPresentation]:
    """K-group presentations (degree 0, degree 1) for GL(n, R) at a cutoff.

    The cutoff must admit q = floor(n/2) distinct gl2 labels, otherwise the
    top generator family would be invisible.  Only free components are built:
    the gl2 labels form a q-subset of {1..cutoff}, the gl1 labels an r-subset
    of {0, 1}."""
    _require_at_least("n", n, 1)
    _require_at_least("cutoff", cutoff, 1)
    if cutoff < n // 2:
        raise ValueError(
            f"cutoff {cutoff} cannot host {n // 2} distinct gl2 labels; need cutoff >= {n // 2}"
        )
    free = [
        Component(shape, SigmaOrbit(gl2, gl1))
        for shape in enumerate_levi_shapes(n)
        for gl2 in combinations(range(1, cutoff + 1), shape.q)
        for gl1 in combinations((0, 1), shape.r)
    ]
    cf0, cf1 = closed_form_real(n)
    return (
        KGroupPresentation(0, tuple(c for c in free if c.dimension % 2 == 0), cf0),
        KGroupPresentation(1, tuple(c for c in free if c.dimension % 2 == 1), cf1),
    )


def k_complex(n: int, cutoff: int) -> tuple[KGroupPresentation, KGroupPresentation]:
    """K-group presentations for GL(n, C): one generator per n-subset of
    {-cutoff..cutoff}, all in degree n mod 2."""
    _require_at_least("n", n, 1)
    _require_at_least("cutoff", cutoff, 1)
    if 2 * cutoff + 1 < n:
        raise ValueError(
            f"cutoff {cutoff} offers only {2 * cutoff + 1} labels for {n} distinct ones; "
            f"need 2*cutoff + 1 >= n"
        )
    labels = range(-cutoff, cutoff + 1)
    cf0, cf1 = closed_form_complex(n)
    generators = {0: (), 1: ()}
    generators[n % 2] = tuple(ComplexComponent(c) for c in combinations(labels, n))
    return (
        KGroupPresentation(0, generators[0], cf0),
        KGroupPresentation(1, generators[1], cf1),
    )
