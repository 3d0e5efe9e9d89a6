"""K-theory of component catalogs, two-periodic with compact supports.

The only topological input: K of R^d is Z in degree d mod 2 and zero in the
other degree, and closed cones contribute nothing in either degree.  A
K-group is therefore free abelian with one generator per free component of
matching parity.  At a finite label cutoff the generator catalog is a finite
truncation; the accompanying closed form describes the full countable index
family and predicts the truncated rank at any cutoff.

A presentation is its four fields, (field, n, cutoff, degree): its closed
form and rank follow from them, and whether a key is a generator follows
from the key itself (``_are_generators``), so no class or induced map lists one.
"""

from __future__ import annotations

from itertools import combinations, filterfalse, repeat, starmap
from math import comb
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Union

from .levi import (
    SigmaOrbit,
    _binomial,
    _require_at_least,
    _require_int,
    _setters,
    _unpacked,
    _Value,
)
from .param_space import (
    Component,
    ComplexComponent,
    _are_free_keys,
    _complex_key,
    _label_blocks,
    _real_key,
)

# The key of a (key, value) pair: classes and induced maps sort their terms by it.
_by_key = itemgetter(0)

# kind -> (description, generator count at a cutoff over a binomial ``choose``)
_FAMILIES = {
    "rank": ("rank {}", lambda choose, k, cutoff: k),
    "nat_subsets": ("{}-subsets of N", lambda choose, k, cutoff: choose(cutoff, k)),
    "nat_subsets_x_z2": ("{}-subsets of N x Z/2", lambda choose, k, cutoff: 2 * choose(cutoff, k)),
    "int_subsets": ("{}-subsets of Z", lambda choose, k, cutoff: choose(2 * cutoff + 1, k)),
}


class IndexFamily(_Value):
    """Closed-form description of one K-degree's generator family: the
    constant rank ``size`` (kind "rank"), or the ``size``-subsets of N
    ("nat_subsets"), of N paired with a two-valued character
    ("nat_subsets_x_z2") or of Z ("int_subsets").

    ``_FAMILIES`` maps each kind to its description and its one count
    formula over a binomial ``choose``: ``rank_at`` reads the formula with
    ``math.comb`` (exact), ``_bounded_rank_at`` with ``levi._binomial``.
    """

    __slots__ = _fields = ("kind", "size")

    def __init__(self, kind: str, size: int) -> None:
        try:
            known = kind in _FAMILIES
        except TypeError:
            known = False  # an unhashable kind, such as a list
        # Raised here, not in the handler, so no builtin error is chained to it.
        if not known:
            raise ValueError(f"unknown family kind: {kind!r}")
        _require_at_least("size", size, 0)
        _set_kind(self, kind)
        _set_size(self, size)

    def rank_at(self, cutoff: int) -> int:
        """Generator count once labels are truncated at the given cutoff."""
        # Inline test first: a closed-form grid reads thousands of ranks.
        if type(cutoff) is not int or cutoff < 0:
            _require_at_least("cutoff", cutoff, 0)
        return _FAMILIES[self.kind][1](comb, self.size, cutoff)

    def _bounded_rank_at(self, cutoff: int) -> int | float:
        """``rank_at`` unchecked and bounded: ``inf`` past 10^37, 0 subsets below cutoff 0."""
        return _FAMILIES[self.kind][1](_binomial, self.size, cutoff)

    def describe(self) -> str:
        return _FAMILIES[self.kind][0].format(self.size)


_set_kind, _set_size = _setters(IndexFamily)


class KGroupPresentation(_Value):
    """One K-degree of C*_r GL(n, field), its generators truncated at a label
    cutoff; the four fields define it, and equality and hash are theirs.

    Every generator is a free component whose dimension matches the degree
    mod 2, in the order of the full component catalog with its cones left
    out: over R a q-subset of gl2 labels {1..cutoff} with an r-subset of the
    gl1 labels {0, 1}, over C an n-subset of {-cutoff..cutoff}.  Construction
    checks the four fields and builds nothing else: the closed form is
    derived from (field, n, degree) on each read, and the rank from it.
    Membership is read from the keys themselves (``_are_generators``), and
    each key accepted is kept in ``_members``, a shared empty frozenset
    until the first.  No key list is kept: ``generator_keys`` lists the keys
    and ``generators`` the components anew on each read, and ``_keys``
    streams the keys.
    """

    __slots__ = ("field", "n", "cutoff", "degree", "_members")
    _fields = ("field", "n", "cutoff", "degree")

    def __init__(self, field: str, n: int, cutoff: int, degree: int) -> None:
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        if type(degree) is not int:
            _require_int("degree", degree)
        if degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {degree}")
        _require_at_least("n", n, 1)
        _require_at_least("cutoff", cutoff, 1)
        if field == "real" and cutoff < n // 2:
            raise ValueError(
                f"cutoff {cutoff} cannot host {n // 2} distinct gl2 labels; "
                f"need cutoff >= {n // 2}"
            )
        if field == "complex" and 2 * cutoff + 1 < n:
            raise ValueError(
                f"cutoff {cutoff} offers only {2 * cutoff + 1} labels for {n} distinct ones; "
                f"need 2*cutoff + 1 >= n"
            )
        _set_field(self, field)
        _set_n(self, n)
        _set_cutoff(self, cutoff)
        _set_degree(self, degree)
        _set_members(self, _NO_MEMBERS)

    @property
    def closed_form(self) -> IndexFamily:
        """The degree's closed form, derived from (field, n, degree) on each read."""
        forms = closed_form_real if self.field == "real" else closed_form_complex
        return forms(self.n)[self.degree]

    @property
    def rank(self) -> int:
        """Generator count, from the closed form alone."""
        return self.closed_form.rank_at(self.cutoff)

    @property
    def generator_keys(self) -> tuple[str, ...]:
        """The keys in catalog order, listed on each read and checked against the rank."""
        keys = tuple(self._keys())
        if self._checked(len(keys)) != len(set(keys)):
            raise RuntimeError("duplicate generator key in presentation")
        return keys

    def _checked(self, listed: int) -> int:
        """The number of keys listed, once it equals the closed-form rank."""
        if listed != self.rank:
            raise RuntimeError(f"listed {listed} generator keys for a closed-form rank of {self.rank}")
        return listed

    def _keys(self) -> Iterator[str]:
        """The generator keys in catalog order, streamed from the label sets."""
        return starmap(_real_key if self.field == "real" else _complex_key, self._label_sets(str))

    def _label_sets(self, label: Callable[[int], object]) -> Iterator[tuple]:
        """The catalog's label blocks without repeats, on the degree's shapes,
        each label passed through ``label``: the generators' labels, in order."""
        return _label_blocks(self.field, self.n, self.cutoff, label, combinations, (self.degree,))

    @property
    def generators(self) -> tuple[Union[Component, ComplexComponent], ...]:
        """The generator components, built anew on each read from the same
        label sets as the keys; none is kept."""
        if self.field == "real":
            return tuple(map(Component, starmap(SigmaOrbit, self._label_sets(int))))
        return tuple(starmap(ComplexComponent, self._label_sets(int)))


_set_field, _set_n, _set_cutoff, _set_degree, _set_members = _setters(KGroupPresentation)
# Every presentation's members until it accepts its first key: construction
# allocates no set.
_NO_MEMBERS = frozenset()


def _are_generators(p: KGroupPresentation, keys: list[object]) -> bool:
    """Whether every key in keys is a generator key of p, the one
    membership rule of classes and induced maps, read from the keys
    themselves, all at once: the key of a free component of p's catalog
    whose dimension is p's degree mod 2 (``param_space._are_free_keys``).
    The keys accepted are kept in p._members, which is tested first; an
    unhashable key, or one of another type than str, is no generator."""
    try:
        new = [*filterfalse(p._members.__contains__, keys)]
    except TypeError:
        return False
    if not new:
        return True
    if not all(map(isinstance, new, repeat(str))):
        return False
    if not _are_free_keys(p.field, p.n, p.cutoff, p.degree, new):
        return False
    if p._members is _NO_MEMBERS:
        _set_members(p, set(new))
    else:
        p._members.update(new)
    return True


def _is_generator(p: KGroupPresentation, key: object) -> bool:
    """Whether key is a generator key of p: one of its members, tested
    first, or else read by ``_are_generators``."""
    try:
        if key in p._members:
            return True
    except TypeError:
        return False  # an unhashable key
    return _are_generators(p, [key])


class KClass(_Value):
    """Integer combination of a presentation's generators.

    Zero coefficients are never stored; the empty combination is the zero
    class.  Items are sorted by generator key alone, never by coefficient, so
    equal classes compare equal and a repeated key sits next to its twin.
    """

    __slots__ = _fields = ("presentation", "items")

    def __init__(
        self, presentation: KGroupPresentation, items: tuple[tuple[str, int], ...]
    ) -> None:
        if type(presentation) is not KGroupPresentation:
            raise TypeError(f"a KClass needs a KGroupPresentation, got {presentation!r}")
        # Zeros of any type other than int are kept so the check below
        # rejects them; bool is an int subclass and is rejected too.
        terms = _unpacked("items", items, "(key, coefficient) pairs")
        items = [(k, c) for k, c in terms if c != 0 or type(c) is not int]
        # The keys the presentation has accepted: the keys outside them are
        # read by the membership rule, which adds them.
        known = presentation._members
        try:
            items.sort(key=_by_key)
        except TypeError:
            # A key that is not a string cannot be ordered against one: the
            # keys that are no generators go first, for the check below to name.
            items.sort(key=lambda term: _is_generator(presentation, term[0]))
        # A key that passed the first check is a string, never None.
        previous = read_all = None
        try:
            for key, coeff in items:
                if key not in known:
                    # The first key outside the members has every key read at
                    # once; if one is no generator, each is read on its own,
                    # so the first in order is named.
                    if read_all is None:
                        read_all = _are_generators(presentation, [*map(_by_key, items)])
                    if not (read_all or _is_generator(presentation, key)):
                        raise ValueError(f"generator {key!r} does not belong to this presentation")
                    known = presentation._members
                if key == previous:
                    raise ValueError(f"generator {key!r} repeated in class")
                previous = key
                if type(coeff) is not int:
                    raise TypeError(f"coefficients must be integers, got {coeff!r}")
        except TypeError:
            # Only an unhashable key fails the membership test itself.
            if not _is_generator(presentation, key):
                raise ValueError(f"generator {key!r} does not belong to this presentation") from None
            raise
        _set_presentation(self, presentation)
        _set_items(self, tuple(items))

    @property
    def coefficients(self) -> dict[str, int]:
        return dict(self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items


_set_presentation, _set_items = _setters(KClass)


def kclass(
    presentation: KGroupPresentation, coefficients: Mapping[str, int] = MappingProxyType({})
) -> KClass:
    """Class from a generator-to-coefficient mapping; zeros are pruned."""
    if not hasattr(coefficients, "items"):
        raise TypeError(
            f"kclass takes a mapping of generator keys to coefficients, got {coefficients!r}"
        )
    return KClass(presentation, tuple(coefficients.items()))


def kclass_add(a: KClass, b: KClass) -> KClass:
    for x in (a, b):
        if type(x) is not KClass:
            raise TypeError(f"kclass_add takes a KClass, got {x!r}")
    if a.presentation != b.presentation:
        raise ValueError("cannot add classes over different presentations")
    total = dict(a.items)
    for key, coeff in b.items:
        total[key] = total.get(key, 0) + coeff
    return KClass(a.presentation, tuple(total.items()))


def kclass_scale(a: KClass, scalar: int) -> KClass:
    if type(a) is not KClass:
        raise TypeError(f"kclass_scale takes a KClass, got {a!r}")
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
    else:
        main = IndexFamily("nat_subsets", q)
        other = IndexFamily("nat_subsets", q - 1) if q >= 2 else IndexFamily("rank", 1)
    # The main family's shape has q + odd blocks, its dimension and degree.
    return (other, main) if (q + odd) % 2 else (main, other)


def closed_form_complex(n: int) -> tuple[IndexFamily, IndexFamily]:
    """n-subsets of Z in degree n mod 2, zero in the other degree."""
    _require_at_least("n", n, 1)
    main = IndexFamily("int_subsets", n)
    other = IndexFamily("rank", 0)
    return (main, other) if n % 2 == 0 else (other, main)


def k_real(n: int, cutoff: int) -> tuple[KGroupPresentation, KGroupPresentation]:
    """K-group presentations (degree 0, degree 1) for GL(n, R) at a cutoff.

    The cutoff must admit q = floor(n/2) distinct gl2 labels, otherwise the
    top generator family would be invisible."""
    return KGroupPresentation("real", n, cutoff, 0), KGroupPresentation("real", n, cutoff, 1)


def k_complex(n: int, cutoff: int) -> tuple[KGroupPresentation, KGroupPresentation]:
    """K-group presentations for GL(n, C): one generator per n-subset of
    {-cutoff..cutoff}, all in degree n mod 2."""
    return KGroupPresentation("complex", n, cutoff, 0), KGroupPresentation("complex", n, cutoff, 1)
