"""Levi bookkeeping for GL(n, R): partitions into 2-blocks and 1-blocks,
the degrees of their Weyl groups, and discrete-series orbit data.

Over R only blocks of size 1 and 2 carry discrete series, so an equivalence
class of Levi subgroups is determined by a pair (q, r) with 2q + r = n.  A
discrete-series datum on such a Levi is a multiset of q GL(2)-indices
(integers >= 1) together with a multiset of r GL(1)-characters of the
order-two component group (0 = trivial, 1 = sign), always kept in canonical
sorted form so that each Weyl orbit has exactly one representative.

It also owns the value helpers every layer shares: ``_require_int`` and
``_require_at_least``, the input checks of every catalog entry point ("n
must be >= 1"), ``_unpacked``, the one reader of the params, summands,
matrices and assignments the value classes take, ``_sorted_labels``, the
one label check of every orbit and complex component, ``_Value``, the base
of every value class in the package, all of them slotted, ``_setters``,
which binds each one's slot setters, ``_binomial``, the one bounded
binomial, and ``_Memo``, the dict behind the shared Levi shapes and the
CLI's templates, cells and bc shapes.
"""

from __future__ import annotations

from math import comb, inf
from operator import attrgetter
from typing import Callable, Iterable


def _require_int(name: str, value: object) -> None:
    """Reject anything but a plain int where a count, cutoff or label is
    meant; bool is an int subclass, so True would otherwise pass as 1."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _require_at_least(name: str, value: object, least: int) -> None:
    """The one range check: an int, not a bool, and at least ``least``."""
    # Inline test first: every presentation and catalog runs this check.
    if type(value) is not int:
        _require_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _unpacked(name: str, value: Iterable, what: str) -> tuple:
    """``value`` read into a tuple: an argument that cannot be iterated is
    named as ``name``, an iterable of ``what``; an error raised while a real
    iterable is read passes through as it is."""
    try:
        return tuple(value)
    except TypeError:
        if hasattr(value, "__iter__"):
            raise  # raised while iterating: not a fault of the argument
    # Raised here, not in the handler, so no builtin error is chained to it.
    raise TypeError(f"{name} must be an iterable of {what}, got {value!r}")


def _sorted_labels(name: str, labels: Iterable[int]) -> tuple[int, ...]:
    """``labels`` sorted into a tuple, each label checked in the order given."""
    # Read inline, not via _unpacked: a call more per block slows every orbit.
    try:
        block = [*labels]
    except TypeError:
        if hasattr(labels, "__iter__"):
            raise  # raised while iterating: not a fault of the argument
        block = None
    # Raised here, not in the handler, so no builtin error is chained to it.
    if block is None:
        raise TypeError(f"{name} must be an iterable of integers, got {labels!r}")
    for label in block:
        # Inline test first: each real point and catalog entry builds an
        # orbit, and each complex point a component.
        if type(label) is not int:
            _require_int("label", label)
    block.sort()
    return tuple(block)


def _binomial(a: int, k: int) -> int | float:
    """C(a, k), 0 outside 0 <= k <= a, and ``inf`` once k and a - k both
    exceed 64, where it is above C(128, 64) > 10^37: no n or cutoff, however
    large, costs more than a product of 64 terms."""
    if k < 0 or k > a:
        return 0
    if min(k, a - k) > 64:
        return inf
    return comb(a, k)


class _Memo(dict):
    """Dict that fills a missing key once, with ``make(key)``."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key: object) -> object:
        value = self[key] = self.make(key)
        return value


class _Value:
    """Immutable slotted value whose ``__init__`` takes its ``_fields`` in
    order, checks them and sets each once, through its class's own slot
    setters (``_setters``): ``__setattr__`` raises, and a slot setter costs
    half of the generic object setter, which no value class uses.  Equality,
    hash and repr are the fields' alone, never a derived attribute's, and
    values of different classes are never equal; copy and pickle rebuild
    through ``__init__``, checks and all."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in vars(cls):
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _setters(cls: type) -> tuple:
    """The ``__set__`` of each of the class's own slots, in slot order: bound
    once, each sets its field past ``_Value.__setattr__`` at half the cost of
    the generic object setter.  Bind them right after the class body."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


class LeviShape(_Value):
    """Partition n = 2q + r: q blocks of size 2 and r blocks of size 1."""

    __slots__ = _fields = ("q", "r")

    def __init__(self, q: int, r: int) -> None:
        _require_at_least("q", q, 0)
        _require_at_least("r", r, 0)
        if 2 * q + r < 1:
            raise ValueError("empty shape: need 2q + r >= 1")
        _set_q(self, q)
        _set_r(self, r)

    @property
    def n(self) -> int:
        return 2 * self.q + self.r

    def __str__(self) -> str:
        return "+".join(["2"] * self.q + ["1"] * self.r)


_set_q, _set_r = _setters(LeviShape)


class SigmaOrbit(_Value):
    """Canonical Weyl orbit of discrete-series data on a shape (q, r).

    ``gl2_labels`` holds the q discrete-series indices (>= 1) and
    ``gl1_labels`` the r characters (0 or 1); both are stored sorted
    ascending, so two orbits are equal iff they are the same multisets.
    """

    __slots__ = _fields = ("gl2_labels", "gl1_labels")

    def __init__(self, gl2_labels: tuple[int, ...], gl1_labels: tuple[int, ...]) -> None:
        gl2 = _sorted_labels("gl2_labels", gl2_labels)
        gl1 = _sorted_labels("gl1_labels", gl1_labels)
        # The labels are sorted integers, so the end labels bound the rest.
        if gl2 and gl2[0] < 1:
            raise ValueError(f"gl2 labels index discrete series and must be >= 1: {gl2}")
        if gl1 and (gl1[0] < 0 or gl1[-1] > 1):
            raise ValueError(f"gl1 labels must be 0 (trivial) or 1 (sign): {gl1}")
        _set_gl2_labels(self, gl2)
        _set_gl1_labels(self, gl1)


_set_gl2_labels, _set_gl1_labels = _setters(SigmaOrbit)


def enumerate_levi_shapes(n: int) -> list[LeviShape]:
    """All shapes for n in descending q; there are exactly floor(n/2) + 1."""
    _require_at_least("n", n, 1)
    return [LeviShape(q, n - 2 * q) for q in range(n // 2, -1, -1)]


def weyl_group(shape: LeviShape) -> tuple[int, ...]:
    """Degrees of the block permutations S_q x S_r of the Levi, with the
    trivial factors (degree 0 or 1) dropped; () is the trivial group."""
    if type(shape) is not LeviShape:
        raise TypeError(f"weyl_group takes a LeviShape, got {shape!r}")
    return tuple(d for d in (shape.q, shape.r) if d >= 2)


def run_multiplicities(*blocks: tuple[int, ...]) -> tuple[int, ...]:
    """Lengths (each >= 2) of the runs of equal labels, block after block.

    Each block is a sorted label tuple, so a label's count in its block is
    the length of its run, and its distinct labels in ascending order give
    its runs in order; equal labels in different blocks never merge.
    The result is empty exactly when no label repeats within a block.
    """
    for block in blocks:
        if type(block) is not tuple:
            raise TypeError(f"run_multiplicities takes label tuples, got {block!r}")
    return tuple(m for block in blocks for m in map(block.count, sorted(set(block))) if m >= 2)
