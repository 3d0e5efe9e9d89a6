"""Connected components of the tempered duals of GL(n, R) and GL(n, C).

A real component is a discrete-series orbit, whose label counts give its Levi
shape (q, r); its continuous parameters sweep R^(q+r) modulo the orbit's
isotropy.  Components with trivial isotropy are honest Euclidean spaces
("free"); the others are closed cones R^d / prod S_m.  The complex side is
simpler: one maximal torus, components indexed by multisets of n circle
exponents.

Both catalogs live here: their label sets (``_label_blocks``), the real
orbits on one shape (``enumerate_orbits``), their counts and their records.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat, starmap
from math import isfinite
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from .levi import (
    LeviShape,
    SigmaOrbit,
    _binomial,
    _Memo,
    _require_at_least,
    _setters,
    _sorted_labels,
    _unpacked,
    _Value,
    enumerate_levi_shapes,
    run_multiplicities,
)

KIND_FREE = "free"
KIND_CONE = "cone"


# The one owner of the key format.  Labels arrive already written as strings,
# so K-group presentations and the CLI key label sets without building them;
# ``_are_free_keys`` reads keys back, for the K-theory membership rule.


def _real_key(gl2: Sequence[str], gl1: Sequence[str]) -> str:
    return f"shape:{len(gl2)},{len(gl1)}|gl2:{','.join(gl2)}|gl1:{','.join(gl1)}"


def _complex_key(labels: Iterable[str]) -> str:
    return "labels:" + ",".join(labels)


def _rising(columns: list[list[str]], low: int, high: int) -> bool:
    """Whether every label in the columns is an int from low to high that
    ``str`` writes back byte for byte (not ``+1``, ``01``, ``-0``, ``1_0``,
    `` 1``, other digits than ASCII or an empty label), and each column's
    labels lie below the next column's, row by row.  Each distinct label is
    converted once: the keys of a class share most."""
    distinct = set().union(*columns)
    try:
        value = dict(zip(distinct, map(int, distinct)))
    except ValueError:
        return False
    ints = value.values()
    if [*map(str, ints)] != [*value] or min(ints) < low or max(ints) > high:
        return False
    values = [[*map(value.__getitem__, column)] for column in columns]
    return all(all(map(lt, below, above)) for below, above in zip(values, values[1:]))


# The marks of both key formats, each split off as a piece of its own when
# keys are read.
_MARKS = ("labels:", "|gl2:", "|gl1:")


def _rows_read(keys: list[str], row: list) -> bool:
    """Whether keys that all start with one head are each one row of pieces
    as row describes them, all read at once.  Joined by commas, with each
    mark split off as a piece of its own, the keys split at their commas
    into pieces, and each item of row stands for columns of them: a piece
    every row has, or a block (size, low, high) of size label columns that
    ``_rising`` reads.  The head's first piece, or its mark when that piece
    is empty, can stand only in its own column, so each key is exactly one
    row, and is the key its writer writes from that row's labels."""
    text = ",".join(keys)
    for mark in _MARKS:
        text = text.replace(mark, f",{mark},")
    pieces = text.split(",")
    width = sum(1 if type(item) is str else item[0] for item in row)
    if len(pieces) != width * len(keys):
        return False
    column = 0
    for item in row:
        if type(item) is str:
            if pieces[column::width].count(item) != len(keys):
                return False
            column += 1
        else:
            size, low, high = item
            if not _rising([pieces[c::width] for c in range(column, column + size)], low, high):
                return False
            column += size
    return True


def _are_free_keys(field: str, n: int, cutoff: int, degree: int, keys: list[str]) -> bool:
    """Whether each of keys is the key, as ``_real_key`` or ``_complex_key``
    writes it byte for byte, of a free component of the (n, cutoff) catalog
    whose dimension, its label count, is degree mod 2: over C n labels in
    {-cutoff..cutoff}, over R q gl2 labels in {1..cutoff} and r gl1 labels
    in {0, 1} with 2q + r = n, distinct and in order.  One shape at most
    has such components (``_widest_blocks``); a key wider than a bound on
    its widest key is refused before any key is read, and the keys are read
    all at once (``_rows_read``)."""
    widest = _widest_blocks(field, n, cutoff, free=True)
    shape = [blocks for blocks in widest if sum(map(len, blocks)) % 2 == degree]
    if not shape:
        return False
    # The shape's head, its widest key and the row of its keys; a block
    # without labels is one empty piece.
    if field == "complex":
        head, widest_key = "labels:", _complex_key(*shape[0])
        row = ["", "labels:", (n, -cutoff, cutoff)]
    else:
        q, r = map(len, shape[0])
        head, widest_key = f"shape:{q},{r}|gl2:", _real_key(*shape[0])
        gl2, gl1 = ((q, 1, cutoff) if q else ""), ((r, 0, 1) if r else "")
        row = [f"shape:{q}", str(r), "|gl2:", gl2, "|gl1:", gl1]
    if max(map(len, keys)) > len(widest_key) or not all(map(str.startswith, keys, repeat(head))):
        return False
    return _rows_read(keys, row)


class _FreeOrCone(_Value):
    """Free (and so a K-theory generator) exactly when its cone chart has no
    ray; each component class supplies ``label_blocks``, ``dimension``, ``_key``."""

    __slots__ = ()

    @property
    def is_free(self) -> bool:
        return not cone_chart(self).num_rays

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """Degrees m of the S_m factors of the isotropy in the Weyl group:
        one per label repeated m times within its block."""
        return run_multiplicities(*self.label_blocks)

    @property
    def kind(self) -> str:
        return KIND_FREE if self.is_free else KIND_CONE

    @property
    def key(self) -> str:
        """Canonical reference string, stable across runs and serializations."""
        return self._key(*([*map(str, block)] for block in self.label_blocks))


class Component(_FreeOrCone):
    """One connected piece of the real tempered dual: an orbit; its label counts give the shape."""

    __slots__ = ("orbit", "shape")
    _fields = ("orbit",)
    _key = staticmethod(_real_key)

    def __init__(self, orbit: SigmaOrbit) -> None:
        if type(orbit) is not SigmaOrbit:
            raise TypeError(f"a Component wraps a SigmaOrbit, got {orbit!r}")
        _set_orbit(self, orbit)
        _set_shape(self, _SHAPES[len(orbit.gl2_labels), len(orbit.gl1_labels)])

    @property
    def dimension(self) -> int:
        return self.shape.q + self.shape.r

    @property
    def label_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Sorted labels of each block, in coordinate order: gl2, then gl1."""
        return (self.orbit.gl2_labels, self.orbit.gl1_labels)


_set_orbit, _set_shape = _setters(Component)


class ComplexComponent(_FreeOrCone):
    """One connected piece of the complex tempered dual: n circle exponents."""

    __slots__ = _fields = ("labels",)
    _key = staticmethod(_complex_key)

    def __init__(self, labels: tuple[int, ...]) -> None:
        labels = _sorted_labels("labels", labels)
        if not labels:
            raise ValueError("a complex component needs at least one label")
        _set_labels(self, labels)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @property
    def label_blocks(self) -> tuple[tuple[int, ...], ...]:
        return (self.labels,)


(_set_labels,) = _setters(ComplexComponent)


class ConeChart(_Value):
    """Chart R^d / prod S_m  ~=  R^num_lines x [0, oo)^num_rays.

    Each block of m equal labels is charted by its mean (one full line) and
    its m - 1 consecutive ascending gaps (rays); coordinates with unrepeated
    labels keep their lines untouched.
    """

    __slots__ = _fields = ("num_lines", "num_rays")

    def __init__(self, num_lines: int, num_rays: int) -> None:
        _require_at_least("num_lines", num_lines, 1)
        _require_at_least("num_rays", num_rays, 0)
        _set_num_lines(self, num_lines)
        _set_num_rays(self, num_rays)


_set_num_lines, _set_num_rays = _setters(ConeChart)


class TemperedPoint(_Value):
    """A point on a component: one finite continuous twist per coordinate."""

    __slots__ = _fields = ("component", "params")
    # The component class a point of this kind holds; RealTemperedPoint
    # overrides it, so no build tests the point's own class.
    _component_class = ComplexComponent

    def __init__(self, component: Component | ComplexComponent, params: tuple[float, ...]) -> None:
        expected = self._component_class
        if not isinstance(component, expected):
            raise TypeError(f"a {type(self).__name__} needs a {expected.__name__}")
        twists = params if type(params) is tuple else _unpacked("params", params, "twists")
        if len(twists) != component.dimension:
            raise ValueError(f"expected {component.dimension} parameters, got {len(twists)}")
        for t in twists:
            # Inline test first: t - t is 0.0 for a finite float, NaN for NaN
            # and +-inf.  At the first other twist, all are checked and then
            # converted, by the reader a character's twist takes too.
            if type(t) is not float or t - t != 0.0:
                twists = _finite_twists("twists", twists, twists)
                break
        _set_component(self, component)
        _set_params(self, twists)


_set_component, _set_params = _setters(TemperedPoint)


# Subclasses rather than aliases: the class records the field of a point and
# must agree with its component (its _component_class: a Component for a
# real point, a ComplexComponent otherwise), values of different classes
# never compare equal, so a real and a complex point never do, and
# canonicalize_point keeps the kind through type(point).
class RealTemperedPoint(TemperedPoint):
    """A point on a real component: the continuous twists, one per block."""

    __slots__ = ()
    _component_class = Component


class ComplexTemperedPoint(TemperedPoint):
    """A point on a complex component: n continuous twists."""

    __slots__ = ()


def _finite_twists(name: str, shown: object, twists: tuple) -> tuple[float, ...]:
    """twists as floats, once isfinite finds each a finite real number (float()
    would parse a str); an error names ``name`` and shows ``shown``, as given."""
    try:
        if all(map(isfinite, twists)):
            return tuple(map(float, twists))
        raise ValueError(f"{name} must be finite, got {shown}")
    except TypeError:
        pass
    # Raised here, not in the handler, so no builtin error is chained to it.
    raise TypeError(f"{name} must be real, got {shown!r}")


def _doubled_twist(t: float) -> float:
    """2t for a finite twist t; a t whose double overflows is named in the
    error, rather than the infinite double a point or character would report."""
    doubled = 2.0 * t
    # A float, so finite exactly when doubled - doubled is 0.0, as in a point.
    if doubled - doubled != 0.0:
        raise ValueError(f"twist {t!r} overflows when doubled")
    return doubled


def _real_label_sets(shapes: list, cutoff: int, label: Callable, choose: Callable) -> Iterator:
    """(gl2, gl1) label tuples on the shapes in turn, gl2-major: gl2 from {1..cutoff}, gl1
    from {0, 1}, each through ``label``, drawn by ``choose`` with or without repeats."""
    _require_at_least("cutoff", cutoff, 1)
    # itertools lists its pool first, so with no 2-block no gl2 pool is built:
    # then a huge cutoff is free.
    gl2s = tuple(map(label, range(1, cutoff + 1))) if any(s.q for s in shapes) else ()
    gl1s = tuple(map(label, (0, 1)))
    return ((gl2, gl1) for s in shapes for gl2 in choose(gl2s, s.q) for gl1 in choose(gl1s, s.r))


def _label_blocks(
    field: str, n: int, cutoff: int, label: Callable, choose: Callable, parities: tuple
) -> Iterator:
    """Label blocks, in catalog order, of the field's components whose dimension
    has one of these parities, each label passed through ``label`` and drawn
    by ``choose``: with repeats the catalog, without its free components.  n
    is checked first and, for both parities, then the cutoff."""
    if field == "real":
        shapes = [s for s in enumerate_levi_shapes(n) if (s.q + s.r) % 2 in parities]
        return _real_label_sets(shapes, cutoff, label, choose)
    _require_at_least("n", n, 1)
    if n % 2 not in parities:
        return iter(())
    _require_at_least("cutoff", cutoff, 1)
    return zip(choose(map(label, range(-cutoff, cutoff + 1)), n))


def _catalog(field: str, n: int, cutoff: int, label: Callable) -> Iterator:
    """Label blocks of the field's whole catalog: every component, in order."""
    return _label_blocks(field, n, cutoff, label, combinations_with_replacement, (0, 1))


def enumerate_orbits(shape: LeviShape, cutoff: int) -> list[SigmaOrbit]:
    """All orbits on the shape with gl2 labels drawn from {1..cutoff}.

    gl1 labels range over {0, 1} and need no truncation.  The order is
    lexicographic, gl2-major; the count is C(cutoff + q - 1, q) * (r + 1).
    """
    if type(shape) is not LeviShape:
        raise TypeError(f"enumerate_orbits takes a LeviShape, got {shape!r}")
    label_sets = _real_label_sets([shape], cutoff, int, combinations_with_replacement)
    return list(starmap(SigmaOrbit, label_sets))


def real_components(n: int, cutoff: int) -> list[Component]:
    """Component catalog for GL(n, R), gl2 labels truncated at cutoff.

    Order is deterministic: shape-major (descending q), orbit-minor
    lexicographic, so identical inputs always serialize identically.
    """
    return [Component(orbit) for orbit in starmap(SigmaOrbit, _catalog("real", n, cutoff, int))]


def complex_components(n: int, cutoff: int) -> list[ComplexComponent]:
    """Catalog for GL(n, C): all label multisets drawn from [-cutoff, cutoff]."""
    return list(starmap(ComplexComponent, _catalog("complex", n, cutoff, int)))


def _real_catalog_size(n: int, cutoff: int) -> int | float:
    """len(real_components(n, cutoff)), unchecked and bounded: the sum over
    shapes of C(cutoff + q - 1, q)(r + 1), by the hockey-stick identity."""
    q, odd = divmod(n, 2)
    top = cutoff + q + 1
    return _binomial(top, q) + (_binomial(top, q) if odd else _binomial(top - 1, q - 1))


def _shape_catalog_size(q: int, r: int, cutoff: int) -> int | float:
    """len(enumerate_orbits(LeviShape(q, r), cutoff)), unchecked and bounded."""
    return _binomial(cutoff + q - 1, q) * (r + 1)


def _widest_blocks(
    field: str, n: int, cutoff: int, free: bool = False
) -> list[tuple[list[str], ...]]:
    """Label blocks, as strings, of a widest-keyed component of each shape in
    the field's catalog, in catalog order, or of each shape with a free
    component when ``free`` (unchecked): every label written widest, -cutoff
    over C; the cutoff in a gl2 block and a one-digit gl1 label over R, where
    a free component has at most two gl1 labels, 0 and 1."""
    # For ``free``, a key reader, the cutoff's width is bounded from its bits,
    # not written: str refuses an int past 4300 digits.
    widest = "9" * (cutoff.bit_length() // 3 + 1) if free else str(cutoff)
    if field == "complex":
        return [([f"-{widest}"] * n,)]
    most_gl1 = min(n, 2) if free else n
    return [([widest] * ((n - r) // 2), ["0"] * r) for r in range(n % 2, most_gl1 + 1, 2)]


def _complex_catalog_size(n: int, cutoff: int) -> int | float:
    """len(complex_components(n, cutoff)), unchecked and bounded."""
    return _binomial(2 * cutoff + n, n)


# (q, r) -> its one LeviShape: shapes are immutable, so every component of
# a shape shares it.  An empty shape raises in LeviShape, before anything is
# stored.
_SHAPES = _Memo(lambda counts: LeviShape(*counts))


def _block_lines(block: Iterable) -> int:
    """Chart lines of one label block (ints or strings): its distinct labels."""
    return len(set(block))


def cone_chart(component: Component | ComplexComponent) -> ConeChart:
    """Mean-and-gaps chart of the component's orbit space.

    A sorted block has one run per distinct label, and a run of m equal
    labels gives one line and m - 1 rays.  So the lines are the distinct
    labels of each block (``_block_lines``), summed, and the rays are the
    rest: num_rays = dimension - num_lines = sum(m - 1 for m in
    multiplicities).  This is the one free-or-cone rule, which the CLI reads
    off each block of a record's label strings: a component is free exactly
    when its chart has no ray, found with no run scan.  Each call builds a
    new chart; the CLI never calls this.
    """
    if not isinstance(component, _FreeOrCone):
        raise TypeError(f"cone_chart takes a Component or a ComplexComponent, got {component!r}")
    lines = sum(map(_block_lines, component.label_blocks))
    return ConeChart(lines, component.dimension - lines)


def canonicalize_point(point: TemperedPoint) -> TemperedPoint:
    """One representative per isotropy orbit: sort each equal-label run.

    Sorting the (label, twist) pairs of a block, whose labels are already
    sorted, reorders twists only within runs of equal labels.  Idempotent,
    and invariant under any permutation of parameters within such a run.
    A point that is already canonical is returned itself, not a copy:
    points are immutable, so sharing one is safe.
    """
    if not isinstance(point, TemperedPoint):
        raise TypeError(f"canonicalize_point takes a TemperedPoint, got {point!r}")
    twists = iter(point.params)
    params = []
    for block in point.component.label_blocks:
        # zip stops at the end of the block without drawing the next twist.
        for _, t in sorted(zip(block, twists)):
            params.append(t)
    canonical = tuple(params)
    # The sort is stable, so the twists are equal exactly when it moved nothing.
    if canonical == point.params:
        return point
    return type(point)(point.component, canonical)
