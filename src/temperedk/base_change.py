"""Base change from GL(n, R) to GL(n, C) on points, components, and K-theory.

On parameters, base change is restriction from W_R to C^*.  On the tempered
dual it therefore sends a real component to one complex component (each gl2
label ell contributes the pair ell, -ell; each gl1 block contributes label
0) and acts on the continuous coordinates by an integer linear map: a gl2
coordinate t feeds both members of its pair, a gl1 coordinate doubles.

That affine picture decides everything about the induced K-theory map.  The
parameter map is proper exactly when its matrix has full column rank, which
holds for every catalog component, so each map pulls compactly supported
K-theory back.  Only degree-one geometry survives the pullback: for n = 1
both real lines land on the winding-0 complex line with coefficient 1,
while for n >= 2 every image component either repeats a label or has
dimension larger than its source, and the induced map vanishes.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Callable, Sequence

from .ktheory import KClass, KGroupPresentation, _by_key, _is_generator, kclass
from .levi import SigmaOrbit, _require_at_least, _require_int, _setters, _unpacked, _Value
from .param_space import (
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    RealTemperedPoint,
    _doubled_twist,
)


class ParameterMap(_Value):
    """Integer linear map between component parameter spaces, rows = target
    coordinates, columns = source coordinates.  The rows are in the order
    its maker gives them, which need not be the target's label order (see
    ``bc_component``)."""

    __slots__ = ("source", "target", "matrix", "column_rank")
    _fields = ("source", "target", "matrix")

    def __init__(
        self, source: Component, target: ComplexComponent, matrix: tuple[tuple[int, ...], ...]
    ) -> None:
        if type(source) is not Component:
            raise TypeError(f"a ParameterMap source must be a Component, got {source!r}")
        if type(target) is not ComplexComponent:
            raise TypeError(f"a ParameterMap target must be a ComplexComponent, got {target!r}")
        rows = tuple(
            _unpacked("matrix row", row, "integers") for row in _unpacked("matrix", matrix, "rows")
        )
        if len(rows) != target.dimension:
            raise ValueError("matrix row count must equal the target dimension")
        for row in rows:
            if len(row) != source.dimension:
                raise ValueError("matrix column count must equal the source dimension")
            for x in row:
                # Inline test first: the rank's gcd and exact division need plain ints.
                if type(x) is not int:
                    _require_int("matrix entry", x)
        _set_map_source(self, source)
        _set_map_target(self, target)
        _set_matrix(self, rows)
        _set_column_rank(self, _column_rank(rows))

    @property
    def is_proper(self) -> bool:
        """Preimages of compacta are compact iff no source direction is
        killed, i.e. the matrix has full column rank."""
        return self.column_rank == self.source.dimension


_set_map_source, _set_map_target, _set_matrix, _set_column_rank = _setters(ParameterMap)


def _column_rank(matrix: tuple[tuple[int, ...], ...]) -> int:
    """Rank over Q by sparse fraction-free elimination with content removal
    (Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9):
    each row is {column: entry}, nonzero entries only; a row's first entry is
    its pivot, whose column is eliminated only from the later rows that have
    it; each new row is divided by the gcd of its entries, so entries stay
    small.  The rank is the number of nonzero rows left."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    for i, pivot_row in enumerate(rows):
        if not pivot_row:
            continue
        col, p = next(iter(pivot_row.items()))
        for k in range(i + 1, len(rows)):
            f = rows[k].get(col)
            if f:
                new = {j: p * x for j, x in rows[k].items()}
                for j, x in pivot_row.items():
                    new[j] = new.get(j, 0) - f * x
                g = gcd(*new.values())
                rows[k] = {j: x // g for j, x in new.items() if x}
    return sum(map(bool, rows))


def _target_labels(
    gl2: Sequence, gl1: Sequence, negate: Callable = "-".__add__, zero: object = "0"
) -> tuple:
    """Sorted target labels of base change on the component with these sorted
    label blocks: label strings, or ints with ``int.__neg__`` and 0.  Each gl2
    label ell gives ell and -ell, each gl1 label 0, and gl2 labels are >= 1,
    so no sort is needed: the negated gl2 labels reversed, zeros, gl2 labels."""
    return (*map(negate, reversed(gl2)), *(zero,) * len(gl1), *gl2)


def bc_component(component: Component) -> ParameterMap:
    """Base change on one real component: target labels and coordinate map.

    Each gl2 label ell lands on the pair {ell, -ell} sharing the source
    coordinate; each gl1 label lands on 0 with the coordinate doubled.

    The matrix lists its rows by source coordinate, not in the target's
    sorted label order: for each gl2 label ell, in order, a row for ell and
    one for -ell, then one row for each gl1 label.  So on SigmaOrbit((3,),
    (0,)) the rows stand for the labels 3, -3, 0, while the target's labels
    are (-3, 0, 3).
    """
    if type(component) is not Component:
        raise TypeError(f"bc_component takes a Component, got {component!r}")
    q = component.shape.q
    target = ComplexComponent(_target_labels(*component.label_blocks, int.__neg__, 0))

    d = component.dimension
    matrix: list[tuple[int, ...]] = []
    for i in range(d):
        row = (0,) * i + (1 if i < q else 2,) + (0,) * (d - i - 1)
        matrix += (row, row) if i < q else (row,)
    return ParameterMap(component, target, tuple(matrix))


def bc_point_real(point: RealTemperedPoint) -> ComplexTemperedPoint:
    """Base change on one tempered-dual point, returned in canonical form.

    Sorting the target's (label, twist) pairs canonicalizes it whatever the
    order of the source's twists within their runs of equal labels, so
    ``canonicalize_point`` returns the result itself.
    """
    if type(point) is not RealTemperedPoint:
        raise TypeError(f"bc_point_real takes a RealTemperedPoint, got {point!r}")
    twists = iter(point.params)
    pairs = []
    # zip stops at the end of the gl2 block without drawing the next twist.
    for ell, t in zip(point.component.orbit.gl2_labels, twists):
        pairs.append((ell, t))
        pairs.append((-ell, t))
    for t in twists:
        pairs.append((0, _doubled_twist(t)))
    pairs.sort()
    # A component has dimension >= 1, so pairs is never empty.
    labels, params = zip(*pairs)
    return ComplexTemperedPoint(ComplexComponent(labels), params)


class InducedKMap(_Value):
    """Induced map on K-theory in one degree, as images of the source
    generators.  Generators absent from ``assignments`` map to the map's one
    zero class of ``target``, built with the map."""

    __slots__ = ("source", "target", "assignments", "_images", "_zero")
    _fields = ("source", "target", "assignments")

    def __init__(
        self,
        source: KGroupPresentation,
        target: KGroupPresentation,
        assignments: tuple[tuple[str, KClass], ...],
    ) -> None:
        if type(source) is not KGroupPresentation:
            raise TypeError(f"an InducedKMap source must be a KGroupPresentation, got {source!r}")
        if type(target) is not KGroupPresentation:
            raise TypeError(f"an InducedKMap target must be a KGroupPresentation, got {target!r}")
        # Read once, checked in the given order, then sorted: every key sorted
        # is then a source key, a string, so a key of another type is named,
        # not compared.
        assignments = _unpacked("assignments", assignments, "(key, KClass) pairs")
        images: dict[str, KClass] = {}
        for key, cls in assignments:
            if not _is_generator(source, key):
                raise ValueError(f"assignment for {key!r}, which is not a source generator")
            if key in images:
                raise ValueError(f"generator {key!r} assigned twice")
            if type(cls) is not KClass:
                raise TypeError(f"image of {key!r} must be a KClass, got {cls!r}")
            if cls.presentation != target:
                raise ValueError(f"image of {key!r} lives in the wrong presentation")
            images[key] = cls
        _set_kmap_source(self, source)
        _set_kmap_target(self, target)
        _set_assignments(self, tuple(sorted(assignments, key=_by_key)))
        _set_images(self, images)
        _set_zero(self, kclass(target))

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(key for key, cls in self.assignments if not cls.is_zero)

    def image_of(self, key: str) -> KClass:
        if not _is_generator(self.source, key):
            raise ValueError(f"{key!r} is not a source generator")
        return self._images.get(key, self._zero)


_set_kmap_source, _set_kmap_target, _set_assignments, _set_images, _set_zero = _setters(InducedKMap)


def induced_k_map(n: int, cutoff: int) -> InducedKMap:
    """Map on K-theory induced by base change, in the only live degree n mod 2.

    Base change sends the real tempered dual into the complex one, and a
    proper continuous map pulls compactly supported K-theory back, so the
    induced map runs from the complex catalog to the real one.  A complex
    generator pulls back to a real generator X with coefficient 1 exactly
    when the parameter map of X lands on it with degree-one affine
    geometry: proper, q = 0, equal dimensions, free target, so only the (at
    most two) q = 0 generators are examined.  They are built directly, an
    n-subset of the gl1 labels {0, 1} each, so none exists for n >= 3 and
    neither presentation lists its generators.  Coordinate doubling is
    ignored because t -> 2t can be deformed to the identity through proper
    maps.  For n = 1 this matches both character lines onto the winding-0
    generator; for n >= 2 no component qualifies and the map is zero.
    """
    _require_at_least("n", n, 1)
    source = KGroupPresentation("complex", n, cutoff, n % 2)
    target = KGroupPresentation("real", n, cutoff, n % 2)
    images: dict[str, dict[str, int]] = {}
    for gl1 in combinations((0, 1), n):
        generator = Component(SigmaOrbit((), gl1))
        pmap = bc_component(generator)
        if pmap.is_proper and pmap.target.is_free and pmap.target.dimension == generator.dimension:
            images.setdefault(pmap.target.key, {})[generator.key] = 1
    assignments = tuple((key, kclass(target, coeffs)) for key, coeffs in images.items())
    return InducedKMap(source, target, assignments)


def pullback(kmap: InducedKMap, cls: KClass) -> KClass:
    """Linear extension of the induced map to an arbitrary class: one pass
    over the class's terms, summed into a single class."""
    if type(kmap) is not InducedKMap:
        raise TypeError(f"pullback takes an InducedKMap, got {kmap!r}")
    if type(cls) is not KClass:
        raise TypeError(f"pullback takes a KClass, got {cls!r}")
    if cls.presentation != kmap.source:
        raise ValueError("class does not live in the map's source presentation")
    total: dict[str, int] = {}
    for key, coeff in cls.items:
        for target_key, c in kmap._images.get(key, kmap._zero).items:
            total[target_key] = total.get(target_key, 0) + coeff * c
    return KClass(kmap.target, tuple(total.items()))
