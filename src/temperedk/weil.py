"""Weil groups of R and C, their tempered L-parameters, and the Langlands
match with components of the tempered dual.

W_C is just C^*, so its unitary characters are pairs (ell, t) acting as
(z/|z|)^ell |z|^(2it) up to normalization; only the pair matters here, so a
character is stored as its integer winding and real twist.  W_R contains C^*
with index two, and its irreducibles are the two one-dimensional characters
sgn^eps |.|^it of the abelianization together with the two-dimensional
representations induced from C^* characters with nonzero winding.  Inducing
(ell, t) and (-ell, t) gives the same representation, so ell >= 1 is the
canonical label.

The Langlands correspondence for GL over R and C matches a tempered
parameter's multiset of summands with a point of the tempered dual: each
two-dimensional summand feeds a gl2 block of the Levi, each character a gl1
block, and the twists become the continuous coordinates.
"""

from __future__ import annotations

from math import isfinite
from operator import attrgetter
from typing import Union

from .levi import SigmaOrbit, _require_int, _setters, _unpacked, _Value
from .param_space import (
    ComplexComponent,
    ComplexTemperedPoint,
    Component,
    RealTemperedPoint,
    _doubled_twist,
)


def _finite_twist(t: float) -> float:
    """t as a float; isfinite runs first because float() would parse a str."""
    if not isfinite(t):
        raise ValueError(f"twist must be finite, got {t}")
    return float(t)


class RealCharacter(_Value):
    """Unitary character sgn^epsilon |.|^(i t) of R^*."""

    __slots__ = _fields = ("epsilon", "t")

    def __init__(self, epsilon: int, t: float) -> None:
        if type(epsilon) is not int:
            _require_int("epsilon", epsilon)
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        _set_real_epsilon(self, epsilon)
        # Inline test first: t - t is 0.0 for a finite float, NaN for NaN and
        # +-inf, so only a twist that is not a finite float takes the call.
        _set_real_t(self, t if type(t) is float and t - t == 0.0 else _finite_twist(t))


_set_real_epsilon, _set_real_t = _setters(RealCharacter)


class ComplexCharacter(_Value):
    """Unitary character (z/|z|)^ell |z|^(i t) of C^*, |z| the usual modulus."""

    __slots__ = _fields = ("ell", "t")

    def __init__(self, ell: int, t: float) -> None:
        if type(ell) is not int:
            _require_int("ell", ell)
        _set_complex_ell(self, ell)
        _set_complex_t(self, t if type(t) is float and t - t == 0.0 else _finite_twist(t))


_set_complex_ell, _set_complex_t = _setters(ComplexCharacter)


class OneDim(_Value):
    """One-dimensional summand of a W_R parameter."""

    __slots__ = _fields = ("chi",)

    def __init__(self, chi: RealCharacter) -> None:
        if type(chi) is not RealCharacter:
            raise TypeError(f"a OneDim summand wraps a RealCharacter, got {chi!r}")
        _set_one_dim_chi(self, chi)


(_set_one_dim_chi,) = _setters(OneDim)


class TwoDimInduced(_Value):
    """Two-dimensional summand induced from a C^* character with ell >= 1."""

    __slots__ = _fields = ("chi",)

    def __init__(self, chi: ComplexCharacter) -> None:
        if type(chi) is not ComplexCharacter:
            raise TypeError(f"a TwoDimInduced summand wraps a ComplexCharacter, got {chi!r}")
        if chi.ell < 1:
            raise ValueError(
                f"induced summands need winding >= 1, got {chi.ell}; winding 0 induces reducibly"
            )
        _set_two_dim_chi(self, chi)


(_set_two_dim_chi,) = _setters(TwoDimInduced)


Summand = Union[OneDim, TwoDimInduced]

_twist_of = attrgetter("chi.t")


def _summand_key(s: Summand) -> tuple:
    if type(s) is TwoDimInduced:
        return (0, s.chi.ell, s.chi.t)
    if type(s) is OneDim:
        return (1, s.chi.epsilon, s.chi.t)
    raise TypeError(f"a W_R summand is a OneDim or a TwoDimInduced, got {s!r}")


def _character_key(c: ComplexCharacter) -> tuple:
    if type(c) is not ComplexCharacter:
        raise TypeError(f"a W_C summand is a ComplexCharacter, got {c!r}")
    return (c.ell, c.t)


class _Parameter(_Value):
    """A multiset of summands, sorted by the class's ``_order``, which checks
    each; ``_what`` names them when the argument cannot be iterated."""

    __slots__ = _fields = ("summands",)

    def __init__(self, summands: tuple) -> None:
        if type(summands) is not tuple:
            summands = _unpacked("summands", summands, self._what)
        ordered = sorted(summands, key=self._order)
        if not ordered:
            raise ValueError("a parameter needs at least one summand")
        _set_summands(self, tuple(ordered))


(_set_summands,) = _setters(_Parameter)


class LParameterR(_Parameter):
    """Tempered L-parameter of GL(n, R): a multiset of summands.

    Summands are kept sorted (two-dimensional first, then by label and
    twist) so equal parameters compare equal.
    """

    __slots__ = ()
    _what = "W_R summands"
    _order = staticmethod(_summand_key)

    @property
    def n(self) -> int:
        # Exact: _summand_key admits no subclass of either summand class.
        return sum(2 if type(s) is TwoDimInduced else 1 for s in self.summands)


class LParameterC(_Parameter):
    """Tempered L-parameter of GL(n, C): a multiset of C^* characters."""

    __slots__ = ()
    _what = "W_C summands"
    _order = staticmethod(_character_key)

    @property
    def n(self) -> int:
        return len(self.summands)


def restrict(parameter: LParameterR) -> LParameterC:
    """Restriction of a W_R parameter to the index-two subgroup C^*.

    A character sgn^eps |.|^it factors through the abelianization, and the
    composite with the inclusion of C^* is the norm z -> |z|^2, so it
    restricts to |z|^(2it): winding 0, twist doubled.  An induced
    two-dimensional summand restricts to the inducing character plus its
    conjugate, windings ell and -ell with the twist unchanged.  The inducing
    character is the summand's own ``chi``, shared rather than copied:
    characters are immutable.  Only the conjugate is built.
    """
    if type(parameter) is not LParameterR:
        raise TypeError(f"restrict takes an LParameterR, got {parameter!r}")
    parts: list[ComplexCharacter] = []
    for s in parameter.summands:
        chi = s.chi
        if type(s) is TwoDimInduced:
            parts.append(chi)
            parts.append(ComplexCharacter(-chi.ell, chi.t))
        else:
            parts.append(ComplexCharacter(0, _doubled_twist(chi.t)))
    return LParameterC(tuple(parts))


def langlands_real(parameter: LParameterR) -> RealTemperedPoint:
    """Tempered-dual point matched with a W_R parameter.

    Two-dimensional summands fill the gl2 blocks and characters the gl1
    blocks; the parameter's canonical summand order makes the point
    canonical by construction.
    """
    if type(parameter) is not LParameterR:
        raise TypeError(f"langlands_real takes an LParameterR, got {parameter!r}")
    gl2: list[int] = []
    gl1: list[int] = []
    for s in parameter.summands:
        if type(s) is TwoDimInduced:
            gl2.append(s.chi.ell)
        else:
            gl1.append(s.chi.epsilon)
    # The summands are in gl2-then-gl1 order already, as the point's twists
    # are; the orbit copies the label lists.
    params = tuple(map(_twist_of, parameter.summands))
    return RealTemperedPoint(Component(SigmaOrbit(gl2, gl1)), params)


def langlands_real_inverse(point: RealTemperedPoint) -> LParameterR:
    """Parameter matched with a tempered-dual point; inverse of the above.

    The parameter sorts its summands, so the order of the point's twists
    within runs of equal labels does not matter.
    """
    if type(point) is not RealTemperedPoint:
        raise TypeError(f"langlands_real_inverse takes a RealTemperedPoint, got {point!r}")
    orbit = point.component.orbit
    twists = iter(point.params)
    summands: list[Summand] = []
    # zip stops at the end of a block without drawing the next twist.
    for ell, t in zip(orbit.gl2_labels, twists):
        summands.append(TwoDimInduced(ComplexCharacter(ell, t)))
    for eps, t in zip(orbit.gl1_labels, twists):
        summands.append(OneDim(RealCharacter(eps, t)))
    return LParameterR(tuple(summands))


def langlands_complex(parameter: LParameterC) -> ComplexTemperedPoint:
    """Tempered-dual point matched with a W_C parameter.

    The parameter's sorted characters make the point canonical by
    construction.
    """
    if type(parameter) is not LParameterC:
        raise TypeError(f"langlands_complex takes an LParameterC, got {parameter!r}")
    labels, params = zip(*map(ComplexCharacter._values, parameter.summands))
    return ComplexTemperedPoint(ComplexComponent(labels), params)
