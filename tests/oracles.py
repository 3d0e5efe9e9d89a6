"""Independent brute-force computations used to cross-check the package.

Everything here is deliberately naive: ordered-tuple enumeration with
deduplication instead of multiset combinatorics, dense Gaussian elimination
over exact rationals, and an explicit two-dimensional induced representation
of the real Weil group whose restriction is diagonalized numerically.  None
of it imports the package.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction


def orbits_bruteforce(q: int, r: int, cutoff: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All label orbits for a shape, as sorted (gl2, gl1) pairs, found by
    enumerating every ordered tuple and deduplicating canonical forms."""
    seen = set()
    for gl2 in itertools.product(range(1, cutoff + 1), repeat=q):
        for gl1 in itertools.product((0, 1), repeat=r):
            seen.add((tuple(sorted(gl2)), tuple(sorted(gl1))))
    return sorted(seen)


def real_components_bruteforce(n: int, cutoff: int):
    """(q, r, gl2, gl1, dimension, free) for every real component."""
    out = []
    for q in range(n // 2, -1, -1):
        r = n - 2 * q
        for gl2, gl1 in orbits_bruteforce(q, r, cutoff):
            free = len(set(gl2)) == len(gl2) and len(set(gl1)) == len(gl1)
            out.append((q, r, gl2, gl1, q + r, free))
    return out


def k_real_ranks_bruteforce(n: int, cutoff: int) -> tuple[int, int]:
    ranks = [0, 0]
    for _q, _r, _gl2, _gl1, dim, free in real_components_bruteforce(n, cutoff):
        if free:
            ranks[dim % 2] += 1
    return tuple(ranks)


def complex_components_bruteforce(n: int, cutoff: int):
    """(labels, free) for every complex component."""
    out = []
    for labels in itertools.combinations_with_replacement(range(-cutoff, cutoff + 1), n):
        out.append((labels, len(set(labels)) == n))
    return out


def k_complex_rank_bruteforce(n: int, cutoff: int) -> int:
    return sum(1 for _labels, free in complex_components_bruteforce(n, cutoff) if free)


# Component keys in the format the README documents, written from the rows
# above: "shape:q,r|gl2:...|gl1:..." and "labels:...", labels as decimals.


def real_key_bruteforce(q: int, r: int, gl2: tuple[int, ...], gl1: tuple[int, ...]) -> str:
    return "shape:%d,%d|gl2:%s|gl1:%s" % (q, r, _decimals(gl2), _decimals(gl1))


def complex_key_bruteforce(labels: tuple[int, ...]) -> str:
    return "labels:" + _decimals(labels)


def _decimals(labels: tuple[int, ...]) -> str:
    return ",".join("%d" % label for label in labels)


def column_rank_bruteforce(matrix) -> int:
    """Gaussian elimination over Fraction, written independently of the
    package's version (no pivot normalization)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# The real Weil group is C^x together with a second coset j C^x, where
# j^2 = -1 and j z j^{-1} = conj(z).  Elements are encoded (z, k) = z * j^k.


def wr_mul(a, b):
    z1, k1 = a
    z2, k2 = b
    z = z1 * (z2.conjugate() if k1 else z2)
    if k1 and k2:
        z = -z
    return (z, (k1 + k2) % 2)


def chi_value(ell: int, t: float, z: complex) -> complex:
    return (z / abs(z)) ** ell * abs(z) ** complex(0, t)


def induced_restriction_matrix(ell: int, t: float, z: complex):
    """2x2 matrix of the representation induced from chi_{ell,t}, evaluated
    at z in C^x, in the basis indexed by the coset representatives {1, j}."""
    reps = [(1 + 0j, 0), (1 + 0j, 1)]
    inv_reps = [(1 + 0j, 0), (-1 + 0j, 1)]
    x = (z, 0)
    mat = [[0j, 0j], [0j, 0j]]
    for i in range(2):
        for k in range(2):
            g = wr_mul(inv_reps[i], wr_mul(x, reps[k]))
            if g[1] == 0:
                mat[i][k] = chi_value(ell, t, g[0])
    return mat


def identify_character(f) -> tuple[int, float]:
    """Recover (ell, t) of a character of C^x by evaluation.  The sample
    angle is small enough that ell * theta stays within one phase branch
    for every winding tested here."""
    theta = 0.05
    ell = round(cmath.phase(f(cmath.exp(1j * theta))) / theta)
    val = f(math.e) / chi_value(ell, 0.0, math.e)
    t = cmath.phase(val)
    return ell, t


def restricted_labels_by_induction(ell: int, t: float) -> list[tuple[int, float]]:
    """Characters appearing in the restriction of the induced representation
    to C^x, read off the diagonal after confirming it is diagonal."""
    for z in (0.5 + 0.1j, -1.2 + 2j, 3 - 0.25j):
        m = induced_restriction_matrix(ell, t, z)
        assert abs(m[0][1]) < 1e-12 and abs(m[1][0]) < 1e-12
    out = []
    for i in range(2):
        li, ti = identify_character(
            lambda z, i=i: induced_restriction_matrix(ell, t, z)[i][i]
        )
        out.append((li, ti))
    return sorted(out)


def canonical_twists_bruteforce(blocks, twists) -> tuple:
    """Twists with the positions of each label within each block refilled in
    ascending order; ``blocks`` are the label tuples in coordinate order.
    Labels need not be sorted and never match across blocks."""
    out = list(twists)
    start = 0
    for labels in blocks:
        for label in set(labels):
            positions = [start + i for i, x in enumerate(labels) if x == label]
            for pos, t in zip(positions, sorted(out[p] for p in positions)):
                out[pos] = t
        start += len(labels)
    return tuple(out)


# Integer combinations as plain dicts key -> coefficient, zeros dropped: the
# K-class arithmetic spelled out term by term.


def combination_add(a: dict, b: dict) -> dict:
    keys = set(a) | set(b)
    total = {key: a.get(key, 0) + b.get(key, 0) for key in keys}
    return {key: c for key, c in total.items() if c != 0}


def combination_scale(a: dict, scalar: int) -> dict:
    return {key: scalar * c for key, c in a.items() if scalar * c != 0}


def combination_pullback(images: dict, coefficients: dict) -> dict:
    """Sum of coefficient x image over the terms; ``images`` maps a source
    key to its image combination, and a key it lacks maps to zero."""
    total: dict = {}
    for key, coeff in coefficients.items():
        total = combination_add(total, combination_scale(images.get(key, {}), coeff))
    return total
