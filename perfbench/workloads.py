"""The benchmark's four workloads: seeded inputs, ops and answer checks.

Each workload function takes a seed and returns a list of ``Op``.  An op's
``run`` is the timed call into temperedk; its ``check`` gets the result and
returns ``None`` when it is right, or a message saying what is wrong.  The
checks use only the standard library and the published behaviour (golden
CLI bytes, binomial ranks, the shape of the induced map); nothing here
imports the repository's tests.

Library functions are looked up on their modules at call time, so the
tracer's rebinding reaches them.  Each workload does the same amount of
work for every seed: the seed picks the order of the ops and the random
classes and parameters, never the sizes.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional

from temperedk import base_change, cli, ktheory, param_space, weil

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------- catalog_export

# No two commands enumerate the same (n, cutoff, field) catalog: kmap reads
# both fields at its (n, cutoff), bc the real one.  The error commands must
# exit 1 with nothing on stdout.
CATALOG_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("partitions", "--n", "2"),
    ("partitions", "--n", "9", "--format", "json"),
    ("partitions", "--n", "16"),
    ("partitions", "--n", "24", "--format", "json"),
    ("components", "--n", "3", "--cutoff", "9", "--format", "json"),
    ("components", "--n", "4", "--cutoff", "6"),
    ("components", "--n", "5", "--cutoff", "5", "--format", "json"),
    ("components", "--n", "6", "--cutoff", "4"),
    ("components", "--n", "7", "--cutoff", "4", "--format", "json"),
    ("components", "--n", "8", "--cutoff", "3"),
    ("components", "--n", "1", "--cutoff", "40", "--field", "complex"),
    ("components", "--n", "2", "--cutoff", "9", "--field", "complex", "--format", "json"),
    ("components", "--n", "3", "--cutoff", "5", "--field", "complex"),
    ("components", "--n", "4", "--cutoff", "4", "--field", "complex", "--format", "json"),
    ("components", "--n", "5", "--cutoff", "3", "--field", "complex", "--format", "json"),
    ("components", "--n", "6", "--cutoff", "4", "--field", "complex", "--format", "json"),
    ("ktheory", "--n", "6", "--cutoff", "6"),
    ("ktheory", "--n", "3", "--cutoff", "6", "--field", "complex", "--format", "json"),
    ("bc", "--n", "2", "--cutoff", "12", "--format", "json"),
    ("bc", "--n", "3", "--cutoff", "7"),
    ("bc", "--n", "4", "--cutoff", "5", "--format", "json"),
    ("bc", "--n", "5", "--cutoff", "4"),
    ("bc", "--n", "6", "--cutoff", "3", "--format", "json"),
    ("kmap", "--n", "1", "--cutoff", "25"),
    ("kmap", "--n", "1", "--cutoff", "60", "--format", "json"),
    ("kmap", "--n", "2", "--cutoff", "6", "--format", "json"),
    ("kmap", "--n", "3", "--cutoff", "4"),
    ("kmap", "--n", "4", "--cutoff", "3", "--format", "json"),
    ("kmap", "--n", "5", "--cutoff", "2"),
    ("components", "--n", "0"),
    ("bc", "--n", "3", "--cutoff", "0", "--format", "json"),
    ("kmap", "--n", "4", "--cutoff", "1"),
    ("partitions", "--n", "-2"),
)


def run_cli(argv: tuple[str, ...]) -> tuple[Any, str]:
    """(exit code, stdout) of one in-process ``temperedk`` invocation."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_fingerprint(code: Any, stdout: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        entries = json.load(handle)["commands"]
    return {" ".join(entry["argv"]): {"exit": entry["exit"], "sha256": entry["sha256"]} for entry in entries}


def golden_check(expected: Optional[dict]) -> Callable[[Any], Optional[str]]:
    def check(result: tuple[Any, str]) -> Optional[str]:
        if expected is None:
            return "no golden output recorded for this command"
        got = cli_fingerprint(*result)
        if got["exit"] != expected["exit"]:
            return f"exit code {got['exit']}, expected {expected['exit']}"
        if got["sha256"] != expected["sha256"]:
            return f"stdout sha256 {got['sha256'][:12]}..., expected {expected['sha256'][:12]}..."
        return None

    return check


def catalog_export(seed: int) -> list[Op]:
    golden = load_golden()
    commands = list(CATALOG_COMMANDS)
    random.Random(seed).shuffle(commands)
    return [
        Op(" ".join(argv), lambda argv=argv: run_cli(argv), golden_check(golden.get(" ".join(argv))))
        for argv in commands
    ]


# ---------------------------------------------------------------- kgroup_ladder

K_REAL_LADDER = (
    (1, 50), (2, 6), (2, 30), (3, 5), (3, 15), (4, 4), (4, 10), (5, 3), (5, 8),
    (6, 4), (6, 7), (7, 4), (7, 6), (8, 4), (8, 5), (9, 5), (10, 5),
)
K_COMPLEX_LADDER = (
    (1, 30), (1, 200), (2, 8), (2, 25), (3, 5), (3, 10), (4, 4), (4, 7),
    (5, 3), (5, 5), (6, 3), (6, 4), (7, 3), (8, 4),
)
KMAP_LADDER = (
    (1, 10), (1, 80), (2, 5), (2, 12), (3, 3), (3, 6), (4, 3), (4, 5), (5, 3), (5, 4), (6, 4),
)
CLOSED_FORM_NS = range(1, 41)
CLOSED_FORM_CUTOFFS = range(1, 13)


def real_generator_keys(n: int, cutoff: int) -> tuple[set[str], set[str]]:
    """Free real components by degree: distinct gl2 labels, and gl1 labels
    that are distinct too, so r <= 2 and r = 2 means {trivial, sign}."""
    keys: tuple[set[str], set[str]] = (set(), set())
    for r, gl1_choices in ((0, [()]), (1, [(0,), (1,)]), (2, [(0, 1)])):
        q, rest = divmod(n - r, 2)
        if rest or q < 0:
            continue
        for gl2 in combinations(range(1, cutoff + 1), q):
            for gl1 in gl1_choices:
                key = "shape:{},{}|gl2:{}|gl1:{}".format(
                    q, r, ",".join(map(str, gl2)), ",".join(map(str, gl1))
                )
                keys[(q + r) % 2].add(key)
    return keys


def real_ranks(n: int, cutoff: int) -> tuple[int, int]:
    """Binomial ranks of K_0 and K_1 of C*_r GL(n, R) at a label cutoff."""
    q, odd = divmod(n, 2)
    if odd:
        main, other, degree = 2 * comb(cutoff, q), 0, (q + 1) % 2
    else:
        main, other, degree = comb(cutoff, q), comb(cutoff, q - 1), q % 2
    return (main, other) if degree == 0 else (other, main)


def complex_ranks(n: int, cutoff: int) -> tuple[int, int]:
    rank = comb(2 * cutoff + 1, n)
    return (rank, 0) if n % 2 == 0 else (0, rank)


def _presentation_problem(p: Any, degree: int, rank: int, keys: Optional[set[str]]) -> Optional[str]:
    got = list(p.generator_keys)
    if p.degree != degree or len(got) != rank:
        return f"degree {p.degree} rank {len(got)}, expected degree {degree} rank {rank}"
    if len(set(got)) != rank:
        return f"degree {degree}: repeated generators"
    if keys is not None and set(got) != keys:
        return f"degree {degree}: generators differ from the free components"
    return None


def check_k_real(n: int, cutoff: int) -> Callable[[Any], Optional[str]]:
    def check(result: Any) -> Optional[str]:
        keys = real_generator_keys(n, cutoff)
        for degree, (p, rank) in enumerate(zip(result, real_ranks(n, cutoff))):
            problem = _presentation_problem(p, degree, rank, keys[degree])
            if problem is None and p.closed_form.rank_at(cutoff) != rank:
                problem = f"closed form predicts {p.closed_form.rank_at(cutoff)} in degree {degree}"
            if problem:
                return f"k_real({n}, {cutoff}): {problem}"
        return None

    return check


def complex_generator_keys(n: int, cutoff: int) -> set[str]:
    return {"labels:" + ",".join(map(str, c)) for c in combinations(range(-cutoff, cutoff + 1), n)}


def check_k_complex(n: int, cutoff: int) -> Callable[[Any], Optional[str]]:
    def check(result: Any) -> Optional[str]:
        live = complex_generator_keys(n, cutoff)
        for degree, (p, rank) in enumerate(zip(result, complex_ranks(n, cutoff))):
            keys = live if degree == n % 2 else set()
            problem = _presentation_problem(p, degree, rank, keys)
            if problem is None and p.closed_form.rank_at(cutoff) != rank:
                problem = f"closed form predicts {p.closed_form.rank_at(cutoff)} in degree {degree}"
            if problem:
                return f"k_complex({n}, {cutoff}): {problem}"
        return None

    return check


N1_REAL_GENERATORS = {"shape:0,1|gl2:|gl1:0": 1, "shape:0,1|gl2:|gl1:1": 1}


def check_kmap(n: int, cutoff: int) -> Callable[[Any], Optional[str]]:
    def check(kmap: Any) -> Optional[str]:
        degree = n % 2
        source_rank = complex_ranks(n, cutoff)[degree]
        target_rank = real_ranks(n, cutoff)[degree]
        if (kmap.source.rank, kmap.target.rank) != (source_rank, target_rank):
            return f"kmap({n}, {cutoff}): ranks {kmap.source.rank}->{kmap.target.rank}"
        if n >= 2:
            if not kmap.is_zero or kmap.support:
                return f"kmap({n}, {cutoff}): nonzero for n >= 2"
            return None
        if kmap.support != ("labels:0",):
            return f"kmap(1, {cutoff}): support {kmap.support}"
        if kmap.image_of("labels:0").coefficients != N1_REAL_GENERATORS:
            return f"kmap(1, {cutoff}): image of labels:0 is not both real generators"
        return None

    return check


def closed_forms() -> list[tuple[int, int, int, int, int]]:
    rows = []
    for n in CLOSED_FORM_NS:
        real = ktheory.closed_form_real(n)
        cplx = ktheory.closed_form_complex(n)
        for cutoff in CLOSED_FORM_CUTOFFS:
            rows.append(
                (n, cutoff)
                + tuple(f.rank_at(cutoff) for f in real)
                + tuple(f.rank_at(cutoff) for f in cplx)
            )
    return rows


def check_closed_forms(rows: list[tuple[int, ...]]) -> Optional[str]:
    expected = [
        (n, cutoff) + real_ranks(n, cutoff) + complex_ranks(n, cutoff)
        for n in CLOSED_FORM_NS
        for cutoff in CLOSED_FORM_CUTOFFS
    ]
    for got, want in zip(rows, expected):
        if got != want:
            return f"closed forms at n={want[0]}, cutoff={want[1]}: {got[2:]}, expected {want[2:]}"
    return None if len(rows) == len(expected) else "closed forms: wrong number of rows"


def kgroup_ladder(seed: int) -> list[Op]:
    ops = [Op("closed_forms", closed_forms, check_closed_forms)]
    for n, cutoff in K_REAL_LADDER:
        ops.append(Op(f"k_real {n} {cutoff}", lambda n=n, c=cutoff: ktheory.k_real(n, c), check_k_real(n, cutoff)))
    for n, cutoff in K_COMPLEX_LADDER:
        ops.append(
            Op(f"k_complex {n} {cutoff}", lambda n=n, c=cutoff: ktheory.k_complex(n, c), check_k_complex(n, cutoff))
        )
    for n, cutoff in KMAP_LADDER:
        ops.append(
            Op(f"induced_k_map {n} {cutoff}", lambda n=n, c=cutoff: base_change.induced_k_map(n, c), check_kmap(n, cutoff))
        )
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- class_algebra

# (n, cutoff) of each induced map; the source presentations have rank
# 401, 300, 165 and 126.  Each map is built once, before timing.
CLASS_MAPS = ((1, 200), (2, 12), (3, 5), (4, 4))
IMAGE_KEYS = 40
SCALAR = 3


def _pruned(coefficients: dict[str, int]) -> dict[str, int]:
    return {k: c for k, c in coefficients.items() if c != 0}


def _combine(a: dict[str, int], b: dict[str, int], scalar: int = 1) -> dict[str, int]:
    total = dict(a)
    for key, coeff in b.items():
        total[key] = total.get(key, 0) + scalar * coeff
    return _pruned(total)


def expected_pullback(n: int, coefficients: dict[str, int]) -> dict[str, int]:
    """Only n = 1 has a nonzero K-map: labels:0 goes to both real lines."""
    if n != 1:
        return {}
    c = coefficients.get("labels:0", 0)
    return {key: c for key in N1_REAL_GENERATORS} if c else {}


def _coefficients_problem(what: str, got: Any, want: dict[str, int]) -> Optional[str]:
    coefficients = got.coefficients
    return None if coefficients == want else f"{what}: {len(coefficients)} terms differ from the expected {len(want)}"


def _random_terms(rng: random.Random, keys: list[str], count: int) -> dict[str, int]:
    return {key: rng.randint(-9, 9) for key in rng.sample(keys, count)}


def class_algebra(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n, cutoff in CLASS_MAPS:
        kmap = base_change.induced_k_map(n, cutoff)
        source = kmap.source
        keys = list(source.generator_keys)
        terms = len(keys) // 2
        spec_a = _random_terms(rng, keys, terms)
        spec_b = _random_terms(rng, keys, terms)
        if n == 1:
            spec_a["labels:0"] = rng.choice((-2, -1, 1, 2))
        a = ktheory.kclass(source, spec_a)
        b = ktheory.kclass(source, spec_b)
        image_keys = rng.sample(keys, IMAGE_KEYS)
        tag = f"n={n} L={cutoff}"

        def image_check(images: list, n=n, image_keys=image_keys, tag=tag) -> Optional[str]:
            for key, image in zip(image_keys, images):
                want = dict(N1_REAL_GENERATORS) if (n == 1 and key == "labels:0") else {}
                if image.coefficients != want:
                    return f"image_of({key}) {tag}"
            return None

        # The pullbacks of a and b that linearity is checked against are
        # computed once here, untimed, so that the timed op stays short
        # enough for the reference kernel around it to track host drift.
        linear_want = _combine(*(base_change.pullback(kmap, x).coefficients for x in (a, b)), SCALAR)
        oracle_want = expected_pullback(n, _combine(spec_a, spec_b, SCALAR))

        def linear_check(result: Any, linear_want=linear_want, oracle_want=oracle_want, tag=tag) -> Optional[str]:
            if result.coefficients != linear_want:
                return f"pullback is not linear {tag}"
            return _coefficients_problem(f"pullback(a + {SCALAR}b) {tag}", result, oracle_want)

        ops += [
            Op(
                f"kclass {tag}",
                lambda s=source, spec=spec_a: ktheory.kclass(s, spec),
                lambda r, want=_pruned(spec_a), tag=tag: _coefficients_problem(f"kclass {tag}", r, want),
            ),
            Op(
                f"kclass_add {tag}",
                lambda a=a, b=b: ktheory.kclass_add(a, b),
                lambda r, want=_combine(spec_a, spec_b), tag=tag: _coefficients_problem(f"a + b {tag}", r, want),
            ),
            Op(
                f"kclass_scale {tag}",
                lambda a=a: ktheory.kclass_scale(a, -SCALAR),
                lambda r, want=_combine({}, spec_a, -SCALAR), tag=tag: _coefficients_problem(f"-3a {tag}", r, want),
            ),
            Op(
                f"inverse {tag}",
                lambda a=a: ktheory.kclass_add(a, ktheory.kclass_scale(a, -1)),
                lambda r, tag=tag: None if r.is_zero else f"a + (-1)a is not zero {tag}",
            ),
            Op(
                f"image_of {tag}",
                lambda kmap=kmap, image_keys=image_keys: [kmap.image_of(k) for k in image_keys],
                image_check,
            ),
            Op(
                f"pullback {tag}",
                lambda kmap=kmap, a=a: base_change.pullback(kmap, a),
                lambda r, want=expected_pullback(n, _pruned(spec_a)), tag=tag: _coefficients_problem(
                    f"pullback(a) {tag}", r, want
                ),
            ),
            Op(
                f"pullback_linear {tag}",
                lambda kmap=kmap, a=a, b=b: base_change.pullback(
                    kmap, ktheory.kclass_add(a, ktheory.kclass_scale(b, SCALAR))
                ),
                linear_check,
            ),
        ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- point_transport

POINT_BATCHES = 6
POINTS_PER_BATCH = 160
MAX_N = 8
GL2_LABELS = (1, 2, 3)


def random_spec(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Summands (size, label, twist) of one tempered parameter of GL(n, R).
    Labels come from a few values, so repeated labels are common."""
    spec = []
    left = n
    while left:
        t = rng.randrange(-400, 401) / 100
        if left >= 2 and rng.random() < 0.6:
            spec.append((2, rng.choice(GL2_LABELS), t))
            left -= 2
        else:
            spec.append((1, rng.randrange(2), t))
            left -= 1
    return spec


def build_parameter(spec: list[tuple[int, int, float]]) -> Any:
    summands = [
        weil.TwoDimInduced(weil.ComplexCharacter(label, t)) if size == 2 else weil.OneDim(weil.RealCharacter(label, t))
        for size, label, t in spec
    ]
    return weil.LParameterR(tuple(summands))


def real_point_of(spec: list[tuple[int, int, float]]) -> tuple[str, tuple[float, ...]]:
    """Component key and canonical twists of the point matched with spec."""
    gl2 = sorted((label, t) for size, label, t in spec if size == 2)
    gl1 = sorted((label, t) for size, label, t in spec if size == 1)
    key = "shape:{},{}|gl2:{}|gl1:{}".format(
        len(gl2), len(gl1), ",".join(str(label) for label, _ in gl2), ",".join(str(label) for label, _ in gl1)
    )
    return key, tuple(t for _, t in gl2) + tuple(t for _, t in gl1)


def restricted_of(spec: list[tuple[int, int, float]]) -> list[tuple[int, float]]:
    """Windings and twists of the restriction to C^*, sorted."""
    pairs = []
    for size, label, t in spec:
        if size == 2:
            pairs += [(label, t), (-label, t)]
        else:
            pairs.append((0, 2.0 * t))
    return sorted(pairs)


def _shuffled_within_blocks(rng: random.Random, labels: tuple[int, ...], params: tuple[float, ...], offset: int) -> list[float]:
    out = list(params)
    start = 0
    while start < len(labels):
        stop = start
        while stop < len(labels) and labels[stop] == labels[start]:
            stop += 1
        block = out[offset + start : offset + stop]
        rng.shuffle(block)
        out[offset + start : offset + stop] = block
        start = stop
    return out


def _spec_problem(what: str, got: list[tuple[int, int, float]], spec: list[tuple[int, int, float]]) -> Optional[str]:
    return None if sorted(got) == sorted(spec) else f"{what}: summands differ from the input"


def _summands_of(parameter: Any) -> list[tuple[int, int, float]]:
    return [
        (2, s.chi.ell, s.chi.t) if isinstance(s, weil.TwoDimInduced) else (1, s.chi.epsilon, s.chi.t)
        for s in parameter.summands
    ]


def _real_points_problem(what: str, points: list, want: list[tuple[str, tuple[float, ...]]]) -> Optional[str]:
    for i, (point, (key, params)) in enumerate(zip(points, want)):
        if point.component.key != key or point.params != params:
            return f"{what} #{i}: {point.component.key} {point.params}, expected {key} {params}"
    return None


def _complex_points_problem(what: str, points: list, want: list[list[tuple[int, float]]]) -> Optional[str]:
    for i, (point, pairs) in enumerate(zip(points, want)):
        if list(zip(point.component.labels, point.params)) != pairs:
            return f"{what} #{i}: labels and twists differ from the restricted parameter"
    return None


def point_transport(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for batch in range(POINT_BATCHES):
        specs = [random_spec(rng, 1 + i % MAX_N) for i in range(POINTS_PER_BATCH)]
        params = [build_parameter(spec) for spec in specs]
        restricted = [weil.restrict(p) for p in params]
        points = [weil.langlands_real(p) for p in params]
        real_want = [real_point_of(spec) for spec in specs]
        complex_want = [restricted_of(spec) for spec in specs]
        shuffled = []
        for point in points:
            component = point.component
            q = component.shape.q
            twists = _shuffled_within_blocks(rng, component.orbit.gl2_labels, point.params, 0)
            twists = _shuffled_within_blocks(rng, component.orbit.gl1_labels, tuple(twists), q)
            shuffled.append(param_space.RealTemperedPoint(component, tuple(twists)))
        complex_shuffled = [
            param_space.ComplexTemperedPoint(
                c.component, tuple(_shuffled_within_blocks(rng, c.component.labels, c.params, 0))
            )
            for c in (weil.langlands_complex(r) for r in restricted)
        ]
        tag = f"batch {batch}"

        def build_check(result: list, specs=specs, tag=tag) -> Optional[str]:
            for i, (parameter, spec) in enumerate(zip(result, specs)):
                problem = _spec_problem(f"LParameterR {tag} #{i}", _summands_of(parameter), spec)
                if problem:
                    return problem
            return None

        def round_trip_check(result: list, params=params, tag=tag) -> Optional[str]:
            for i, (back, parameter) in enumerate(zip(result, params)):
                if back != parameter:
                    return f"langlands_real_inverse {tag} #{i} does not return the parameter"
            return None

        def restrict_check(result: list, want=complex_want, tag=tag) -> Optional[str]:
            for i, (parameter, pairs) in enumerate(zip(result, want)):
                if [(c.ell, c.t) for c in parameter.summands] != pairs:
                    return f"restrict {tag} #{i}: characters differ"
            return None

        def canonical_check(result: tuple, real_want=real_want, complex_want=complex_want, tag=tag) -> Optional[str]:
            return _real_points_problem(f"canonicalize real {tag}", result[0], real_want) or _complex_points_problem(
                f"canonicalize complex {tag}", result[1], complex_want
            )

        ops += [
            Op(f"build {tag}", lambda specs=specs: [build_parameter(s) for s in specs], build_check),
            Op(f"restrict {tag}", lambda params=params: [weil.restrict(p) for p in params], restrict_check),
            Op(
                f"langlands_real {tag}",
                lambda params=params: [weil.langlands_real(p) for p in params],
                lambda r, want=real_want, tag=tag: _real_points_problem(f"langlands_real {tag}", r, want),
            ),
            Op(
                f"langlands_real_inverse {tag}",
                lambda shuffled=shuffled: [weil.langlands_real_inverse(x) for x in shuffled],
                round_trip_check,
            ),
            Op(
                f"langlands_complex {tag}",
                lambda restricted=restricted: [weil.langlands_complex(r) for r in restricted],
                lambda r, want=complex_want, tag=tag: _complex_points_problem(f"langlands_complex {tag}", r, want),
            ),
            Op(
                f"canonicalize_point {tag}",
                lambda shuffled=shuffled, cs=complex_shuffled: (
                    [param_space.canonicalize_point(x) for x in shuffled],
                    [param_space.canonicalize_point(x) for x in cs],
                ),
                canonical_check,
            ),
            Op(
                f"bc_point_real {tag}",
                lambda shuffled=shuffled: [base_change.bc_point_real(x) for x in shuffled],
                lambda r, want=complex_want, tag=tag: _complex_points_problem(f"commuting square {tag}", r, want),
            ),
        ]
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "catalog_export": catalog_export,
    "kgroup_ladder": kgroup_ladder,
    "class_algebra": class_algebra,
    "point_transport": point_transport,
}
