"""Workloads of the httool benchmark: inputs, operations and oracles.

Every input is made from the frozen census-member pools in `pools.json` with
the benchmark's own rational arithmetic, so generating inputs never runs the
code being measured.  A workload hands out operations one *pass* at a time:
a balanced batch of inputs.  `check` and `construct` draw fresh inputs for
every pass from the seeded generator; `census` and `extend` have a fixed
input set, which one pass covers.

An operation has a primary call (the one whose latency is reported) and, for
`construct` and `extend`, a verification call on its result.  Results are
kept and judged by the workload's oracle after the timed loop, so oracle work
neither sits inside nor warms anything before a timed call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from httool import pipeline, qform, weilcheck
from httool.exactpoly import Poly

HERE = Path(__file__).resolve().parent

# (p, a, 2d) -> number of admissible candidates; the census job set is fixed.
CENSUS_JOBS = (
    ((2, 1, 4), 18),
    ((3, 1, 4), 56),
    ((2, 2, 4), 80),
    ((5, 1, 4), 196),
    ((2, 1, 6), 62),
    ((3, 1, 6), 318),
)
EXTEND_DEGREES = (8, 10, 12)
PRODUCTS_PER_PASS = 2
BASE_EXTENSIONS_PER_PASS = 2
PERTURBATIONS_PER_PASS = 2


@dataclass
class Op:
    """One operation: `primary()` is timed; `verify(result)`, if present, is
    timed separately; `judge(result, verified)` returns a failure reason or
    None and runs only after the timed loop."""

    label: str
    primary: Callable[[], object]
    judge: Callable[[object, object], str | None]
    verify: Callable[[object], object] | None = None


# ---------------------------------------------------------------------------
# pools and the benchmark's own rational polynomial arithmetic


def load_pools(path: Path = HERE / "pools.json") -> dict[tuple[int, int, int], list[tuple[Fraction, ...]]]:
    data = json.loads(path.read_text())
    return {
        (e["p"], e["a"], e["degree"]): [tuple(Fraction(c) for c in m) for m in e["members"]]
        for e in data["pools"]
    }


def poly_mul(f, g) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _poly_rem(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    f = list(f)
    while len(f) >= len(g):
        factor = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def coprime(f, g) -> bool:
    """Whether f and g have no common factor over Q (Euclid's algorithm)."""
    a, b = list(f), list(g)
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def base_extension(coeffs, n: int) -> tuple[Fraction, ...]:
    """Coefficients of prod (1 - gamma_i**n T) from those of prod (1 - gamma_i T),
    through Newton's identities in both directions."""
    two_d = len(coeffs) - 1
    elem = [(-1) ** k * coeffs[k] for k in range(two_d + 1)]
    sums = [Fraction(0)]
    for k in range(1, two_d * n + 1):
        acc = sum((-1) ** (j - 1) * elem[j] * sums[k - j] for j in range(1, min(k - 1, two_d) + 1))
        if k <= two_d:
            acc += (-1) ** (k - 1) * k * elem[k]
        sums.append(acc)
    new_sums = [Fraction(0)] + [sums[k * n] for k in range(1, two_d + 1)]
    new_elem = [Fraction(1)]
    for k in range(1, two_d + 1):
        acc = sum((-1) ** (j - 1) * new_elem[k - j] * new_sums[j] for j in range(1, k + 1))
        new_elem.append(acc / k)
    return tuple((-1) ** k * new_elem[k] for k in range(two_d + 1))


def perturb(coeffs, index: int, delta: Fraction) -> tuple[Fraction, ...]:
    """Add delta to the palindromic coefficient pair (index, 2d - index)."""
    out = list(coeffs)
    out[index] += delta
    mirror = len(coeffs) - 1 - index
    if mirror != index:
        out[mirror] += delta
    return tuple(out)


def candidate(coeffs, p: int, a: int) -> weilcheck.WeilCandidate:
    return weilcheck.WeilCandidate(Poly(coeffs), p, a)


# ---------------------------------------------------------------------------
# oracles


def _judge_census(count: int, members):
    def judge(result, _verified) -> str | None:
        if len(result) != count:
            return f"found {len(result)} candidates, expected {count}"
        if members is not None and [tuple(c.L.coeffs) for c in result] != members:
            return "candidates differ from the frozen pool"
        return None

    return judge


def _judge_not_admissible(result, _verified) -> str | None:
    return "a product of distinct members was admissible" if result.admissible else None


def _judge_no_fail(result, _verified) -> str | None:
    failures = result.failures
    return f"base extension failed {failures}" if failures else None


def _judge_pool_membership(expected: bool):
    def judge(result, _verified) -> str | None:
        if result.admissible != expected:
            return f"admissible={result.admissible}, pool membership says {expected}"
        return None

    return judge


def k3_sum_problem(cert: dict, expected: qform.QFormInvariants) -> str | None:
    """Recompute the K3 sum identity from the certificate's own trace-form
    Gram matrix and complement diagonal."""
    gram = qform.GramMatrix.from_rows(
        [[Fraction(x) for x in row] for row in cert["trace_form"]["gram"]]
    )
    complement = qform.QSpace(tuple(Fraction(x) for x in cert["complement"]["diagonal"]))
    total = qform.sum_invariants(
        qform.invariants(qform.diagonalize(gram)), qform.invariants(complement)
    )
    return None if total == expected else "K3 sum identity fails on the certificate's own data"


class ConstructionOracle:
    """Status `constructed`, an empty revalidation and the K3 sum identity.

    The K3 invariants are computed on first use, after the timed loop."""

    def __init__(self):
        self._k3 = None

    def k3(self) -> qform.QFormInvariants:
        if self._k3 is None:
            self._k3 = qform.invariants(qform.diagonalize(qform.k3_lattice()))
        return self._k3

    def __call__(self, outcome, problems) -> str | None:
        if outcome.status is not pipeline.RunStatus.CONSTRUCTED:
            return f"status {outcome.status.value}, expected constructed"
        if problems:
            return f"revalidation found {problems}"
        return k3_sum_problem(outcome.certificate, self.k3())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    tail_percentile: int  # nearest rank
    trace_passes: int  # passes of a traced run
    max_passes: int | None = None  # passes of a timed run, if capped

    def __init__(self, seed: int, pools):
        self.rng = random.Random(seed)
        self.pools = pools

    def next_pass(self) -> list[Op]:
        raise NotImplementedError

    def pool_checks(self) -> list[Op]:
        """Untimed checks run once after the timed loop."""
        return []


class Census(Workload):
    """The six census jobs, the same for every seed (their answers are known).

    A run makes one pass: a second would repeat the same jobs in the same
    process, which a command-line user never does.  With six operations no
    percentile has ten samples beyond it, so the tail is the slowest job."""

    name = "census"
    tail_percentile = 100
    trace_passes = 1
    max_passes = 1

    def next_pass(self) -> list[Op]:
        ops = []
        for (p, a, two_d), count in CENSUS_JOBS:
            members = self.pools.get((p, a, two_d))
            ops.append(
                Op(
                    f"enumerate q={p ** a} 2d={two_d}",
                    lambda p=p, a=a, two_d=two_d: weilcheck.enumerate_candidates(p, a, two_d),
                    _judge_census(count, members),
                )
            )
        return ops

    def pool_checks(self) -> list[Op]:
        """Untimed: the degree-2 pools, which no census job covers, and the
        golden census document."""
        golden_path = HERE.parent / "docs" / "golden" / "census_q2_degree2.json"
        golden = json.loads(golden_path.read_text())
        golden_members = [tuple(Fraction(c) for c in m["L"]) for m in golden["candidates"]]
        ops = []
        for key in sorted(k for k in self.pools if k[2] == 2):
            members = self.pools[key]
            ops.append(
                Op(
                    f"enumerate q={key[0] ** key[1]} 2d=2",
                    lambda key=key: weilcheck.enumerate_candidates(*key),
                    _judge_census(len(members), members),
                )
            )
        ops.append(
            Op(
                "golden census q=2 2d=2",
                lambda: weilcheck.enumerate_candidates(golden["p"], golden["a"], golden["degree"]),
                _judge_census(golden["count"], golden_members),
            )
        )
        return ops


class Check(Workload):
    """`check_all` on products of distinct members, base extensions and
    perturbed members."""

    name = "check"
    tail_percentile = 99
    trace_passes = 24

    def __init__(self, seed: int, pools):
        super().__init__(seed, pools)
        self.by_q: dict[tuple[int, int], list[tuple[Fraction, ...]]] = {}
        for (p, a, _two_d), members in sorted(pools.items()):
            self.by_q.setdefault((p, a), []).extend(members)
        self.members = [(key, m) for key in sorted(pools) for m in pools[key]]
        self.pool_sets = {key: set(members) for key, members in pools.items()}

    def _product(self) -> Op:
        p, a = self.rng.choice(sorted(self.by_q))
        k = self.rng.choice((2, 3))
        while True:
            factors = self.rng.sample(self.by_q[(p, a)], k)
            if all(coprime(f, g) for i, f in enumerate(factors) for g in factors[i + 1 :]):
                break
        coeffs = factors[0]
        for f in factors[1:]:
            coeffs = poly_mul(coeffs, f)
        c = candidate(coeffs, p, a)
        return Op(f"product of {k} q={p ** a}", lambda: weilcheck.check_all(c), _judge_not_admissible)

    def _base_extension(self) -> Op:
        (p, a, _two_d), member = self.rng.choice(self.members)
        n = self.rng.choice((2, 3))
        c = candidate(base_extension(member, n), p, a * n)
        return Op(f"base extension n={n}", lambda: weilcheck.check_all(c), _judge_no_fail)

    def _perturbation(self) -> Op:
        key, member = self.rng.choice(self.members)
        p, a, two_d = key
        index = self.rng.randint(1, two_d // 2)
        delta = Fraction(self.rng.choice((-2, -1, 1, 2)), p)
        coeffs = perturb(member, index, delta)
        c = candidate(coeffs, p, a)
        return Op(
            f"perturbation q={p ** a} 2d={two_d}",
            lambda: weilcheck.check_all(c),
            _judge_pool_membership(coeffs in self.pool_sets[key]),
        )

    def next_pass(self) -> list[Op]:
        return (
            [self._product() for _ in range(PRODUCTS_PER_PASS)]
            + [self._base_extension() for _ in range(BASE_EXTENSIONS_PER_PASS)]
            + [self._perturbation() for _ in range(PERTURBATIONS_PER_PASS)]
        )


class Construct(Workload):
    """`pipeline.run` then `revalidate_certificate` on members of degree
    2, 4 and 6 at their own degree.  A pass is one member of each degree;
    each degree walks a seeded permutation of its members, so a run repeats
    a member only after it has used all of that degree."""

    name = "construct"
    tail_percentile = 90
    trace_passes = 8

    def __init__(self, seed: int, pools):
        super().__init__(seed, pools)
        self.oracle = ConstructionOracle()
        self.orders: dict[int, list] = {}
        for (p, a, two_d), members in sorted(pools.items()):
            self.orders.setdefault(two_d, []).extend((p, a, m) for m in members)
        for order in self.orders.values():
            self.rng.shuffle(order)
        self.passes = 0

    def next_pass(self) -> list[Op]:
        ops = [self._op(*order[self.passes % len(order)]) for _, order in sorted(self.orders.items())]
        self.passes += 1
        return ops

    def _op(self, p, a, member) -> Op:
        c = candidate(member, p, a)
        return Op(
            f"construct q={p ** a} 2d={len(member) - 1}",
            lambda: pipeline.run(c),
            self.oracle,
            lambda outcome: pipeline.revalidate_certificate(outcome.certificate),
        )


class Extend(Workload):
    """`pipeline.run` with `max_extension_degree` 8, 10 and 12 on every
    quadratic member, then revalidation.  There are only 36 such inputs, so a
    pass is all of them in seeded order, and a run makes one pass."""

    name = "extend"
    tail_percentile = 70
    trace_passes = 1
    max_passes = 1

    def __init__(self, seed: int, pools):
        super().__init__(seed, pools)
        self.oracle = ConstructionOracle()

    def next_pass(self) -> list[Op]:
        combos = [
            (p, a, member, degree)
            for (p, a, two_d), members in sorted(self.pools.items())
            if two_d == 2
            for member in members
            for degree in EXTEND_DEGREES
        ]
        self.rng.shuffle(combos)
        return [self._op(*combo) for combo in combos]

    def _op(self, p, a, member, degree) -> Op:
        c = candidate(member, p, a)
        config = pipeline.PipelineConfig(max_extension_degree=degree)
        return Op(
            f"extend q={p ** a} to degree {degree}",
            lambda: pipeline.run(c, config),
            self.oracle,
            lambda outcome: pipeline.revalidate_certificate(outcome.certificate),
        )


WORKLOADS = {w.name: w for w in (Census, Check, Construct, Extend)}
