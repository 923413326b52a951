"""Entanglement distribution over a segmented repeater chain.

Closed-form pieces: per-attempt link success probability, two-pair
purification, deterministic swapping, per-level resource counts, and the
expected rounds until every segment of a doubling chain holds a pair
(H_m/lam + 1/2 on long chains at small P0). On top sits a seeded Monte
Carlo simulator of four purification policies that emits an event trace.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import (
    DegenerateLoss,
    DegeneratePair,
    Divergent,
    InvalidLevel,
    InvalidParameter,
    InvalidProbability,
    TooLarge,
)

SIGNAL_SPEED = 2e8  # meters/second in fiber

POLICIES = ("symmetric", "pumping", "greedy", "banded")
# Most doubling levels: 2^n segments must stay inside the float range
MAX_LEVELS = 1023
# Largest P0 at which expected_rounds drops its closed form's periodic term
CLOSED_FORM_P0 = 0.18


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InvalidProbability(f"{name} = {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class PairState:
    """One live entangled pair: Werner fidelity, swap level, age in rounds."""

    fidelity: float
    level: int = 0
    age: int = 0

    def __post_init__(self):
        _check_unit("fidelity", self.fidelity)
        if self.level < 0:
            raise InvalidLevel(f"level {self.level} is negative")


@dataclass(frozen=True)
class RepeaterConfig:
    """Chain geometry and per-attempt physics for one repeater setup."""

    L: float
    segments: int
    P0: float
    eta: float
    F0: float
    c: float = SIGNAL_SPEED

    def __post_init__(self):
        if not math.isfinite(self.L) or self.L <= 0:
            raise InvalidParameter(f"distance {self.L} must be positive and finite")
        n = self.segments
        if n < 1 or n & (n - 1) or self.levels > MAX_LEVELS:
            raise InvalidParameter(f"segments = {n} is not a power of two up to 2^{MAX_LEVELS}")
        _check_unit("P0", self.P0)
        _check_unit("eta", self.eta)
        _check_unit("F0", self.F0)
        if not math.isfinite(self.c) or self.c <= 0:
            raise InvalidParameter(f"signal speed {self.c} must be positive and finite")

    @property
    def L0(self) -> float:
        return self.L / self.segments

    @property
    def levels(self) -> int:
        return self.segments.bit_length() - 1


@dataclass(frozen=True)
class RateReport:
    T0: float
    Z_n: float
    R_n: float
    R_n_approx: float


@dataclass(frozen=True)
class TraceEvent:
    round: int
    action: str  # generate | purify | discard
    inputs: Tuple[int, ...]
    success: bool
    output: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "action": self.action,
            "inputs": list(self.inputs),
            "success": self.success,
            "output": self.output,
        }


@dataclass(frozen=True)
class ScheduleTrace:
    policy: str
    seed: int
    events: Tuple[TraceEvent, ...]
    raw_pairs_consumed: int
    final_fidelity: float
    rounds: int
    outcome: str  # reached | exhausted
    notes: tuple = field(default_factory=tuple)


def link_success_probability(F: float, eta: float) -> float:
    """Per-attempt success probability of entanglement generation.

    Literal evaluation of 1 - (2F - 1)^(eta/(1 - eta)), clamped to [0, 1].
    The formula inverts the usual intuition at the endpoints (probability
    1 at F = 0.5, probability 0 at F = 1); it is applied as printed.
    """
    F = float(F)
    if not 0.5 <= F <= 1.0:
        raise InvalidParameter(f"fidelity {F} outside [0.5, 1]")
    eta = float(eta)
    if eta >= 1.0:
        raise DegenerateLoss("loss fraction 1 leaves no transmission")
    if not eta >= 0.0:
        raise InvalidParameter(f"loss fraction {eta} is negative or NaN")
    value = 1.0 - (2.0 * F - 1.0) ** (eta / (1.0 - eta))
    return min(max(value, 0.0), 1.0)


def purify_pair(F1: float, F2: float) -> Tuple[float, float]:
    """Success probability and output fidelity of purifying two pairs.

    p = F1 F2 + (1 - F1)(1 - F2), output F1 F2 / p. The two-argument form
    is plumbing for unequal inputs; it reduces to the standard recurrence
    when F1 = F2.
    """
    F1 = _check_unit("F1", F1)
    F2 = _check_unit("F2", F2)
    p = F1 * F2 + (1.0 - F1) * (1.0 - F2)
    if p <= 0.0:
        raise DegeneratePair("purification success probability is zero")
    return p, F1 * F2 / p


def swap_pair(F: float) -> float:
    """Fidelity after deterministically swapping two pairs of fidelity F."""
    F = _check_unit("F", F)
    return F * F + (1.0 - F) * (1.0 - F)


def _check_levels(n: int) -> None:
    if n < 0:
        raise InvalidLevel(f"levels {n} is negative")
    if n > MAX_LEVELS:
        raise TooLarge(f"2^{n} segments exceed the float range (levels up to {MAX_LEVELS})")


def swap_level_stats(n: int, i: int) -> Dict[str, int]:
    """Resource counts at swap level i of an n-level doubling architecture.

    spanned: segments bridged by one pair; shared_pairs: pairs alive at
    that level; freed: stations released so far (cumulative).
    """
    _check_levels(n)
    if not 0 <= i <= n:
        raise InvalidLevel(f"level {i} outside [0, {n}]")
    return {
        "spanned": 2**i,
        "shared_pairs": 2 ** (n - i),
        "freed": 2 * (2**n - 2 ** (n - i)),
    }


def expected_rounds(n: int, P0: float) -> float:
    """Expected rounds until all 2^n segments have generated a pair.

    This is the mean Z of the maximum of m = 2^n independent geometric
    variables with success probability P0. Up to m = 16 it is the exact
    inclusion-exclusion sum. Beyond, with lam = -log(1 - P0), Poisson
    summation of the survival function 1 - (1 - e^(-lam x))^m gives
    Z = H_m/lam + 1/2 - (2/lam) sum_{j >= 1} Re B(-2 pi i j / lam, m + 1)
    (Szpankowski & Rego, Computing 43, 1990). As |B(iy, m + 1)| =
    (1/y) prod_{k <= m} (1 + y^2/k^2)^(-1/2) falls with growing m and y,
    at P0 <= CLOSED_FORM_P0 the sum is under 1e-16 of Z for every m >= 32
    and is dropped. At larger P0 the survival series runs, in under 3,800
    terms even at n = MAX_LEVELS. TooLarge when Z is past the float range.
    """
    _check_levels(n)
    P0 = _check_unit("P0", P0)
    if P0 == 0.0:
        raise Divergent("success probability 0 never completes")
    m = 2**n
    q = 1.0 - P0
    if m <= 16:
        # 1 - q**i = P0 (1 + q + ... + q**(i-1)): a sum of positive terms, so
        # no cancellation when P0 is tiny; 1/P0 comes last, so no term overflows
        survive = itertools.accumulate(q**j for j in range(m))
        terms = [math.comb(m, i) * (-1.0) ** (i + 1) / s for i, s in enumerate(survive, start=1)]
        paired = [sum(terms[k : k + 2]) for k in range(0, m, 2)]
        total = math.fsum(paired) / P0
    elif P0 <= CLOSED_FORM_P0:
        # Euler-Maclaurin H_m; the first term left out, 1/(132 m^10), is 6e-18 at m = 32
        x = 1.0 / m
        tail = x / 2 - x * x * (1 / 12 - x * x * (1 / 120 - x * x * (1 / 252 - x * x / 240)))
        total = math.fsum((math.log(m), 0.5772156649015329, tail)) / -math.log1p(-P0) + 0.5
    else:
        # term k is at most m q^k and total >= 1: done by k = (ln m + 35) / lam
        total = 1.0  # k = 0 term of sum_k [1 - (1 - q^k)^m]
        for k in itertools.count(1):
            qk = q**k
            if qk <= 0.0:
                break
            term = -math.expm1(m * math.log1p(-qk))
            total += term
            if term < 1e-15 * total:
                break
    if not math.isfinite(total):
        raise TooLarge(f"rounds for 2^{n} segments at P0 = {P0:g} exceed the float range")
    return total


def generation_rate(cfg: RepeaterConfig) -> RateReport:
    """Exact and approximate end-to-end pair rates for the chain."""
    if cfg.P0 == 0.0:
        raise Divergent("success probability 0 never completes")
    n = cfg.levels
    t0 = 2.0 * cfg.L0 / cfg.c
    z_n = expected_rounds(n, cfg.P0)
    return RateReport(
        T0=t0,
        Z_n=z_n,
        R_n=1.0 / (t0 * z_n),
        R_n_approx=(cfg.P0 / t0) * (2.0 / 3.0) ** n,
    )


class _Pool:
    """Live pairs keyed by creation id (insertion-ordered)."""

    def __init__(self):
        self.pairs: Dict[int, List] = {}  # id -> [fidelity, level, birth_round]
        self.next_id = 0

    def add(self, fidelity: float, level: int, rnd: int) -> int:
        pid = self.next_id
        self.next_id += 1
        self.pairs[pid] = [fidelity, level, rnd]
        return pid

    def remove(self, pid: int) -> None:
        del self.pairs[pid]

    def by_level(self) -> Dict[int, List[int]]:
        groups: Dict[int, List[int]] = {}
        for pid, (f, level, birth) in self.pairs.items():
            groups.setdefault(level, []).append(pid)
        return groups

    def best_two(self, ids=None) -> Optional[Tuple[int, int]]:
        pool = list(self.pairs) if ids is None else list(ids)
        if len(pool) < 2:
            return None
        pool.sort(key=lambda pid: (-self.pairs[pid][0], pid))
        return pool[0], pool[1]


def _pick_purify(policy, pool: _Pool, band_of) -> Optional[Tuple[int, int]]:
    if policy == "symmetric":
        groups = pool.by_level()
        for level in sorted(groups):
            if len(groups[level]) >= 2:
                return tuple(sorted(groups[level])[:2])
        return None
    if policy == "pumping":
        if len(pool.pairs) >= 2:
            ids = sorted(pool.pairs)
            return ids[0], ids[-1]
        return None
    if policy == "greedy":
        return pool.best_two()
    # banded: highest occupied band with two members
    bands: Dict[int, List[int]] = {}
    for pid, (f, level, birth) in pool.pairs.items():
        bands.setdefault(band_of(f), []).append(pid)
    for b in sorted(bands, reverse=True):
        if len(bands[b]) >= 2:
            return pool.best_two(bands[b])
    return None


def simulate_schedule(
    policy: str,
    target_fidelity: float,
    cfg: RepeaterConfig,
    seed: int = 0,
    force_success: bool = False,
    max_rounds: int = 20000,
    max_raw_pairs: int = 65536,
    bands: int = 8,
    band_wait_cap: int = 256,
) -> ScheduleTrace:
    """Run one seeded purification schedule on a single link.

    Each round performs one action. A purification is attempted whenever
    the policy finds an eligible pair of pairs (symmetric: the two oldest
    at the lowest level holding two, so only equal fidelities ever meet;
    pumping: the held pair with the freshest raw pair; greedy: the two
    highest fidelities overall; banded: the two highest fidelities inside
    the highest fidelity band holding two, with overage pairs discarded
    after band_wait_cap rounds). Otherwise one raw-pair generation is
    attempted, succeeding with probability P0 (failed attempts consume
    the round and leave no event). force_success makes every generation
    and purification succeed, giving the deterministic resource counts.

    The run ends with outcome "reached" when a purified pair meets the
    target, or "exhausted" at the round cap or the raw-pair budget.
    """
    if policy not in POLICIES:
        raise InvalidParameter(f"unknown policy {policy!r}; choose from {POLICIES}")
    target_fidelity = float(target_fidelity)
    if not cfg.F0 < target_fidelity < 1.0:
        raise InvalidParameter(
            f"target {target_fidelity} must lie in (F0 = {cfg.F0}, 1)"
        )
    if bands < 1:
        raise InvalidParameter(f"bands = {bands} must be positive")

    width = (1.0 - cfg.F0) / bands

    def band_of(f: float) -> int:
        if width <= 0.0:
            return 0
        return min(int((f - cfg.F0) / width), bands - 1)

    rng = random.Random(seed)
    pool = _Pool()
    events: List[TraceEvent] = []
    raw = 0
    outcome = "exhausted"
    reached_f: Optional[float] = None
    rnd = 0

    while rnd < max_rounds:
        rnd += 1
        if policy == "banded":
            stale = [
                pid
                for pid, (f, level, birth) in pool.pairs.items()
                if rnd - birth > band_wait_cap
            ]
            for pid in stale:
                f = pool.pairs[pid][0]
                pool.remove(pid)
                events.append(TraceEvent(rnd, "discard", (pid,), True, f))

        chosen = _pick_purify(policy, pool, band_of)
        if chosen is not None:
            a, b = chosen
            f1, level1 = pool.pairs[a][0], pool.pairs[a][1]
            f2, level2 = pool.pairs[b][0], pool.pairs[b][1]
            p, f_out = purify_pair(f1, f2)
            success = True if force_success else rng.random() < p
            pool.remove(a)
            pool.remove(b)
            if success:
                pool.add(f_out, max(level1, level2) + 1, rnd)
                events.append(TraceEvent(rnd, "purify", (a, b), True, f_out))
                if f_out >= target_fidelity:
                    outcome = "reached"
                    reached_f = f_out
                    break
            else:
                events.append(TraceEvent(rnd, "purify", (a, b), False, None))
            continue

        if raw >= max_raw_pairs:
            break
        if force_success or rng.random() < cfg.P0:
            pid = pool.add(cfg.F0, 0, rnd)
            raw += 1
            events.append(TraceEvent(rnd, "generate", (pid,), True, cfg.F0))

    if reached_f is not None:
        final = reached_f
    else:
        final = max((rec[0] for rec in pool.pairs.values()), default=0.0)
    return ScheduleTrace(
        policy=policy,
        seed=seed,
        events=tuple(events),
        raw_pairs_consumed=raw,
        final_fidelity=final,
        rounds=rnd,
        outcome=outcome,
    )


def trace_events_jsonl(trace: ScheduleTrace) -> str:
    """One JSON object per event, one event per line, stable key order."""
    lines = [
        json.dumps(event.to_json_dict(), sort_keys=True, separators=(",", ":"))
        for event in trace.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_json(trace: ScheduleTrace) -> dict:
    return {
        "policy": trace.policy,
        "seed": trace.seed,
        "raw_pairs_consumed": trace.raw_pairs_consumed,
        "final_fidelity": trace.final_fidelity,
        "rounds": trace.rounds,
        "outcome": trace.outcome,
        "events": [event.to_json_dict() for event in trace.events],
    }


def config_to_json(cfg: RepeaterConfig) -> dict:
    return {
        "L": cfg.L,
        "segments": cfg.segments,
        "P0": cfg.P0,
        "eta": cfg.eta,
        "F0": cfg.F0,
        "c": cfg.c,
    }


def config_from_json(data: dict) -> RepeaterConfig:
    try:
        return RepeaterConfig(
            L=float(data["L"]),
            segments=int(data["segments"]),
            P0=float(data["P0"]),
            eta=float(data["eta"]),
            F0=float(data["F0"]),
            c=float(data.get("c", SIGNAL_SPEED)),
        )
    except KeyError as missing:
        raise InvalidParameter(f"config JSON missing field {missing}") from None
