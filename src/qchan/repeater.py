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
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (
    DegenerateLoss,
    DegeneratePair,
    Divergent,
    InvalidLevel,
    InvalidParameter,
    InvalidProbability,
    TooLarge,
    _check_count,
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


class TraceEvent(NamedTuple):
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
        R_n=1.0 / t0 / z_n,  # t0 * z_n can overflow where the rate does not
        R_n_approx=(cfg.P0 / t0) * (2.0 / 3.0) ** n,
    )


def _best_two(members) -> Tuple[int, int]:
    """Ids of the two highest fidelities among (pid, fidelity) in pid order, lower id on ties."""
    (a, fa), (b, fb) = members[0], members[1]
    if fb > fa:
        a, fa, b, fb = b, fb, a, fa
    for pid, f in members[2:]:
        if f > fa:
            a, fa, b, fb = pid, f, a, fa
        elif f > fb:
            b, fb = pid, f
    return a, b


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
    target, or "exhausted" at the round cap or the raw-pair budget. Both
    limits and band_wait_cap are non-negative integers, bands a positive one.

    Pumping and greedy purify as soon as two pairs are held, so neither
    ever holds more than two and both picks are O(1). For F0 > 1/2 a
    purified pair beats a fresh one, both list the older pair first, and
    their traces are identical; below F0 = 1/2 they differ only in the
    order of a purify event's two inputs. Events are TraceEvent instances.
    """
    if policy not in POLICIES:
        raise InvalidParameter(f"unknown policy {policy!r}; choose from {POLICIES}")
    target_fidelity = float(target_fidelity)
    if not cfg.F0 < target_fidelity < 1.0:
        raise InvalidParameter(
            f"target {target_fidelity} must lie in (F0 = {cfg.F0}, 1)"
        )
    bands = _check_count("bands", bands, 1)
    max_rounds = _check_count("max_rounds", max_rounds)
    max_raw_pairs = _check_count("max_raw_pairs", max_raw_pairs)
    band_wait_cap = _check_count("band_wait_cap", band_wait_cap)

    f0, p0 = cfg.F0, cfg.P0
    width = (1.0 - f0) / bands  # positive: F0 < target < 1
    banded = policy == "banded"
    # live pairs, pid -> (fidelity, level, birth round); pids only grow, so
    # the dict stays in pid order and births never decrease along it
    pairs: Dict[int, Tuple[float, int, int]] = {}

    def by_level():
        groups: Dict[int, List[int]] = {}
        for pid, (f, level, birth) in pairs.items():
            groups.setdefault(level, []).append(pid)
        full = [level for level, ids in groups.items() if len(ids) >= 2]
        return tuple(groups[min(full)][:2]) if full else None

    # pumping and greedy purify as soon as they hold two pairs, so they never hold more
    def first_and_last():
        return tuple(pairs)

    def best_of_two():  # _best_two on two members
        a, b = pairs
        return (b, a) if pairs[b][0] > pairs[a][0] else (a, b)

    def best_in_top_band():
        groups: Dict[int, List[Tuple[int, float]]] = {}
        for pid, (f, level, birth) in pairs.items():
            groups.setdefault(min(int((f - f0) / width), bands - 1), []).append((pid, f))
        full = [band for band, members in groups.items() if len(members) >= 2]
        return _best_two(groups[max(full)]) if full else None

    pick = {
        "symmetric": by_level,
        "pumping": first_and_last,
        "greedy": best_of_two,
        "banded": best_in_top_band,
    }[policy]
    draw = random.Random(seed).random
    events: List[TraceEvent] = []
    add = events.append
    # tuple.__new__ skips the NamedTuple's Python-level __new__; still a TraceEvent
    event = tuple.__new__
    next_id = 0
    raw = 0
    outcome = "exhausted"
    rnd = 0

    while rnd < max_rounds:
        rnd += 1
        if banded:
            # births never decrease along pid order: the stale pairs lead
            while pairs:
                pid = next(iter(pairs))
                f, level, birth = pairs[pid]
                if rnd - birth <= band_wait_cap:
                    break
                del pairs[pid]
                add(event(TraceEvent, (rnd, "discard", (pid,), True, f)))

        chosen = pick() if len(pairs) >= 2 else None
        if chosen is not None:
            a, b = chosen
            (f1, level1, _), (f2, level2, _) = pairs.pop(a), pairs.pop(b)
            f1, f2 = float(f1), float(f2)  # raw pairs hold F0 as given, an int say
            p = f1 * f2 + (1.0 - f1) * (1.0 - f2)
            if p <= 0.0:
                raise DegeneratePair("purification success probability is zero")
            if force_success or draw() < p:
                f_out = f1 * f2 / p
                pairs[next_id] = (f_out, (level1 if level1 > level2 else level2) + 1, rnd)
                next_id += 1
                add(event(TraceEvent, (rnd, "purify", (a, b), True, f_out)))
                if f_out >= target_fidelity:
                    outcome = "reached"
                    break
            else:
                add(event(TraceEvent, (rnd, "purify", (a, b), False, None)))
            continue

        if raw >= max_raw_pairs:
            break
        # Until a generation succeeds nothing changes but the round, so the
        # attempts run here, up to the round cap or, in banded, the last
        # round before the oldest pair turns stale.
        stop = max_rounds
        if banded and pairs:
            stop = min(stop, next(iter(pairs.values()))[2] + band_wait_cap)
        while not force_success and draw() >= p0:
            if rnd >= stop:
                break
            rnd += 1
        else:
            pairs[next_id] = (f0, 0, rnd)
            add(event(TraceEvent, (rnd, "generate", (next_id,), True, f0)))
            next_id += 1
            raw += 1

    final = f_out if outcome == "reached" else max((rec[0] for rec in pairs.values()), default=0.0)
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
    except (KeyError, TypeError, ValueError) as exc:  # a missing or non-numeric field, or no dict
        raise InvalidParameter(f"malformed config JSON: {exc!r}") from exc
