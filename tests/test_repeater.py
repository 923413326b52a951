import hashlib
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qchan import (
    PairState,
    RepeaterConfig,
    config_from_json,
    config_to_json,
    expected_rounds,
    generation_rate,
    link_success_probability,
    purify_pair,
    simulate_schedule,
    swap_level_stats,
    swap_pair,
    trace_events_jsonl,
    trace_to_json,
)
from qchan.repeater import CLOSED_FORM_P0, MAX_LEVELS, TraceEvent
from qchan.errors import (
    DegenerateLoss,
    DegeneratePair,
    Divergent,
    InvalidLevel,
    InvalidParameter,
    InvalidProbability,
    TooLarge,
)

# iterates frozen from exact rational reference computations
SYMMETRIC_LADDER = [
    0.7564636267673689,
    0.9060878322044748,
    0.9893717287256045,
    0.9998846131933753,
    0.999999986682812,
]
PUMPING_LADDER = [
    0.8448275862068966,
    0.927027027027027,
    0.967365028203062,
    0.9857478005865102,
    0.9938417611380493,
]
EXPECTED_ROUNDS = {
    (0, 0.5): 2.0,
    (1, 0.5): 2.6666666666666665,
    (2, 0.5): 3.5047619047619047,
    (3, 0.5): 4.421077725815582,
    (1, 0.1): 14.736842105263158,
    (2, 0.3): 6.34094488520179,
    (3, 0.1): 26.295784368397804,
}

# sha256 of trace_events_jsonl, rounds, outcome and raw_pairs_consumed, pinned
# from the simulator before its loop was rewritten (target 0.9999, P0 = 0.5,
# max_rounds = 3000): the same seed gives the same trace across versions
TRACE_DIGESTS = {
    ("symmetric", 0.638, 0):
        ("c0332cfa4ceb4e88eb9d2dc0dd3d1c75c424dbf084121100d054070a1737479e", 355, "reached", 134),
    ("symmetric", 0.638, 1):
        ("e90fb1a58fb182e2d76e92e78544c51363a91b8c3911da0ed722f79fd1d49471", 400, "reached", 148),
    ("symmetric", 0.638, 2):
        ("629572eb6de46f2ac4345ac9396d99d40b69ad8dadfdcf3084bc18fb0ed8e1d9", 194, "reached", 62),
    ("symmetric", 0.75, 0):
        ("4b9a079813be562697a62930d1bc60bf636a8efb7d8afa1a4730b471234b0fed", 114, "reached", 34),
    ("symmetric", 0.75, 1):
        ("6096803d3124b99c6dbdbe6d91b65f363527c52a736c0f43d77af89ee93833f4", 65, "reached", 24),
    ("symmetric", 0.75, 2):
        ("702dbdf14fd50b5ae79ea1a96c51abf9f4d84e6b1ed0a6bf4d64f2f811bc9b52", 105, "reached", 30),
    ("pumping", 0.638, 0):
        ("180ef71b33a38f51ed9158cef8213fbf9cddbab97317af38700917162d27fe66", 3000, "exhausted", 1118),
    ("pumping", 0.638, 1):
        ("0a232c67b28b9fb28723bf25bd6eeb98a9b08c5ff5b319f039661af7cc76125c", 3000, "exhausted", 1092),
    ("pumping", 0.638, 2):
        ("2d1646b8ebbdca5e9f0db062be256720f74b4946a3f8146ab0f6a3c470a31bba", 3000, "exhausted", 1092),
    ("pumping", 0.75, 0):
        ("e62c4b80de6dfa7a724525485910c145f883cb99646ec2546ba5e0f763116d4c", 85, "reached", 27),
    ("pumping", 0.75, 1):
        ("61bfc5b62ebd2a4c49b50fc48f2461df694ceb662f9a41601ee5ea8cb263e752", 89, "reached", 28),
    ("pumping", 0.75, 2):
        ("909252fba2bc398c56b256ddd8aaf7792094ab9c55bd2e7a7f1bf5f457e7a945", 134, "reached", 45),
    ("greedy", 0.638, 0):
        ("180ef71b33a38f51ed9158cef8213fbf9cddbab97317af38700917162d27fe66", 3000, "exhausted", 1118),
    ("greedy", 0.638, 1):
        ("0a232c67b28b9fb28723bf25bd6eeb98a9b08c5ff5b319f039661af7cc76125c", 3000, "exhausted", 1092),
    ("greedy", 0.638, 2):
        ("2d1646b8ebbdca5e9f0db062be256720f74b4946a3f8146ab0f6a3c470a31bba", 3000, "exhausted", 1092),
    ("greedy", 0.75, 0):
        ("e62c4b80de6dfa7a724525485910c145f883cb99646ec2546ba5e0f763116d4c", 85, "reached", 27),
    ("greedy", 0.75, 1):
        ("61bfc5b62ebd2a4c49b50fc48f2461df694ceb662f9a41601ee5ea8cb263e752", 89, "reached", 28),
    ("greedy", 0.75, 2):
        ("909252fba2bc398c56b256ddd8aaf7792094ab9c55bd2e7a7f1bf5f457e7a945", 134, "reached", 45),
    ("banded", 0.638, 0):
        ("016a0518fa03fbf620e2046d688a09336b2f28975e8d9eab0b889bbe412424a1", 204, "reached", 76),
    ("banded", 0.638, 1):
        ("678031dcf9e7723ee3f8c357aaffacaf1aac20779d70f170808a75dfa9d1785d", 326, "reached", 118),
    ("banded", 0.638, 2):
        ("8942e4ec31fa8b8f55935551da50e4de00a70f7094e4c920856f4ab70aae8136", 172, "reached", 54),
    ("banded", 0.75, 0):
        ("ac703e08df539c1edd102b2c90fcfe49a4fe114dcc2632cd591fe94e127b93be", 101, "reached", 30),
    ("banded", 0.75, 1):
        ("87682f8d412a26c04e6f96fc755fb2c88b19b786cc1a53af7d41b3f90f1e0c9d", 46, "reached", 18),
    ("banded", 0.75, 2):
        ("617ad02041829642ad39fe29fd91d4f6deb146845de01f6a2fa418bd0c1c29cf", 65, "reached", 18),
    # F0 <= 1/2, pinned before greedy's pick went O(1): a purified pair no longer
    # beats a fresh one, so greedy lists the fresher pair first and its trace
    # parts from pumping's, and at F0 = 1/2 every fidelity ties
    ("greedy", 0.45, 0):
        ("f027482d301e3b95f6eb09418441ce8055ffbd1f75ae3b3183a0fa8117e9ac9c", 3000, "exhausted", 1111),
    ("greedy", 0.45, 1):
        ("a0b3b8fb10329d36e17c9fc342f594476d899782e2180416f7813f5b26b1ce31", 3000, "exhausted", 1099),
    ("greedy", 0.45, 2):
        ("bd74e515c5425eb54635a3eaa35ec07b85e11af26d7606d4e7d2431916bb1779", 3000, "exhausted", 1115),
    ("pumping", 0.45, 0):
        ("3acd85e1f53ae7d0bdcbea67093fb59d83126ae0902393b0dd63845cc3711e70", 3000, "exhausted", 1111),
    ("pumping", 0.45, 1):
        ("7b2a03a7affc275a5da67c2d66a82d147db441d8b67851892604786eddcdafd2", 3000, "exhausted", 1099),
    ("pumping", 0.45, 2):
        ("e6add99330e39a41d261f6d0c9c4e40dc59aeaa5fa51384ad9a1987b4e5c42c7", 3000, "exhausted", 1115),
    ("greedy", 0.5, 0):
        ("01750f99b20feea3de88d833b27c4dd5907408b5101ac413190ed35ef1411370", 3000, "exhausted", 1118),
    ("greedy", 0.5, 1):
        ("8ed55e6c9fcba23f1f919617de9d2e85512ac22de2945fe776508721fd60a024", 3000, "exhausted", 1119),
    ("greedy", 0.5, 2):
        ("43573a5b7e92483af5f87c3e0b241a84bdcf79c68e1e9ee8401953bf8673c7cc", 3000, "exhausted", 1110),
}
# greedy at F0 = 0.638, seed 0, force_success
FORCED_DIGEST = ("bfa46aaeeb2e0bc78afa8fffc7fb853721b9a1d47609df018e8df0e878706bdc", 33, "reached", 17)
# banded at F0 = 0.638, seed 0, band_wait_cap = 10
BANDED_CAP_DIGEST = ("5520b4dbec0cfebd1613e5bce31b060b16d6ac2d35a6e40e9bc23fd7b70f9419", 3000, "exhausted", 1131)

CFG = RepeaterConfig(L=20000.0, segments=1, P0=0.5, eta=0.5, F0=0.638)
# the smallest P0 at which expected_rounds sums its survival series on long chains
ABOVE_CLOSED_FORM = math.nextafter(CLOSED_FORM_P0, 1)


def exact_rounds(n, p0):
    """E[max of 2^n geometric(p0)] by inclusion-exclusion in exact rationals."""
    m, q = 2**n, 1 - Fraction(p0)
    return sum(math.comb(m, i) * (-1) ** (i + 1) / (1 - q**i) for i in range(1, m + 1))


def replay(trace, f0):
    """Rebuild pair states from the event stream; asserts stream consistency."""
    alive = {}
    next_id = 0
    for ev in trace.events:
        if ev.action == "generate":
            (pid,) = ev.inputs
            assert pid == next_id, "generated ids must be sequential"
            next_id += 1
            alive[pid] = f0
        elif ev.action == "purify":
            a, b = ev.inputs
            assert a in alive and b in alive, "purify must consume live pairs"
            del alive[a], alive[b]
            if ev.success:
                alive[next_id] = ev.output
                next_id += 1
        elif ev.action == "discard":
            (pid,) = ev.inputs
            assert pid in alive
            del alive[pid]
        else:
            raise AssertionError(f"unknown action {ev.action}")
    return alive


class TestLinkSuccess:
    def test_bare_pair_always_succeeds(self):
        assert link_success_probability(0.5, 0.5) == 1.0

    def test_perfect_pair_never_succeeds(self):
        assert link_success_probability(1.0, 0.3) == 0.0

    def test_half_loss_is_linear_in_fidelity(self):
        assert np.isclose(link_success_probability(0.75, 0.5), 0.5, atol=1e-12)
        assert np.isclose(link_success_probability(0.9, 0.5), 0.2, atol=1e-12)

    def test_zero_loss_gives_zero(self):
        assert link_success_probability(0.7, 0.0) == 0.0

    def test_total_loss_rejected(self):
        with pytest.raises(DegenerateLoss):
            link_success_probability(0.7, 1.0)

    def test_fidelity_below_half_rejected(self):
        with pytest.raises(InvalidParameter):
            link_success_probability(0.4, 0.5)

    def test_negative_loss_rejected(self):
        with pytest.raises(InvalidParameter):
            link_success_probability(0.7, -0.1)

    def test_nan_loss_rejected(self):
        with pytest.raises(InvalidParameter):
            link_success_probability(0.9, math.nan)

    def test_always_a_probability(self):
        for F in np.linspace(0.5, 1.0, 21):
            for eta in np.linspace(0.0, 0.99, 12):
                v = link_success_probability(float(F), float(eta))
                assert 0.0 <= v <= 1.0


class TestPurify:
    def test_reference_point(self):
        p, f = purify_pair(0.9, 0.9)
        assert np.isclose(p, 0.82, atol=1e-15)
        assert np.isclose(f, 81.0 / 82.0, atol=1e-15)

    def test_improves_above_one_half(self):
        for F in (0.55, 0.7, 0.9, 0.99):
            _, out = purify_pair(F, F)
            assert out > F

    def test_opposite_certainties_cannot_merge(self):
        with pytest.raises(DegeneratePair):
            purify_pair(1.0, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidProbability):
            purify_pair(1.2, 0.9)

    def test_symmetric_ladder_matches_reference(self):
        f = 0.638
        for expected in SYMMETRIC_LADDER:
            _, f = purify_pair(f, f)
            assert np.isclose(f, expected, rtol=1e-14)

    def test_pumping_ladder_matches_reference(self):
        f = 0.7
        for expected in PUMPING_LADDER:
            _, f = purify_pair(f, 0.7)
            assert np.isclose(f, expected, rtol=1e-14)


class TestSwap:
    def test_perfect_pairs_stay_perfect(self):
        assert swap_pair(1.0) == 1.0

    def test_werner_midpoint_is_fixed(self):
        assert swap_pair(0.5) == 0.5

    def test_swapping_degrades(self):
        assert np.isclose(swap_pair(0.9), 0.82, atol=1e-15)
        for F in (0.6, 0.75, 0.95):
            assert swap_pair(F) < F

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidProbability):
            swap_pair(1.1)


class TestSwapLevelStats:
    def test_ground_level_counts(self):
        assert swap_level_stats(3, 0) == {"spanned": 1, "shared_pairs": 8, "freed": 0}

    def test_intermediate_level_counts(self):
        assert swap_level_stats(3, 2) == {"spanned": 4, "shared_pairs": 2, "freed": 12}

    def test_top_level_counts(self):
        assert swap_level_stats(3, 3) == {"spanned": 8, "shared_pairs": 1, "freed": 14}

    def test_rejects_level_out_of_range(self):
        with pytest.raises(InvalidLevel):
            swap_level_stats(3, 4)
        with pytest.raises(InvalidLevel):
            swap_level_stats(-1, 0)

    def test_levels_past_the_float_range_refused(self):
        assert swap_level_stats(MAX_LEVELS, 0)["spanned"] == 1
        for n in (MAX_LEVELS + 1, 10**7):
            with pytest.raises(TooLarge, match="levels up to 1023"):
                swap_level_stats(n, 0)


class TestExpectedRounds:
    @pytest.mark.parametrize("key,expected", sorted(EXPECTED_ROUNDS.items()))
    def test_matches_exact_rationals(self, key, expected):
        n, p0 = key
        assert np.isclose(expected_rounds(n, p0), expected, rtol=1e-12)

    @pytest.mark.parametrize("p0", [1e-9, 1e-6, 1e-300])
    def test_tiny_success_probability_keeps_full_precision(self, p0):
        # 1 - q**i cancelled here: 3e-7 relative error at P0 = 1e-9
        assert math.isclose(expected_rounds(4, p0), float(exact_rounds(4, p0)), rel_tol=1e-12)

    @pytest.mark.parametrize("n,p0", [(0, 1e-320), (1, 1e-320), (4, 1e-308), (5, 5e-324)])
    def test_rounds_past_the_float_range_refused(self, n, p0):
        # Z is above 1.8e308, and the alternating sum's terms overflow before it
        with pytest.raises(TooLarge, match="exceed the float range"):
            expected_rounds(n, p0)

    def test_certain_success_takes_one_round(self):
        for n in (0, 1, 3, 5):
            assert expected_rounds(n, 1.0) == 1.0

    @pytest.mark.parametrize(
        "n,p0",
        [(5, 0.2), (6, 0.5)]
        + [(n, p0) for n in (5, 6, 10) for p0 in (CLOSED_FORM_P0, ABOVE_CLOSED_FORM)],
    )
    def test_survival_series_matches_tail_sum(self, n, p0):
        # independent form: E[max] = sum_k P(max > k), on both sides of CLOSED_FORM_P0
        m, q = 2**n, 1.0 - p0
        reference = sum(1.0 - (1.0 - q**k) ** m for k in range(0, 5000))
        assert math.isclose(expected_rounds(n, p0), reference, rel_tol=1e-12)

    def test_closed_form_remainder_is_negligible(self):
        # the dropped sum (2/lam) sum_j |B(i y_j, m + 1)|, y_j = 2 pi j / lam, with
        # |B(iy, m + 1)| = (1/y) prod_k (1 + y^2/k^2)^(-1/2): at m = 32 it bounds
        # every m >= 32, and it only shrinks as lam falls below its value here
        m = 32
        lam = -math.log1p(-CLOSED_FORM_P0)
        ys = [2 * math.pi * j / lam for j in range(1, 40)]  # term j falls like j^-33
        bound = (2 / lam) * math.fsum(
            math.exp(-0.5 * sum(math.log1p((y / k) ** 2) for k in range(1, m + 1))) / y for y in ys
        )
        z = math.fsum(1 / k for k in range(1, m + 1)) / lam + 0.5
        assert bound <= 1e-16 * z

    def test_monotone_in_levels(self):
        vals = [expected_rounds(n, 0.3) for n in range(7)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bracketed_by_single_and_total_attempts(self):
        for n in (0, 2, 5):
            z = expected_rounds(n, 0.25)
            assert 1.0 / 0.25 <= z <= 2**n / 0.25

    def test_zero_probability_diverges(self):
        with pytest.raises(Divergent):
            expected_rounds(2, 0.0)

    @pytest.mark.parametrize(
        "n,p0",
        [(5, 1e-3), (6, 1e-3), (6, 1e-7), (5, 1e-6), (5, 1e-4), (6, 1e-5), (5, 1e-300)],
    )
    def test_long_chains_match_exact_rationals(self, n, p0):
        # at (6, 1e-7) a survival series would need 2e8 terms
        start = time.perf_counter()
        value = expected_rounds(n, p0)
        assert time.perf_counter() - start < 0.01
        assert math.isclose(value, float(exact_rounds(n, p0)), rel_tol=1e-12)

    def test_longest_series_agrees_with_the_closed_form(self):
        # just above CLOSED_FORM_P0 at n = MAX_LEVELS the series runs its most terms
        m, lam = 2**MAX_LEVELS, -math.log1p(-ABOVE_CLOSED_FORM)
        harmonic = math.log(m) + 0.5772156649015329
        value = expected_rounds(MAX_LEVELS, ABOVE_CLOSED_FORM)
        assert math.isclose(value, harmonic / lam + 0.5, rel_tol=1e-12)

    def test_levels_past_the_float_range_refused(self):
        assert math.isfinite(expected_rounds(MAX_LEVELS, 0.5))
        with pytest.raises(TooLarge):
            expected_rounds(1100, 0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidLevel):
            expected_rounds(-1, 0.5)
        with pytest.raises(InvalidProbability):
            expected_rounds(2, 1.5)


class TestGenerationRate:
    def test_single_segment_round_trip_time(self):
        rep = generation_rate(RepeaterConfig(L=20000.0, segments=1, P0=0.1, eta=0.5, F0=0.9))
        assert rep.T0 == 2e-4
        assert np.isclose(rep.Z_n, 10.0, rtol=1e-12)
        assert np.isclose(rep.R_n, 1.0 / (2e-4 * 10.0), rtol=1e-12)
        assert np.isclose(rep.R_n_approx, 0.1 / 2e-4, rtol=1e-12)

    def test_three_level_chain(self):
        rep = generation_rate(RepeaterConfig(L=160000.0, segments=8, P0=0.1, eta=0.5, F0=0.9))
        assert rep.T0 == 2e-4
        assert np.isclose(rep.Z_n, 26.295784368397804, rtol=1e-12)
        assert np.isclose(rep.R_n_approx, (0.1 / 2e-4) * (2.0 / 3.0) ** 3, rtol=1e-12)

    def test_rate_bounded_by_attempt_rate(self):
        rep = generation_rate(RepeaterConfig(L=80000.0, segments=4, P0=0.3, eta=0.5, F0=0.9))
        assert rep.Z_n >= 1.0 / 0.3
        assert rep.R_n <= 0.3 / rep.T0

    def test_rate_survives_an_overflowing_denominator(self):
        # T0 = 1e295 and Z_n = 1e20: their product overflows, the rate 1e-315 does not
        rep = generation_rate(RepeaterConfig(L=1e303, segments=1, P0=1e-20, eta=0.5, F0=0.9))
        assert rep.R_n > 0.0
        assert math.isclose(rep.R_n, 1e-315, rel_tol=1e-12)

    def test_zero_probability_diverges(self):
        with pytest.raises(Divergent):
            generation_rate(RepeaterConfig(L=20000.0, segments=2, P0=0.0, eta=0.5, F0=0.9))


class TestConfig:
    def test_geometry_properties(self):
        cfg = RepeaterConfig(L=160000.0, segments=8, P0=0.1, eta=0.5, F0=0.9)
        assert cfg.L0 == 20000.0
        assert cfg.levels == 3

    def test_rejects_non_power_of_two_segments(self):
        with pytest.raises(InvalidParameter):
            RepeaterConfig(L=1000.0, segments=3, P0=0.1, eta=0.5, F0=0.9)

    def test_segments_past_the_float_range_refused(self):
        RepeaterConfig(L=1000.0, segments=2**MAX_LEVELS, P0=0.1, eta=0.5, F0=0.9)
        with pytest.raises(InvalidParameter):
            RepeaterConfig(L=1000.0, segments=2**1100, P0=0.1, eta=0.5, F0=0.9)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(InvalidParameter):
            RepeaterConfig(L=0.0, segments=2, P0=0.1, eta=0.5, F0=0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_distance_and_speed(self, bad):
        with pytest.raises(InvalidParameter):
            RepeaterConfig(L=bad, segments=2, P0=0.1, eta=0.5, F0=0.9)
        with pytest.raises(InvalidParameter):
            RepeaterConfig(L=1000.0, segments=2, P0=0.1, eta=0.5, F0=0.9, c=bad)

    def test_json_round_trip(self):
        cfg = RepeaterConfig(L=160000.0, segments=8, P0=0.1, eta=0.5, F0=0.9)
        assert config_from_json(config_to_json(cfg)) == cfg

    @pytest.mark.parametrize("data", [
        {"L": 1000.0, "segments": 2},
        {"L": "abc", "segments": 2, "P0": 0.1, "eta": 0.5, "F0": 0.9},
        {"L": None, "segments": 2, "P0": 0.1, "eta": 0.5, "F0": 0.9},
        [1000.0, 2, 0.1, 0.5, 0.9],
    ])
    def test_malformed_json_rejected(self, data):
        with pytest.raises(InvalidParameter):
            config_from_json(data)

    def test_pair_state_validation(self):
        with pytest.raises(InvalidProbability):
            PairState(fidelity=1.2)
        with pytest.raises(InvalidLevel):
            PairState(fidelity=0.9, level=-1)


class TestSimulate:
    def test_symmetric_tournament_consumes_a_power_of_two(self):
        trace = simulate_schedule("symmetric", 0.9999, CFG, force_success=True)
        assert trace.outcome == "reached"
        assert trace.raw_pairs_consumed == 32
        assert trace.rounds == 63
        assert np.isclose(trace.final_fidelity, SYMMETRIC_LADDER[-1], rtol=1e-14)

    def test_symmetric_outputs_follow_the_ladder(self):
        trace = simulate_schedule("symmetric", 0.9999, CFG, force_success=True)
        outputs = [ev.output for ev in trace.events if ev.action == "purify"]
        counts = Counter(round(f, 12) for f in outputs)
        expected = {
            round(f, 12): c for f, c in zip(SYMMETRIC_LADDER, (16, 8, 4, 2, 1))
        }
        assert counts == expected

    def test_pumping_recycles_one_held_pair(self):
        trace = simulate_schedule("pumping", 0.99, RepeaterConfig(
            L=20000.0, segments=1, P0=0.5, eta=0.5, F0=0.7
        ), force_success=True)
        assert trace.outcome == "reached"
        assert trace.raw_pairs_consumed == 6
        assert trace.rounds == 11
        outputs = [ev.output for ev in trace.events if ev.action == "purify"]
        assert np.allclose(outputs, PUMPING_LADDER, rtol=1e-14)

    def test_event_stream_replays_consistently(self):
        for policy in ("symmetric", "pumping", "greedy", "banded"):
            trace = simulate_schedule(policy, 0.95, CFG, seed=3, max_rounds=500)
            alive = replay(trace, CFG.F0)
            if trace.outcome == "reached":
                assert any(
                    np.isclose(f, trace.final_fidelity, rtol=1e-12)
                    for f in alive.values()
                )

    def test_same_seed_reproduces_bytes(self):
        a = simulate_schedule("greedy", 0.95, CFG, seed=7, max_rounds=400)
        b = simulate_schedule("greedy", 0.95, CFG, seed=7, max_rounds=400)
        assert trace_events_jsonl(a) == trace_events_jsonl(b)

    @staticmethod
    def digest(policy, f0, seed, **kw):
        cfg = RepeaterConfig(L=20000.0, segments=1, P0=0.5, eta=0.5, F0=f0)
        trace = simulate_schedule(policy, 0.9999, cfg, seed=seed, max_rounds=3000, **kw)
        jsonl = hashlib.sha256(trace_events_jsonl(trace).encode()).hexdigest()
        return jsonl, trace.rounds, trace.outcome, trace.raw_pairs_consumed

    @pytest.mark.parametrize("key", sorted(TRACE_DIGESTS))
    def test_seeded_traces_match_pinned_digests(self, key):
        assert self.digest(*key) == TRACE_DIGESTS[key]

    def test_forced_and_stale_discard_traces_match_pinned_digests(self):
        assert self.digest("greedy", 0.638, 0, force_success=True) == FORCED_DIGEST
        assert self.digest("banded", 0.638, 0, band_wait_cap=10) == BANDED_CAP_DIGEST

    def test_different_seeds_diverge(self):
        a = simulate_schedule("greedy", 0.95, CFG, seed=0, max_rounds=400)
        b = simulate_schedule("greedy", 0.95, CFG, seed=1, max_rounds=400)
        assert trace_events_jsonl(a) != trace_events_jsonl(b)

    def test_banded_only_purifies_within_a_band(self):
        cfg = RepeaterConfig(L=20000.0, segments=1, P0=0.5, eta=0.5, F0=0.638)
        bands = 8
        width = (1.0 - cfg.F0) / bands

        def band_of(f):
            return min(int((f - cfg.F0) / width), bands - 1)

        trace = simulate_schedule(
            "banded", 0.9999, cfg, force_success=True, bands=bands
        )
        fid = {}
        next_id = 0
        for ev in trace.events:
            if ev.action == "generate":
                fid[next_id] = cfg.F0
                next_id += 1
            elif ev.action == "purify":
                a, b = ev.inputs
                assert band_of(fid[a]) == band_of(fid[b])
                if ev.success:
                    fid[next_id] = ev.output
                    next_id += 1

    def test_banded_discards_stale_pairs(self):
        cfg = RepeaterConfig(L=20000.0, segments=1, P0=0.05, eta=0.5, F0=0.638)
        trace = simulate_schedule(
            "banded", 0.99, cfg, seed=5, max_rounds=2000, band_wait_cap=10
        )
        discards = [ev for ev in trace.events if ev.action == "discard"]
        assert discards
        assert all(len(ev.inputs) == 1 and ev.success for ev in discards)

    def test_raw_pair_budget_halts_the_run(self):
        trace = simulate_schedule(
            "symmetric", 0.9999, CFG, force_success=True, max_raw_pairs=4
        )
        assert trace.outcome == "exhausted"
        assert trace.raw_pairs_consumed == 4
        assert np.isclose(trace.final_fidelity, SYMMETRIC_LADDER[1], rtol=1e-14)

    def test_dead_source_exhausts_with_nothing(self):
        cfg = RepeaterConfig(L=20000.0, segments=1, P0=0.0, eta=0.5, F0=0.638)
        trace = simulate_schedule("symmetric", 0.9, cfg, max_rounds=50)
        assert trace.outcome == "exhausted"
        assert trace.rounds == 50
        assert trace.raw_pairs_consumed == 0
        assert trace.final_fidelity == 0.0
        assert trace_events_jsonl(trace) == ""

    def test_events_are_named_tuples(self):
        trace = simulate_schedule("symmetric", 0.9999, CFG, force_success=True)
        first = trace.events[0]
        assert first == (1, "generate", (0,), True, CFG.F0)
        rnd, action, inputs, success, output = first
        assert (rnd, action, first.inputs) == (first.round, first.action, inputs)
        # every kind of event, of every policy, is a TraceEvent itself
        cfg = RepeaterConfig(L=20000.0, segments=1, P0=0.05, eta=0.5, F0=0.638)
        for policy in ("symmetric", "pumping", "greedy", "banded"):
            trace = simulate_schedule(policy, 0.99, cfg, seed=5, max_rounds=2000, band_wait_cap=10)
            kinds = {(ev.action, ev.success) for ev in trace.events}
            assert {("generate", True), ("purify", True), ("purify", False)} <= kinds
            assert (("discard", True) in kinds) == (policy == "banded")
            assert all(type(ev) is TraceEvent for ev in trace.events)

    def test_rejects_unknown_policy(self):
        with pytest.raises(InvalidParameter):
            simulate_schedule("eager", 0.9, CFG)

    def test_rejects_unreachable_target(self):
        with pytest.raises(InvalidParameter):
            simulate_schedule("symmetric", 0.5, CFG)
        with pytest.raises(InvalidParameter):
            simulate_schedule("symmetric", 1.0, CFG)

    @pytest.mark.parametrize("bad", [math.nan, -5, 2.0, True, "10"])
    def test_rejects_bad_round_cap(self, bad):
        with pytest.raises(InvalidParameter, match="max_rounds"):
            simulate_schedule("symmetric", 0.9, CFG, max_rounds=bad)

    @pytest.mark.parametrize("bad", [math.nan, -1, 7.5, False])
    def test_rejects_bad_raw_pair_budget(self, bad):
        with pytest.raises(InvalidParameter, match="max_raw_pairs"):
            simulate_schedule("symmetric", 0.9, CFG, max_raw_pairs=bad)

    @pytest.mark.parametrize("bad", [math.inf, -1, 10.0, True])
    def test_rejects_bad_band_wait_cap(self, bad):
        with pytest.raises(InvalidParameter, match="band_wait_cap"):
            simulate_schedule("banded", 0.9, CFG, band_wait_cap=bad)

    def test_numpy_integer_limits_are_accepted(self):
        a = simulate_schedule("banded", 0.95, CFG, seed=3, max_rounds=np.int64(300), band_wait_cap=np.int32(10))
        b = simulate_schedule("banded", 0.95, CFG, seed=3, max_rounds=300, band_wait_cap=10)
        assert trace_events_jsonl(a) == trace_events_jsonl(b)

    def test_rejects_empty_banding(self):
        with pytest.raises(InvalidParameter):
            simulate_schedule("banded", 0.9, CFG, bands=0)

    @pytest.mark.parametrize("bad", [2.5, math.inf, True])
    def test_rejects_fractional_banding(self, bad):
        # inf would make the band width zero
        with pytest.raises(InvalidParameter, match="bands"):
            simulate_schedule("banded", 0.9, CFG, bands=bad)

    def test_trace_json_shape(self):
        trace = simulate_schedule("symmetric", 0.9, CFG, seed=2, max_rounds=100)
        data = trace_to_json(trace)
        assert data["policy"] == "symmetric"
        assert data["seed"] == 2
        assert len(data["events"]) == len(trace.events)
        assert {"round", "action", "inputs", "success", "output"} == set(
            data["events"][0]
        )

    def test_jsonl_lines_parse_and_sort_keys(self):
        import json

        trace = simulate_schedule("pumping", 0.9, CFG, seed=4, max_rounds=200)
        text = trace_events_jsonl(trace)
        lines = text.splitlines()
        assert len(lines) == len(trace.events)
        for line in lines:
            keys = list(json.loads(line))
            assert keys == sorted(keys)
