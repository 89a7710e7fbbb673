"""Faulty-module model: determinism, draw discipline, and calibration."""

import math

import numpy as np
import pytest

from htmr_lab.faults import (
    _WORDS,
    RandomSource,
    SCENARIO_PATTERNS,
    SCRATCH_CELLS,
    make_scenario,
)


class TestScenarios:
    def test_roundtrip_patterns(self):
        for pattern in SCENARIO_PATTERNS:
            scenario = make_scenario(pattern, 0.3)
            assert "".join("F" if rate else "N" for rate in scenario) == pattern
            assert scenario == tuple(0.3 if c == "F" else 0.0 for c in pattern)

    def test_rate_must_be_probability(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="module error rate must lie in"):
                make_scenario("NFF", bad)

    def test_bad_patterns_rejected(self):
        for bad in ("NN", "NNNF", "NFX", ""):
            with pytest.raises(ValueError):
                make_scenario(bad, 0.1)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(1234)
        b = RandomSource(1234)
        assert a.uniforms(20).tolist() == b.uniforms(20).tolist()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RandomSource(-1)

    @pytest.mark.parametrize("seed", [1.7, math.nan, math.inf, "3", None])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            RandomSource(seed)

    def test_non_integral_path_index_rejected(self):
        with pytest.raises(ValueError, match="path index must be an integer, got 1.5"):
            RandomSource(0, (1.5,))
        with pytest.raises(ValueError, match="path index must be an integer, got 0.5"):
            RandomSource(0).derive(3, 0.5)

    def test_integral_floats_are_keys(self):
        assert RandomSource(2.0).uniforms(1)[0] == RandomSource(2).uniforms(1)[0]
        assert RandomSource(0, (3.0,)).path == (3,)

    def test_scalar_and_array_draws_share_one_stream(self):
        a = RandomSource(77)
        b = RandomSource(77)
        pieces = [a.uniforms(1), a.uniforms(()).reshape(1), a.uniforms((2, 3)).ravel(),
                  a.uniforms(8)]
        assert np.array_equal(np.concatenate(pieces), b.uniforms(16))

    def test_distinct_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert a.uniforms(1)[0] != b.uniforms(1)[0]

    def test_derived_streams_are_stable_and_distinct(self):
        master = RandomSource(42)
        first = [master.derive(0).uniforms(1)[0], master.derive(1).uniforms(1)[0]]
        assert first[0] != first[1]
        # derivation ignores how much of the parent has been consumed
        master.uniforms(1)
        assert master.derive(0).uniforms(1)[0] == first[0]
        assert master.derive(1).uniforms(1)[0] == first[1]

    def test_nested_paths(self):
        master = RandomSource(42)
        assert master.derive(3, 1).uniforms(1)[0] == master.derive(3).derive(1).uniforms(1)[0]

    def test_draws_lie_in_unit_interval(self):
        u = RandomSource(5).uniforms(10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0


class TestBernoulli:
    """``RandomSource._bernoulli``: marginals and pairwise independence."""

    N = 2_000_000

    @staticmethod
    def within_five_sigma(count, pairs, p, overlap):
        # ``pairs`` indicators at probability ``p``; ``overlap`` pairs of
        # them share one bit, which adds covariance r**3 - r**4 each
        r = math.sqrt(p)
        variance = pairs * p * (1.0 - p) + 2 * overlap * (r**3 - r**4)
        assert abs(count - pairs * p) <= 5.0 * math.sqrt(variance)

    # 1/17 is the residual's supremum in ``bernoulli_lanes``
    @pytest.mark.parametrize("rate", [1e-3, 1 / 17, 0.3, 0.5])
    def test_bits_are_independent_at_their_rate(self, rate):
        bits = np.empty(self.N, dtype=bool)
        RandomSource(2024).derive(int(rate * 1000))._bernoulli(bits, rate)
        n = self.N
        self.within_five_sigma(int(bits.sum()), n, rate, 0)
        for stride in (1, 1 << 16):
            joint = int(np.count_nonzero(bits[:-stride] & bits[stride:]))
            self.within_five_sigma(joint, n - stride, rate * rate, n - 2 * stride)

    @pytest.mark.parametrize("rate", [5e-324, 1e-300])
    def test_subnormal_and_tiny_rates_set_no_bits(self, rate):
        bits = np.ones(1000, dtype=bool)
        RandomSource(6)._bernoulli(bits, rate)
        assert not bits.any()
        RandomSource(6)._bernoulli(bits[:0], rate)

    def test_same_key_same_bits(self):
        for rate in (0.01, 0.4, 0.8):
            a, b = np.empty(100_000, dtype=bool), np.empty(100_000, dtype=bool)
            RandomSource(9, (1, 2))._bernoulli(a, rate)
            RandomSource(9).derive(1, 2)._bernoulli(b, rate)
            assert np.array_equal(a, b)
            RandomSource(9, (1, 3))._bernoulli(b, rate)
            assert not np.array_equal(a, b)


def unpacked(lanes, m):
    """Packed rows as bools, one column per lane below ``m``."""
    return np.unpackbits(lanes.view(np.uint8), axis=1, bitorder="little")[:, :m].astype(bool)


class TestBernoulliLanes:
    """``RandomSource.bernoulli_lanes``: marginals, pairs across lane edges, padding."""

    ROWS, M = 2048, 1000  # 16 words a row, the last one 40 lanes wide

    @staticmethod
    def lanes(rate, rows, m, seed=2025):
        out = np.empty((rows, -(-m // 64)), dtype=np.uint64)
        cells = np.empty(SCRATCH_CELLS, dtype=bool)
        RandomSource(seed).derive(int(rate * 1000)).bernoulli_lanes(out, m, rate, cells)
        return out

    @pytest.mark.parametrize("rate", [1e-3, 0.05, 0.1, 0.3, 0.45, 0.5, 0.55, 0.9, 1.0])
    def test_lanes_are_independent_at_their_rate(self, rate):
        # 32,768 words: the dyadic stage takes several steps of _WORDS words
        assert self.ROWS * 16 > 2 * _WORDS
        bits = unpacked(self.lanes(rate, self.ROWS, self.M), self.M)
        check = TestBernoulli.within_five_sigma
        check(int(bits.sum()), bits.size, rate, 0)
        for first, second in (
            (bits[:, 0:-1:2], bits[:, 1::2]),  # adjacent lanes of one word
            (bits[:, 63::64], bits[:, 64::64]),  # lanes 63 and 64, across a word edge
            (bits[:-1, -1], bits[1:, 0]),  # a row's last lane and the next row's first
        ):
            joint = int(np.count_nonzero(first & second))
            check(joint, first.size, rate * rate, 0)

    @pytest.mark.parametrize("m", [1, 7, 63, 65, 34_464])
    def test_padding_lanes_are_clear(self, m):
        for rate in (0.05, 0.3, 0.5, 0.55, 0.9, 1.0):
            last = self.lanes(rate, 3, m)[:, -1]
            assert not (last >> np.uint64(m % 64)).any(), rate

    @pytest.mark.parametrize("rate", [0.01, 0.3, 0.55, 0.9])
    def test_a_row_split_into_pieces_keeps_its_rate_and_clears_its_padding(self, rate):
        # rows of two whole pieces and a short third one, which ends in 47
        # real lanes of its last word
        words = 2 * _WORDS + 3
        m = 64 * words - 17
        out = self.lanes(rate, 2, m)
        assert not (out[:, -1] >> np.uint64(m % 64)).any()
        bits = unpacked(out, m)
        check = TestBernoulli.within_five_sigma
        edges = (0, 64 * _WORDS, 128 * _WORDS, m)
        for lo, hi in zip(edges, edges[1:]):
            piece = bits[:, lo:hi]
            check(int(piece.sum()), piece.size, rate, 0)
        # each piece draws its own bits: lane t of the first piece and lane t
        # of the second are independent
        first, second = bits[:, :edges[1]], bits[:, edges[1]:edges[2]]
        check(int(np.count_nonzero(first & second)), first.size, rate * rate, 0)

    def test_below_one_thirty_second_the_lanes_are_packed_bernoulli_bits(self):
        # a = 0: the dyadic stage draws nothing and the residual is the rate,
        # or above 1/2 the inverted residual at 1 - rate
        scratch = np.empty(SCRATCH_CELLS, dtype=bool)
        for rate in (1e-3, 0.03, 0.99):
            cells = np.empty(3 * 100, dtype=bool)
            RandomSource(8)._bernoulli(cells, min(rate, 1.0 - rate))
            if rate > 0.5:
                cells = ~cells
            out = np.empty((3, 2), dtype=np.uint64)
            RandomSource(8).bernoulli_lanes(out, 100, rate, scratch)
            assert np.array_equal(unpacked(out, 100), cells.reshape(3, 100)), rate

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rates_zero_and_one_draw_nothing(self, rate):
        rng = RandomSource(6)
        cells = np.empty(SCRATCH_CELLS, dtype=bool)
        rng.bernoulli_lanes(np.empty((2, 2), dtype=np.uint64), 100, rate, cells)
        assert rng.uniforms(1)[0] == RandomSource(6).uniforms(1)[0]


class TestCalibration:
    N = 1_000_000

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
    def test_inversion_frequency_within_four_sigma(self, rate):
        # vectorized draws from one stream, applying the decision rule u < rate
        u = RandomSource(314159).derive(int(rate * 10)).uniforms(self.N)
        frequency = float((u < rate).mean())
        bound = 4.0 * math.sqrt(rate * (1.0 - rate) / self.N)
        assert abs(frequency - rate) <= bound
