"""Tests for the deterministic RNG contract."""

import math

import pytest

from chartscribe.rng import GAMMA, M64, Rng, derive_seed, mix64

# Reference outputs computed from the documented algorithm in a standalone
# script; the seed-0 values agree with the published splitmix64 vectors.
SEED0_RAWS = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]
SEED42_RAWS = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
]
SEED42_NORMALS = [
    0.4147197504315305,
    -0.8918862136277562,
    1.7295930879374015,
    0.5456204361828646,
]


class TestRawStream:
    """The splitmix64 word stream is frozen."""

    def test_seed0_known_answers(self):
        rng = Rng(0)
        assert [rng.next_raw() for _ in range(4)] == SEED0_RAWS

    def test_seed42_known_answers(self):
        rng = Rng(42)
        assert [rng.next_raw() for _ in range(4)] == SEED42_RAWS

    def test_determinism(self):
        a = Rng(987654321)
        b = Rng(987654321)
        assert [a.next_raw() for _ in range(100)] == [b.next_raw() for _ in range(100)]

    def test_seed_masked_to_64_bits(self):
        assert Rng(1 << 64).next_raw() == Rng(0).next_raw()

    def test_outputs_are_64_bit(self):
        rng = Rng(7)
        for _ in range(1000):
            assert 0 <= rng.next_raw() <= M64


class TestFloatConversions:
    def test_random_range_and_mean(self):
        rng = Rng(3)
        xs = [rng.random() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.01

    def test_random_first_value_frozen(self):
        assert Rng(0).random() == (SEED0_RAWS[0] >> 11) * 2.0 ** -53

    def test_normal_known_answers(self):
        rng = Rng(42)
        got = [rng.normal() for _ in range(4)]
        assert got == SEED42_NORMALS

    def test_normal_consumes_two_raws(self):
        rng = Rng(42)
        rng.normal()
        # after one normal the stream continues at the third raw word
        assert rng.next_raw() == SEED42_RAWS[2]

    def test_normal_moments(self):
        rng = Rng(11)
        n = 20000
        xs = [rng.normal() for _ in range(n)]
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / n
        assert abs(mean) < 0.03
        assert abs(var - 1.0) < 0.05

    def test_uniform_bounds(self):
        rng = Rng(5)
        for _ in range(1000):
            x = rng.uniform(-3.0, 7.0)
            assert -3.0 <= x < 7.0


class TestIntegerDraws:
    def test_randint_range(self):
        rng = Rng(9)
        for _ in range(5000):
            assert 0 <= rng.randint(7) < 7

    def test_randint_covers_all_values(self):
        rng = Rng(9)
        seen = {rng.randint(8) for _ in range(1000)}
        assert seen == set(range(8))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(1).randint(0)

    def test_choice_matches_randint(self):
        a = Rng(13)
        b = Rng(13)
        seq = ["p", "q", "r", "s"]
        assert [a.choice(seq) for _ in range(50)] == [seq[b.randint(4)] for _ in range(50)]

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            Rng(1).choice([])

    def test_sample_distinct_and_bounded(self):
        rng = Rng(21)
        pool = list(range(10))
        for _ in range(200):
            k = rng.randint(10) + 1
            got = rng.sample(pool, k)
            assert len(got) == k
            assert len(set(got)) == k
            assert set(got) <= set(pool)

    def test_sample_too_large_raises(self):
        with pytest.raises(ValueError):
            Rng(1).sample([1, 2], 3)

    def test_sample_negative_raises(self):
        with pytest.raises(ValueError, match="sample\\(\\) of -1"):
            Rng(1).sample([1, 2, 3], -1)


class TestSeedDerivation:
    def test_matches_mix_chain(self):
        h = mix64(((77 + GAMMA) & M64) ^ 5)
        h = mix64(((h + GAMMA) & M64) ^ 6)
        assert derive_seed(77, 5, 6) == h

    def test_word_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_distinct_streams(self):
        # derived seeds give unrelated streams: no collisions in a small scan
        seeds = {derive_seed(123, 1, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_no_words_is_masked_identity(self):
        assert derive_seed(42) == 42
        assert derive_seed((1 << 64) + 42) == 42
