"""Tests for the deterministic seed tree."""

import random

from repro.sim.rng import DEFAULT_ROOT_SEED, as_generator, child_seed, seed_sequence, spawn


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(1, "a", 2) == child_seed(1, "a", 2)

    def test_labels_matter(self):
        assert child_seed(1, "a") != child_seed(1, "b")
        assert child_seed(1, "a", 0) != child_seed(1, "a", 1)

    def test_root_matters(self):
        assert child_seed(1, "a") != child_seed(2, "a")

    def test_64_bit_range(self):
        s = child_seed(DEFAULT_ROOT_SEED, "x")
        assert 0 <= s < 2**64


class TestSpawn:
    def test_reproducible_streams(self):
        a = spawn(7, "walk", 0)
        b = spawn(7, "walk", 0)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_independent_streams(self):
        a = spawn(7, "walk", 0)
        b = spawn(7, "walk", 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestSeedSequence:
    def test_count_and_distinctness(self):
        seeds = seed_sequence(3, 20, "trial")
        assert len(seeds) == 20
        assert len(set(seeds)) == 20

    def test_stable(self):
        assert seed_sequence(3, 5, "x") == seed_sequence(3, 5, "x")


class TestAsGenerator:
    def test_seed_becomes_its_own_generator(self):
        seed = child_seed(7, "walk", 0)
        a, b = as_generator(seed), as_generator(seed)
        assert a is not b
        assert a.getstate() == b.getstate() == random.Random(seed).getstate()
        assert a.getstate() == spawn(7, "walk", 0).getstate()

    def test_generator_passes_through(self):
        rng = spawn(7, "walk", 1)
        assert as_generator(rng) is rng
