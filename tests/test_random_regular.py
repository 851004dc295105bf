"""Tests for the random regular / degree-sequence samplers."""

import random

import pytest

from repro.errors import GenerationError
from repro.graphs.properties import is_connected
from repro.graphs.random_regular import (
    configuration_model,
    random_connected_regular_graph,
    random_even_degree_graph,
    random_regular_graph,
)


class TestStegerWormald:
    @pytest.mark.parametrize("n,r", [(10, 3), (20, 4), (15, 4), (30, 5), (8, 7)])
    def test_regularity_and_simplicity(self, n, r, rng):
        g = random_regular_graph(n, r, rng)
        assert g.n == n
        assert g.is_regular() and g.regularity() == r
        assert g.is_simple()

    def test_odd_product_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, 3, random.Random(0))

    def test_r_too_large_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(4, 4, random.Random(0))

    def test_zero_degree(self, rng):
        g = random_regular_graph(5, 0, rng)
        assert g.m == 0

    def test_n_nonpositive_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(0, 0, random.Random(0))

    def test_deterministic_given_seed(self):
        a = random_regular_graph(24, 4, random.Random(123))
        b = random_regular_graph(24, 4, random.Random(123))
        assert a == b

    def test_different_seeds_differ(self):
        a = random_regular_graph(40, 4, random.Random(1))
        b = random_regular_graph(40, 4, random.Random(2))
        assert a != b

    def test_complete_graph_edge_case(self, rng):
        # r = n-1 forces K_n; Steger-Wormald must finish via its fallback.
        g = random_regular_graph(6, 5, rng)
        assert g.m == 15
        assert g.is_simple()


class TestConfigurationModel:
    def test_simple_sample_degrees(self, rng):
        degrees = [3, 3, 2, 2, 2]
        g = configuration_model(degrees, rng, simple=True)
        assert list(g.degrees()) == degrees
        assert g.is_simple()

    def test_multigraph_sample_degrees(self, rng):
        degrees = [4] * 6
        g = configuration_model(degrees, rng, simple=False)
        assert list(g.degrees()) == degrees

    def test_odd_sum_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([1, 2], random.Random(0))

    def test_negative_degree_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([-1, 1], random.Random(0))

    def test_impossible_simple_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([3, 1], random.Random(0), simple=True)

    def test_retry_budget_raises(self):
        # K2 with a double edge demand: degrees [2, 2] can only pair into a
        # 2-cycle (parallel) or two loops - never simple.
        with pytest.raises(GenerationError):
            configuration_model([2, 2], random.Random(0), simple=True, max_retries=50)

    def test_degree_too_large_rejected_before_sampling(self):
        # The d > n-1 bound lives in _validate_degree_sequence (the old
        # inline copy in configuration_model is gone; the validator used to
        # hold a dead `any(...) ... pass` branch that checked nothing).
        with pytest.raises(GenerationError, match="exceeds n-1"):
            configuration_model([4, 2, 1, 1], random.Random(0), simple=True)

    def test_degree_equal_n_allowed_for_multigraphs(self, rng):
        # d >= n is only impossible for *simple* graphs; a multigraph
        # realizes it with loops/parallel edges.
        degrees = [4, 2, 1, 1]
        g = configuration_model(degrees, rng, simple=False)
        assert list(g.degrees()) == degrees

    def test_single_vertex_loops_allowed_for_multigraphs(self, rng):
        g = configuration_model([2], rng, simple=False)
        assert g.n == 1 and g.m == 1 and g.has_loops()

    def test_single_vertex_simple_rejected_before_sampling(self):
        # One vertex of degree 4 is two loops: no simple realization.  The
        # validator used to exempt n == 1, so the sampler spun through its
        # whole retry budget and blamed density.
        rng = random.Random(0)
        before = rng.getstate()
        with pytest.raises(GenerationError, match="simple graph impossible"):
            configuration_model([4], rng, simple=True)
        assert rng.getstate() == before

    def test_single_isolated_vertex_is_simple(self, rng):
        g = configuration_model([0], rng, simple=True)
        assert g.n == 1 and g.m == 0


class TestEvenDegreeSequences:
    def test_even_sequence(self, rng):
        degrees = [4, 4, 4, 6, 4, 4, 4, 6, 4, 4]
        g = random_even_degree_graph(degrees, rng)
        assert list(g.degrees()) == degrees
        assert g.has_even_degrees()

    def test_odd_degree_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_even_degree_graph([3, 3, 4, 4], rng)

    def test_degree_below_two_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_even_degree_graph([0, 2, 2], rng)


class TestConnectedSampler:
    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_connected(self, r, rng):
        g = random_connected_regular_graph(40, r, rng)
        assert is_connected(g)
        assert g.regularity() == r

    def test_r_below_two_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_connected_regular_graph(10, 1, rng)

    def test_distribution_touches_many_graphs(self, rng_factory):
        # 12 samples of G(10,3) should not all coincide.
        seen = {random_regular_graph(10, 3, rng_factory(i)) for i in range(12)}
        assert len(seen) > 3
