import itertools

import numpy as np
import pytest

from orgswarm import (OrgDesign, SimConfig, Tendency, fitness_many, init_swarm,
                      replicate_rng, to_bitstring)


def bits(s):
    """Parse an ASCII '0'/'1' string into an int8 position, index 0 first."""
    return np.array([int(c) for c in s], dtype=np.int8)


def distance(a, b):
    """Hamming distance of two positions, read off one ``fitness_many`` row."""
    return int(fitness_many(np.reshape(a, (1, -1)), b)[0])


def swarm(agents, dim, seed):
    config = SimConfig(master_seed=seed, design=OrgDesign.fully_networked(),
                       tendency=Tendency.REACTIVE, dim=dim, agents=agents)
    config.validate()
    return init_swarm(config, replicate_rng(seed, 0))


class TestHammingDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("10110", "10110", 0),
        ("00000", "11111", 5),
        ("10110", "10011", 2),
    ])
    def test_hand_examples(self, a, b, expected):
        assert distance(bits(a), bits(b)) == expected

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(1, 30))
            a = rng.integers(0, 2, d)
            b = rng.integers(0, 2, d)
            assert distance(a, a) == 0
            assert distance(a, b) == distance(b, a)
            assert 0 <= distance(a, b) <= d

    def test_triangle_inequality_exhaustive_d4(self):
        space = np.array(list(itertools.product((0, 1), repeat=4)))
        table = np.array([fitness_many(space, goal) for goal in space])  # [to, from]
        for a, b, c in itertools.product(range(len(space)), repeat=3):
            assert table[c, a] <= table[b, a] + table[c, b]

    def test_single_bit_flip_changes_distance_by_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            a = rng.integers(0, 2, d)
            goal = rng.integers(0, 2, d)
            i = int(rng.integers(d))
            flipped = a.copy()
            flipped[i] ^= 1
            after, before = fitness_many(np.array([flipped, a]), goal)
            assert after - before in (-1, 1)


class TestFitness:
    def test_goal_reached_is_zero(self):
        g = bits("1100101")
        assert distance(g, g) == 0

    def test_complement_is_max(self):
        goal = np.zeros(25, dtype=np.int8)
        assert distance(1 - goal, goal) == 25

    def test_hand_example(self):
        assert distance(bits("110"), bits("011")) == 2

    def test_fitness_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        goal = rng.integers(0, 2, 10)
        block = rng.integers(0, 2, (50, 10))
        many = fitness_many(block, goal)
        for i in range(50):
            assert many[i] == np.count_nonzero(block[i] != goal)

    @pytest.mark.parametrize("n,d", [(20, 25), (200, 200)])
    def test_fitness_many_matches_sum(self, n, d):
        # 200 differing bits overflow an int8 count: the result must not
        # accumulate in the positions' dtype
        rng = np.random.default_rng(d)
        goal = rng.integers(0, 2, d, dtype=np.int8)
        positions = rng.integers(0, 2, (n, d), dtype=np.int8)
        positions[0] = 1 - goal
        got = fitness_many(positions, goal)
        want = (positions != goal).sum(axis=1)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want) and got[0] == d


class TestRandomPosition:
    """``init_swarm`` draws the goal, then the positions, as uniform bits."""

    def test_deterministic_given_seed(self):
        rng = replicate_rng(99, 0)
        goal = rng.integers(0, 2, size=25, dtype=np.int8)
        positions = rng.integers(0, 2, size=(20, 25), dtype=np.int8)
        for _ in range(2):
            s = swarm(20, 25, seed=99)
            assert np.array_equal(s.goal, goal)
            assert np.array_equal(s.positions, positions)

    def test_length_contract(self):
        s = swarm(20, 25, seed=0)
        assert s.goal.shape == (25,) and s.positions.shape == (20, 25)
        assert s.goal.dtype == s.positions.dtype == np.int8

    def test_mean_ones_count_matches_binomial(self):
        # Binomial(25, 0.5): mean 12.5; 10,000 agents keep the sample mean
        # well inside [11.5, 13.5].
        mean_ones = swarm(10_000, 25, seed=123).positions.sum(axis=1).mean()
        assert 11.5 <= mean_ones <= 13.5

    def test_bits_are_binary(self):
        s = swarm(100, 8, seed=5)
        assert set(np.unique(s.positions)) | set(np.unique(s.goal)) <= {0, 1}


class TestBitstring:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.integers(0, 2, size=int(rng.integers(1, 40)), dtype=np.int8)
            assert np.array_equal(bits(to_bitstring(p)), p)

    def test_index_zero_first(self):
        assert to_bitstring(np.array([1, 0, 0])) == "100"
