import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgswarm import ConfigError, SimConfig
from orgswarm.topology import SiloAssignment, build_assignment, reshuffle, silo_leaders


def rng(seed=0):
    return np.random.default_rng(seed)


def sizes(assignment):
    return np.bincount(assignment.silo_of, minlength=assignment.starts.size)


def references(assignment, positions, fitnesses):
    """Each agent's visible best, gathered as the engine's step does."""
    leader_of_agent = silo_leaders(assignment, fitnesses)[assignment.silo_of]
    return positions[leader_of_agent], fitnesses[leader_of_agent]


class TestBuildAssignment:
    def test_fully_networked_single_silo(self):
        a = build_assignment("fully_networked", 1, 20, rng())
        assert a.starts.size == 1
        assert (a.silo_of == 0).all()

    def test_balanced_partition_even(self):
        a = build_assignment("siloed", 5, 20, rng())
        assert sorted(sizes(a).tolist()) == [4, 4, 4, 4, 4]

    def test_balanced_partition_uneven(self):
        a = build_assignment("siloed", 3, 10, rng())
        assert sorted(sizes(a).tolist()) == [3, 3, 4]

    def test_each_agent_in_exactly_one_silo(self):
        a = build_assignment("siloed", 4, 18, rng(3))
        assert sorted(a.order.tolist()) == list(range(18))
        bounds = [*a.starts.tolist(), 18]
        for silo in range(a.starts.size):
            assert (a.silo_of[a.order[bounds[silo]:bounds[silo + 1]]] == silo).all()

    def test_too_many_silos_rejected(self):
        # checked once, at the config boundary
        with pytest.raises(ConfigError) as err:
            SimConfig(master_seed=1, design="siloed", tendency="reactive",
                      silo_count=30, agents=20).validate()
        assert err.value.fields == ["silo_count"]

    def test_deterministic(self):
        a = build_assignment("siloed", 5, 20, rng(42))
        b = build_assignment("siloed", 5, 20, rng(42))
        assert np.array_equal(a.silo_of, b.silo_of)


class TestReshuffle:
    def test_sizes_preserved(self):
        a = build_assignment("dynamic", 5, 20, rng(1))
        b = reshuffle(a, rng(2))
        assert sorted(sizes(b).tolist()) == sorted(sizes(a).tolist())
        assert b.starts.size == a.starts.size

    def test_deterministic(self):
        a = build_assignment("siloed", 5, 20, rng(1))
        assert np.array_equal(reshuffle(a, rng(9)).silo_of,
                              reshuffle(a, rng(9)).silo_of)

    def test_invariants_hold_after_many_reshuffles(self):
        a = build_assignment("siloed", 3, 10, rng(5))
        starts = a.starts.copy()
        r = rng(6)
        for _ in range(200):
            a = reshuffle(a, r)
            counts = sizes(a)
            assert counts.sum() == 10
            assert counts.max() - counts.min() <= 1
        assert np.array_equal(a.starts, starts)

    def test_pair_cooccurrence_frequency(self):
        # Uniform balanced partitions of 20 agents into 5 silos of 4 put any
        # fixed pair together with probability (4-1)/(20-1) = 3/19; verified
        # by direct simulation.
        n, silos, trials = 20, 5, 1000
        expected = 3 / 19
        a = build_assignment("siloed", silos, n, rng(8))
        r = rng(8)
        together = np.zeros((n, n))
        for _ in range(trials):
            a = reshuffle(a, r)
            same = a.silo_of[:, None] == a.silo_of[None, :]
            together += same
        freq = together / trials
        off_diag = freq[~np.eye(n, dtype=bool)]
        assert np.abs(off_diag - expected).max() <= 0.03


class TestNeighborhoodBest:
    def test_fully_networked_argmin(self):
        a = build_assignment("fully_networked", 1, 3, rng())
        positions = np.array([[0, 0], [1, 1], [1, 0]], dtype=np.int8)
        fits = np.array([3, 1, 2])
        assert np.array_equal(references(a, positions, fits)[0][0], [1, 1])

    def test_tie_breaks_to_lowest_index(self):
        a = build_assignment("fully_networked", 1, 3, rng())
        positions = np.array([[0, 0], [1, 1], [1, 0]], dtype=np.int8)
        fits = np.array([2, 2, 3])
        assert silo_leaders(a, fits).tolist() == [0]
        assert np.array_equal(references(a, positions, fits)[0][2], [0, 0])

    def test_two_silos_scoped_argmin(self):
        # silos {0,1} and {2,3}, fitnesses [3,1,4,2]:
        # agent 0 sees agent 1's pbest; agent 2 sees agent 3's.
        a = SiloAssignment(np.array([0, 0, 1, 1]), np.array([1, 0, 3, 2]), np.array([0, 2]))
        positions = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)
        fits = np.array([3, 1, 4, 2])
        assert silo_leaders(a, fits).tolist() == [1, 3]
        gb, _ = references(a, positions, fits)
        assert np.array_equal(gb[0], [0, 1])
        assert np.array_equal(gb[2], [1, 1])

    def test_fully_networked_reference_identical_for_all(self):
        r = rng(12)
        a = build_assignment("fully_networked", 1, 8, r)
        positions = r.integers(0, 2, (8, 6), dtype=np.int8)
        fits = r.integers(0, 7, 8)
        gb, gb_fit = references(a, positions, fits)
        assert (gb == gb[0]).all()
        assert (gb_fit == fits.min()).all()

    def test_vectorized_matches_scalar(self):
        # brute force: agent i sees the silo-mate with the lowest
        # (fitness, index)
        r = rng(13)
        a = build_assignment("siloed", 3, 9, r)
        positions = r.integers(0, 2, (9, 5), dtype=np.int8)
        fits = r.integers(0, 6, 9)
        gb_all, _ = references(a, positions, fits)
        for i in range(9):
            mates = [j for j in range(9) if a.silo_of[j] == a.silo_of[i]]
            best = min(mates, key=lambda j: (fits[j], j))
            assert np.array_equal(gb_all[i], positions[best])

    def test_leader_fitness_is_lower_bound(self):
        r = rng(14)
        a = build_assignment("fully_networked", 1, 10, r)
        fits = r.integers(0, 20, 10)
        leaders = silo_leaders(a, fits)
        assert fits[leaders[0]] == fits.min()

    def test_static_silo_best_monotone_under_pbest_updates(self):
        # Simulate monotone personal-best improvement; the silo reference
        # fitness must never increase while membership is fixed.
        r = rng(15)
        a = build_assignment("siloed", 4, 12, r)
        fits = r.integers(5, 25, 12)
        prev_ref = fits[silo_leaders(a, fits)]
        for _ in range(100):
            agent = int(r.integers(12))
            fits[agent] = max(0, fits[agent] - int(r.integers(0, 3)))
            ref = fits[silo_leaders(a, fits)]
            assert (ref <= prev_ref).all()
            prev_ref = ref


class TestAssignmentInvariants:
    def test_design_validation(self):
        def bad_fields(design, agents=10, **options):
            config = SimConfig(master_seed=1, design=design, tendency="reactive",
                               agents=agents, **options)
            try:
                config.validate()
            except ConfigError as e:
                return e.fields
            return []

        assert bad_fields("fully_networked", agents=5) == []
        assert bad_fields("siloed", silo_count=3) == []
        assert bad_fields("siloed", silo_count=11) == ["silo_count"]
        assert bad_fields("siloed", silo_count="5") == ["silo_count"]
        assert bad_fields("dynamic", silo_count=2,
                          reshuffle_interval=0) == ["reshuffle_interval"]
        assert bad_fields("dynamic", silo_count=2,
                          reshuffle_interval=True) == ["reshuffle_interval"]


def brute_force_leaders(assignment, fitnesses):
    """Per silo, the lowest agent index among the silo's fittest agents."""
    leaders = []
    for silo in range(assignment.starts.size):
        members = [i for i in range(assignment.silo_of.size)
                   if assignment.silo_of[i] == silo]
        best = min(fitnesses[i] for i in members)
        leaders.append(next(i for i in members if fitnesses[i] == best))
    return leaders


@settings(derandomize=True, max_examples=300, deadline=None)
@given(agents=st.integers(1, 24), silos=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1), reshuffles=st.integers(0, 3),
       top=st.sampled_from([0, 1, 2, 25, 10**6]))
@example(agents=20, silos=3, seed=1, reshuffles=0, top=25)    # sizes 7/7/6
@example(agents=20, silos=1, seed=2, reshuffles=0, top=1)     # S = 1
@example(agents=9, silos=9, seed=3, reshuffles=2, top=2)      # S = N
@example(agents=20, silos=5, seed=4, reshuffles=3, top=0)     # all tied
def test_leaders_match_brute_force(agents, silos, seed, reshuffles, top):
    # Small ``top`` gives heavy fitness ties; reshuffles redraw the partition.
    silos = min(silos, agents)
    r = rng(seed)
    design = "fully_networked" if silos == 1 else "siloed"
    a = build_assignment(design, silos, agents, r)
    for _ in range(reshuffles):
        a = reshuffle(a, r)
    fits = r.integers(0, top + 1, agents)
    assert silo_leaders(a, fits).tolist() == brute_force_leaders(a, fits)
