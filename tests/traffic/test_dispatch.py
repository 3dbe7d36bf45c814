"""Dispatch-policy unit tests against a scripted queue view."""

import pytest

from repro.traffic import (
    ClassAwareDispatch,
    JoinShortestQueue,
    LeastOutstandingWork,
    RandomDispatch,
    RoundRobinDispatch,
    parse_dispatch,
)


class FakeView:
    def __init__(self, depths=None, work=None):
        self.depths = depths or {}
        self.work = work or {}

    def queue_depth(self, core_id):
        return self.depths.get(core_id, 0)

    def outstanding_work(self, core_id):
        return self.work.get(core_id, 0.0)


class FakeSpec:
    def __init__(self, kind="new_order"):
        self.kind = kind


CORES = (0, 1, 2, 3)


class TestRoundRobin:
    def test_cycles_per_machine(self):
        policy = RoundRobinDispatch()
        policy.reset(seed=0)
        view = FakeView()
        picks = [
            policy.choose(0, CORES, FakeSpec(), 0, view) for _ in range(6)
        ]
        assert picks == [0, 1, 2, 3, 0, 1]

    def test_machines_count_independently(self):
        policy = RoundRobinDispatch()
        policy.reset(seed=0)
        view = FakeView()
        assert policy.choose(0, (0, 1), FakeSpec(), 0, view) == 0
        assert policy.choose(1, (2, 3), FakeSpec(), 0, view) == 2
        assert policy.choose(0, (0, 1), FakeSpec(), 0, view) == 1
        assert policy.choose(1, (2, 3), FakeSpec(), 0, view) == 3

    def test_reset_restarts_the_cycle(self):
        policy = RoundRobinDispatch()
        policy.reset(seed=0)
        view = FakeView()
        policy.choose(0, CORES, FakeSpec(), 0, view)
        policy.reset(seed=0)
        assert policy.choose(0, CORES, FakeSpec(), 0, view) == 0


class TestRandom:
    def test_deterministic_for_a_seed(self):
        a, b = RandomDispatch(), RandomDispatch()
        a.reset(seed=5)
        b.reset(seed=5)
        view = FakeView()
        picks_a = [a.choose(0, CORES, FakeSpec(), 0, view) for _ in range(20)]
        picks_b = [b.choose(0, CORES, FakeSpec(), 0, view) for _ in range(20)]
        assert picks_a == picks_b

    def test_seed_changes_the_stream(self):
        a, b = RandomDispatch(), RandomDispatch()
        a.reset(seed=5)
        b.reset(seed=6)
        view = FakeView()
        picks_a = [a.choose(0, CORES, FakeSpec(), 0, view) for _ in range(20)]
        picks_b = [b.choose(0, CORES, FakeSpec(), 0, view) for _ in range(20)]
        assert picks_a != picks_b

    def test_stays_on_candidate_cores(self):
        policy = RandomDispatch()
        policy.reset(seed=1)
        view = FakeView()
        for _ in range(50):
            assert policy.choose(0, (2, 3), FakeSpec(), 0, view) in (2, 3)


class TestQueueAware:
    def test_jsq_picks_least_depth(self):
        view = FakeView(depths={0: 3, 1: 1, 2: 2, 3: 5})
        assert JoinShortestQueue().choose(0, CORES, FakeSpec(), 0, view) == 1

    def test_jsq_ties_break_to_lowest_core(self):
        view = FakeView(depths={0: 2, 1: 2, 2: 2, 3: 2})
        assert JoinShortestQueue().choose(0, CORES, FakeSpec(), 0, view) == 0

    def test_low_weighs_work_not_heads(self):
        # Core 1 has more tasks but far less remaining work.
        view = FakeView(
            depths={0: 1, 1: 3},
            work={0: 9e6, 1: 3e3},
        )
        assert JoinShortestQueue().choose(0, (0, 1), FakeSpec(), 0, view) == 0
        assert LeastOutstandingWork().choose(0, (0, 1), FakeSpec(), 0, view) == 1


class TestClassAware:
    def test_explicit_class_map_partitions_cores(self):
        policy = ClassAwareDispatch(classes={"heavy": 1, "light": 0})
        policy.reset(seed=0)
        view = FakeView()
        # Two classes over four cores: class 0 -> even cores, 1 -> odd.
        assert policy.choose(0, CORES, FakeSpec("light"), 0, view) in (0, 2)
        assert policy.choose(0, CORES, FakeSpec("heavy"), 0, view) in (1, 3)

    def test_unknown_kind_falls_back_to_jsq(self):
        policy = ClassAwareDispatch(classes={"heavy": 1})
        policy.reset(seed=0)
        view = FakeView(depths={0: 4, 1: 4, 2: 4, 3: 0})
        assert policy.choose(0, CORES, FakeSpec("mystery"), 0, view) == 3

    def test_learns_heavy_light_split_from_completions(self):
        policy = ClassAwareDispatch()
        policy.reset(seed=0)
        view = FakeView()
        # Before any feedback: plain JSQ over all cores.
        assert policy.choose(0, CORES, FakeSpec("big"), 0, view) == 0
        for _ in range(5):
            policy.observe_completion("big", 5000.0)
            policy.observe_completion("small", 50.0)
        heavy = policy.choose(0, CORES, FakeSpec("big"), 0, view)
        light = policy.choose(0, CORES, FakeSpec("small"), 0, view)
        assert heavy in (1, 3)
        assert light in (0, 2)

    def test_reset_forgets_learned_demand(self):
        policy = ClassAwareDispatch()
        policy.reset(seed=0)
        policy.observe_completion("big", 5000.0)
        policy.observe_completion("small", 50.0)
        policy.reset(seed=0)
        view = FakeView(depths={0: 1, 1: 0})
        # Back to JSQ (core 1 is shorter), not class partitioning.
        assert policy.choose(0, (0, 1), FakeSpec("big"), 0, view) == 1

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="ewma_alpha"):
            ClassAwareDispatch(ewma_alpha=0.0)


class TestParseDispatch:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("rr", RoundRobinDispatch),
            ("random", RandomDispatch),
            ("jsq", JoinShortestQueue),
            ("low", LeastOutstandingWork),
            ("classaware", ClassAwareDispatch),
        ],
    )
    def test_known_policies(self, name, cls):
        assert isinstance(parse_dispatch(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            parse_dispatch("fifo")
