"""SweepSpec expansion, include/exclude pruning, and scenario identity."""

import json

import pytest

from repro.sweep.spec import (
    Scenario,
    SweepSpec,
    parse_placement,
)


def small_spec(**overrides):
    base = dict(
        name="unit",
        workloads=("webserver", "tpcc"),
        sampling=("interrupt:100", "syscall:80,400"),
        seeds=(0, 1),
        faults=("none", "lock_stall:0.25"),
        placements=("single",),
        requests=5,
        concurrency=4,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestExpansion:
    def test_full_cross_product(self):
        assert len(small_spec().expand()) == 2 * 2 * 2 * 2

    def test_order_is_axis_major(self):
        ids = [s.scenario_id for s in small_spec().expand()]
        # workload is the outermost axis, placement the innermost.
        assert ids[0].startswith("webserver~interrupt:100~seed0~none")
        assert ids[-1].startswith("tpcc~syscall:80,400~seed1~lock_stall:0.25")
        assert ids == sorted(set(ids), key=ids.index)  # unique, stable

    def test_expansion_is_deterministic(self):
        a = [s.scenario_id for s in small_spec().expand()]
        b = [s.scenario_id for s in small_spec().expand()]
        assert a == b

    def test_exclude_prunes_matches(self):
        spec = small_spec(
            exclude=({"workload": "webserver", "faults": "lock_stall:0.25"},)
        )
        ids = [s.scenario_id for s in spec.expand()]
        assert len(ids) == 12
        assert not any("webserver" in i and "lock_stall" in i for i in ids)

    def test_include_keeps_only_matches(self):
        spec = small_spec(include=({"workload": "tpcc"},))
        assert all(s.workload == "tpcc" for s in spec.expand())
        assert len(spec.expand()) == 8

    def test_include_then_exclude(self):
        spec = small_spec(
            include=({"workload": "tpcc"},),
            exclude=({"seed": 1},),
        )
        scenarios = spec.expand()
        assert len(scenarios) == 4
        assert all(s.workload == "tpcc" and s.seed == 0 for s in scenarios)

    def test_everything_pruned_is_loud(self):
        with pytest.raises(ValueError, match="zero scenarios"):
            small_spec(include=({"workload": "tpcc"}, ),
                       exclude=({"workload": "tpcc"},))

    def test_settings_propagate_to_scenarios(self):
        spec = small_spec(requests=7, online=True, train=3)
        for scenario in spec.expand():
            assert (scenario.requests, scenario.online, scenario.train) == (7, True, 3)


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            small_spec(workloads=("webserver", "nope"))

    def test_bad_sampling_spec(self):
        with pytest.raises(ValueError, match="sampling"):
            small_spec(sampling=("interrupt:100", "wat:1"))

    def test_bad_fault_spec(self):
        with pytest.raises(ValueError):
            small_spec(faults=("none", "bogus_fault:0.5"))

    def test_duplicate_axis_values(self):
        with pytest.raises(ValueError, match="duplicates"):
            small_spec(seeds=(1, 1))

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="empty"):
            small_spec(workloads=())

    def test_rule_with_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown axes"):
            small_spec(include=({"flavor": "spicy"},))

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            SweepSpec.from_dict({"name": "x", "workloads": ["tpcc"],
                                 "sampling": ["ctx"], "seeds": [0],
                                 "shards": 4})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sampling": None}, "sweep spec needs a 'sampling'"),
            ({"workloads": 5},
             "sweep spec field 'workloads' must be a list, got 5"),
            ({"seeds": ["0"]},
             "sweep spec field 'seeds' takes int values, got '0'"),
            ({"requests": "8"},
             "sweep spec field 'requests' takes int values, got '8'"),
            ({"online": 1},
             "sweep spec field 'online' takes bool values, got 1"),
        ],
    )
    def test_from_dict_names_the_bad_field(self, change, message):
        payload = {"name": "x", "workloads": ["tpcc"],
                   "sampling": ["interrupt:100"], "seeds": [0]}
        payload.update(change)
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(ValueError) as excinfo:
            SweepSpec.from_dict(payload)
        assert str(excinfo.value) == message

    def test_plan_cli_names_the_spec_file(self, tmp_path, capsys):
        from repro.sweep.cli import main

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"name": "x", "workloads": ["tpcc"], "seeds": [0]}
        ))
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", str(path)])
        assert excinfo.value.code == 2
        assert f"{path}: sweep spec needs a 'sampling'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_cli_names_a_spec_path_it_cannot_read(self, command, tmp_path, capsys):
        from repro.sweep.cli import main

        path = tmp_path / "nope.json"
        argv = [command, str(path)]
        if command == "run":
            argv += ["--manifest", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"No such file or directory: '{path}'" in capsys.readouterr().err

    def test_round_trips_through_dict(self):
        spec = small_spec(include=({"workload": "tpcc"},))
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_key == spec.spec_key


class TestScenarioIdentity:
    def test_id_is_readable_and_unique(self):
        scenario = Scenario(workload="tpcc", sampling="interrupt:100", seed=3)
        assert scenario.scenario_id == "tpcc~interrupt:100~seed3~none~single"

    def test_content_key_covers_settings_not_just_axes(self):
        a = Scenario(workload="tpcc", sampling="ctx", seed=0, requests=5)
        b = Scenario(workload="tpcc", sampling="ctx", seed=0, requests=6)
        assert a.scenario_id == b.scenario_id  # same grid point...
        assert a.content_key != b.content_key  # ...different run settings

    def test_content_key_is_stable(self):
        a = Scenario(workload="tpcc", sampling="ctx", seed=0)
        b = Scenario.from_dict(a.to_dict())
        assert a.content_key == b.content_key

    def test_scenario_validates_eagerly(self):
        with pytest.raises(ValueError, match="requests"):
            Scenario(workload="tpcc", sampling="ctx", seed=0, requests=0)
        with pytest.raises(ValueError, match="cores"):
            Scenario(workload="tpcc", sampling="ctx", seed=0, cores=2)


class TestPlacement:
    def test_single(self):
        assert parse_placement("single") == (1, None)

    def test_cluster(self):
        machines, placement = parse_placement("cluster:2:mysql=1,tomcat=0")
        assert machines == 2
        assert placement == {"mysql": 1, "tomcat": 0}

    @pytest.mark.parametrize(
        "text",
        [
            "cluster",           # no machine count
            "cluster:1:a=0",     # not actually a cluster
            "cluster:2",         # no assignments
            "cluster:2:a=5",     # machine out of range
            "cluster:2:a=0,a=1", # tier assigned twice
            "ring:3:a=0",        # unknown shape
        ],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_placement(text)
