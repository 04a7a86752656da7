"""CLI and benchmark harness tests."""

import csv
import io
import json
import time
from pathlib import Path

import pytest

import mcflow.baseline
import mcflow.engine
import mcflow.pricing
from mcflow.baseline import build_source_lp, solve_direct
from mcflow.bench import (CSV_HEADER, RunRecord, load_instance,
                          read_records_csv, record_from_report, run_suite,
                          write_records_csv)
from mcflow.cli import (EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OPTIMAL, EXIT_TIMEOUT,
                        main)
from mcflow.engine import SolverConfig, solve
from mcflow.errors import ParseError
from mcflow.instance import generate_random, write_native

TRIANGLE_MCF = """\
p mcf 3 3 2
a 1 2 1.0 10.0
a 2 3 1.0 10.0
a 1 3 3.0 10.0
d 1 3 2.0
d 1 2 1.0
"""

INFEASIBLE_MCF = """\
p mcf 2 1 1
a 1 2 1.0 1.0
d 1 2 5.0
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.mcf"
    path.write_text(TRIANGLE_MCF)
    return path


class TestSolveCommand:
    def test_tree_solve(self, triangle_file, capsys):
        code = main(["solve", "--formulation", "tree", "--tol", "1e-4",
                     str(triangle_file)])
        out = capsys.readouterr().out
        assert code == EXIT_OPTIMAL
        assert "objective    5" in out
        assert "status       optimal" in out

    def test_edge_lp_matches_tree(self, triangle_file, tmp_path):
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        assert main(["solve", "--formulation", "tree", "--json", str(json_a),
                     "--quiet", str(triangle_file)]) == EXIT_OPTIMAL
        assert main(["solve", "--formulation", "edge-lp", "--json", str(json_b),
                     "--quiet", str(triangle_file)]) == EXIT_OPTIMAL
        a = json.loads(json_a.read_text())
        b = json.loads(json_b.read_text())
        assert a["objective"] == pytest.approx(b["objective"], rel=1e-7)

    def test_timeout_exit_code(self, tmp_path):
        inst = generate_random(20, 60, 30, 8, seed=1, tightness="tight")
        path = tmp_path / "slow.mcf"
        with open(path, "w") as f:
            write_native(inst, f)
        code = main(["solve", "--formulation", "tree", "--timeout", "0",
                     "--quiet", str(path)])
        assert code == EXIT_TIMEOUT

    def test_direct_lp_timeout_exit_code(self, tmp_path):
        # HiGHS needs seconds for this LP without a limit.
        inst = generate_random(300, 1200, 2000, 10, seed=271828, tightness="tight")
        path = tmp_path / "large.mcf"
        with open(path, "w") as f:
            write_native(inst, f)
        json_file = tmp_path / "run.json"
        code = main(["solve", "--formulation", "source-lp", "--timeout", "0.05",
                     "--quiet", "--json", str(json_file), str(path)])
        payload = json.loads(json_file.read_text())
        assert code == EXIT_TIMEOUT
        assert payload["status"] == "timeout"
        assert payload["wall_time_s"] < 1.0

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.mcf"
        path.write_text(INFEASIBLE_MCF)
        assert main(["solve", "--quiet", str(path)]) == EXIT_INFEASIBLE

    def test_usage_error_exit_code(self, triangle_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--formulation", "nonsense", str(triangle_file)])
        assert exc.value.code == 2

    def test_removed_strategy_is_a_usage_error(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--strategy", "master-easy", str(triangle_file)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --strategy" in err
        assert "Traceback" not in out + err

    def test_removed_heuristic_flag_is_a_usage_error(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(triangle_file), "--formulation", "path",
                  "--pricing", "astar", "--heuristic", "per-source"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --heuristic per-source" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("flag,value", [("--timeout", "nan"), ("--tol", "nan"),
                                            ("--tol", "0")])
    def test_invalid_number_is_an_error(self, triangle_file, capsys, flag, value):
        assert main(["solve", flag, value, str(triangle_file)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert "Traceback" not in out + err

    def test_json_and_csv_outputs(self, triangle_file, tmp_path):
        json_file = tmp_path / "run.json"
        csv_file = tmp_path / "runs.csv"
        main(["solve", "--quiet", "--json", str(json_file),
              "--csv", str(csv_file), str(triangle_file)])
        main(["solve", "--quiet", "--csv", str(csv_file), "--formulation",
              "path", str(triangle_file)])
        payload = json.loads(json_file.read_text())
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(5.0)
        records = read_records_csv(csv_file)
        assert len(records) == 2
        assert {r.formulation for r in records} == {"tree", "path"}
        assert "slack_policy" not in payload

    def test_decompose_flows_output(self, triangle_file, tmp_path):
        flows_file = tmp_path / "flows.txt"
        main(["solve", "--quiet", "--decompose-flows", str(flows_file),
              str(triangle_file)])
        lines = [l for l in flows_file.read_text().splitlines()
                 if not l.startswith("#")]
        # Each line: commodity amount node node ... ; demand sums per commodity.
        totals = {}
        for line in lines:
            parts = line.split()
            totals[int(parts[0])] = totals.get(int(parts[0]), 0.0) + float(parts[1])
        assert totals[0] == pytest.approx(2.0)
        assert totals[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("quiet", [False, True])
    def test_no_flow_file_on_infeasible_run(self, tmp_path, capsys, quiet):
        path = tmp_path / "infeasible.mcf"
        path.write_text(INFEASIBLE_MCF)
        flows_file = tmp_path / "flows.txt"
        args = ["solve", "--decompose-flows", str(flows_file), str(path)]
        assert main(args + ["--quiet"] * quiet) == EXIT_INFEASIBLE
        assert not flows_file.exists()
        notes = [l for l in capsys.readouterr().out.splitlines()
                 if "no flow file written" in l]
        if quiet:
            assert notes == []
        else:
            assert notes == [f"note         no flow file written to {flows_file}: "
                             "status infeasible"]

    @pytest.mark.parametrize("formulation", ["source-lp", "edge-lp"])
    def test_direct_lp_solved_once_with_flows(self, triangle_file, tmp_path,
                                              monkeypatch, formulation):
        calls = []
        real = mcflow.baseline.solve_direct

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcflow.baseline, "solve_direct", counting)
        monkeypatch.setattr(mcflow.engine, "solve_direct", counting)
        flows_file = tmp_path / "flows.txt"
        assert main(["solve", "--quiet", "--formulation", formulation,
                     "--decompose-flows", str(flows_file),
                     str(triangle_file)]) == EXIT_OPTIMAL
        assert len(calls) == 1
        amounts = [float(l.split()[1]) for l in flows_file.read_text().splitlines()
                   if not l.startswith("#")]
        assert sum(amounts) == pytest.approx(3.0)


FAULT_CASES = {
    # Node 4 has no entering edge, so commodity 1 -> 4 cannot be routed.
    "unreachable-sink": ("""\
p mcf 4 3 2
a 1 2 1.0 10.0
a 2 3 1.0 10.0
a 4 1 1.0 10.0
d 1 3 1.0
d 1 4 1.0
""", "infeasible", None),
    # A cheap low-capacity copy of 1 -> 2 next to a dearer one: one unit
    # takes the cheap copy and two units the dear one.
    "parallel-edge": ("""\
p mcf 3 4 2
a 1 2 2.0 10.0
a 1 2 1.0 1.0
a 2 3 1.0 10.0
a 1 3 5.0 10.0
d 1 3 2.0
d 1 2 1.0
""", "optimal", 7.0),
    "self-loop": ("""\
p mcf 3 4 2
a 1 2 1.0 10.0
a 2 2 0.0 10.0
a 2 3 1.0 10.0
a 1 3 3.0 10.0
d 1 3 2.0
d 1 2 1.0
""", "optimal", 5.0),
    # 1 -> 2 is free; 2 -> 3 carries one of the two units bound for 3.
    "zero-cost-edge": ("""\
p mcf 3 3 2
a 1 2 0.0 10.0
a 2 3 1.0 1.0
a 1 3 3.0 10.0
d 1 3 2.0
d 1 2 1.0
""", "optimal", 4.0),
    # 1 -> 2 can carry nothing, so both units take the dear direct edge.
    "zero-capacity-edge": ("""\
p mcf 3 3 1
a 1 2 1.0 0.0
a 2 3 1.0 10.0
a 1 3 4.0 10.0
d 1 3 2.0
""", "optimal", 8.0),
    # Every route to 3 carries at most one of the five units.
    "capacity-infeasible": ("""\
p mcf 3 3 1
a 1 2 1.0 1.0
a 2 3 1.0 1.0
a 1 3 4.0 1.0
d 1 3 5.0
""", "infeasible", None),
    # Two commodities from node 1 need 4 units, but the edges leaving it
    # carry at most 2; both masters keep their slack on capacity rows.
    "shared-source-capacity-infeasible": ("""\
p mcf 3 3 2
a 1 2 1.0 1.0
a 2 3 1.0 1.0
a 1 3 4.0 1.0
d 1 3 2.0
d 1 2 2.0
""", "infeasible", None),
}

SOLVE_KINDS = [("tree", "full"), ("path", "full"), ("path", "bounded"),
               ("path", "astar")]


class TestFaultCases:
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    @pytest.mark.parametrize("formulation,pricing", SOLVE_KINDS)
    def test_documented_status_and_exit_code(self, tmp_path, case, formulation,
                                             pricing):
        text, status, objective = FAULT_CASES[case]
        path = tmp_path / f"{case}.mcf"
        path.write_text(text)
        json_file = tmp_path / "run.json"
        code = main(["solve", "--quiet", "--formulation", formulation,
                     "--pricing", pricing, "--tol", "1e-9",
                     "--json", str(json_file), str(path)])
        payload = json.loads(json_file.read_text())
        assert payload["status"] == status
        assert code == {"optimal": EXIT_OPTIMAL,
                        "infeasible": EXIT_INFEASIBLE}[status]
        if objective is not None:
            assert payload["objective"] == pytest.approx(objective, rel=1e-9)

    @pytest.mark.parametrize("formulation,kernel", [("tree", "price_tree"),
                                                    ("path", "price_paths")])
    def test_timeout_during_pricing(self, tmp_path, monkeypatch, capsys,
                                    formulation, kernel):
        # The first kernel round sleeps through the whole budget; the LP
        # time limit cannot stop it, the budget check after it must.
        budget = 0.5
        calls = []
        real = getattr(mcflow.engine, kernel)

        def slow(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                time.sleep(budget)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcflow.engine, kernel, slow)
        # Tight capacities: capacity duals become nonzero, so pricing
        # runs the kernel instead of reusing the seed columns. The loop
        # prices every owner before that, which gives a lower bound.
        inst = generate_random(12, 36, 12, 4, seed=6, tightness="tight")
        path = tmp_path / "tight.mcf"
        with open(path, "w") as f:
            write_native(inst, f)
        json_file = tmp_path / "run.json"
        code = main(["solve", "--formulation", formulation, "--timeout", str(budget),
                     "--json", str(json_file), str(path)])
        out, err = capsys.readouterr()
        payload = json.loads(json_file.read_text())
        assert len(calls) == 1
        assert code == EXIT_TIMEOUT
        assert payload["status"] == "timeout"
        assert "Traceback" not in out + err
        assert "note         the time budget of 0.5 s ran out" in out
        oracle = solve_direct(build_source_lp(load_instance(str(path)))).objective
        assert payload["lower_bound"] is not None
        assert payload["lower_bound"] <= oracle + 1e-9 * abs(oracle)

    @pytest.mark.parametrize("formulation", ["tree", "path"])
    def test_pricing_stops_between_source_blocks(self, tmp_path, monkeypatch, capsys,
                                                 formulation):
        # One source per kernel call, and every call after the seed round
        # sleeps: a kernel round over the four sources takes 4 * step, but
        # no block starts after the budget, so the run ends at most one
        # block (plus the rest of that iteration) past it.
        budget, step = 0.6, 0.25
        inst = generate_random(12, 36, 12, 4, seed=6, tightness="tight")
        monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES",
                            inst.network.node_count)
        calls = []
        real = mcflow.pricing.dijkstra

        def slow(net, w, sources):
            calls.append(len(sources))
            if len(calls) > len(inst.groups):
                time.sleep(step)
            return real(net, w, sources)

        monkeypatch.setattr(mcflow.pricing, "dijkstra", slow)
        path = tmp_path / "tight.mcf"
        with open(path, "w") as f:
            write_native(inst, f)
        json_file = tmp_path / "run.json"
        t0 = time.perf_counter()
        code = main(["solve", "--formulation", formulation, "--timeout", str(budget),
                     "--json", str(json_file), str(path)])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        payload = json.loads(json_file.read_text())
        assert set(calls) == {1}
        slowed = len(calls) - len(inst.groups)
        assert 0 < slowed < len(inst.groups)      # the kernel round was cut short
        assert elapsed < budget + step + 0.3
        assert code == EXIT_TIMEOUT
        assert payload["status"] == "timeout"
        assert "Traceback" not in out + err
        assert "note         the time budget of 0.6 s ran out" in out
        oracle = solve_direct(build_source_lp(load_instance(str(path)))).objective
        assert payload["lower_bound"] is not None
        assert payload["lower_bound"] <= oracle + 1e-9 * abs(oracle)


class TestRunRecordCsv:
    def test_round_trip(self):
        rec = RunRecord("x", "tree", "optimal", 5.0, 5.0, 0.0, 0.12,
                        12345678, 3, 41, 17, 2, 10, 4)
        assert RunRecord.from_csv_row(rec.to_csv_row()) == rec
        assert len(rec.to_csv_row()) == len(CSV_HEADER)

    def test_none_fields_round_trip(self):
        rec = RunRecord("x", "tree", "timeout", None, 4.5, None, 1.0,
                        1, 1, 0, 1, 0, 5, 2)
        assert RunRecord.from_csv_row(rec.to_csv_row()) == rec

    def test_header_stability(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([], path)
        with open(path) as f:
            assert next(csv.reader(f)) == CSV_HEADER

    def test_a_slack_policy_column_is_refused(self, tmp_path):
        # Suite CSVs that carried the retired slack_policy column as their
        # last one are refused by their header.
        path = tmp_path / "r.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow([*CSV_HEADER, "slack_policy"])
        with pytest.raises(ParseError, match="unexpected CSV header"):
            read_records_csv(path)

    def test_a_strategy_column_is_refused(self, tmp_path):
        # Suite CSVs that carried the retired strategy column after
        # formulation are refused by their header.
        path = tmp_path / "r.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow([*CSV_HEADER[:2], "strategy", *CSV_HEADER[2:]])
        with pytest.raises(ParseError, match="unexpected CSV header"):
            read_records_csv(path)


class TestRecordFromReport:
    def test_sums_the_master_pivots(self):
        inst = generate_random(20, 100, 80, 5, seed=0, tightness="tight")
        config = SolverConfig(formulation="path")
        report = solve(inst, config)
        record = record_from_report(inst, config, report)
        assert record.simplex_iterations == sum(
            it.simplex_iterations for it in report.iterations) > 0
        assert json.loads(record.to_json())["simplex_iterations"] \
            == record.simplex_iterations


class TestBench:
    def test_suite_outputs(self, tmp_path):
        for seed in (0, 1):
            inst = generate_random(8, 20, 6, 2, seed=seed, tightness="mixed",
                                   name=f"rand{seed}")
            with open(tmp_path / f"rand{seed}.mcf", "w") as f:
                write_native(inst, f)
        manifest = {
            "instances": [{"path": "rand0.mcf", "name": "rand0"},
                          {"path": "rand1.mcf", "name": "rand1"},
                          {"path": "missing.mcf", "name": "gone"}],
            "formulations": ["tree", "path"],
            "tol": 1e-6,
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        code = main(["bench", str(manifest_path), "--output-dir", str(out_dir)])
        assert code == EXIT_OPTIMAL
        records = read_records_csv(out_dir / "runs.csv")
        assert len(records) == 4       # missing instance skipped
        assert all(r.status == "optimal" for r in records)

        with open(out_dir / "profile.csv") as f:
            header = next(csv.reader(f))
        assert header == ["ratio", "path", "tree"]

        with open(out_dir / "cactus.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["formulation", "rank", "time_s", "solved"]
        assert len(rows) == 1 + 4

        with open(out_dir / "scatter.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2      # one point per instance

        with open(out_dir / "heatmap.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][1] == "commodities"
        assert len(rows) == 1 + 2

    def test_timed_out_runs_capped_in_cactus(self, tmp_path):
        inst = generate_random(20, 60, 30, 8, seed=5, tightness="tight",
                               name="slowpoke")
        with open(tmp_path / "slow.mcf", "w") as f:
            write_native(inst, f)
        manifest = {"instances": [{"path": "slow.mcf", "name": "slowpoke"}],
                    "formulations": ["tree"], "timeout": 0.0}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        main(["bench", str(tmp_path / "m.json"), "--output-dir", str(out_dir)])
        with open(out_dir / "cactus.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert rows[0][2] == repr(0.0)
        assert rows[0][3] == "0"
