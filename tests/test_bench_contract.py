"""The desk benchmark's output stays machine-readable.

Runs ``perfbench/run.py`` briefly (``tight-master`` untraced and traced,
``few-commodities`` and ``bulk-loose`` untraced) and checks the contract its readers rely
on: every line of standard output except the ``self-check:`` line is a
JSON object, the last one reports a correct run with no failed solves
and a finite number for every metric, and no traced library function
has gone missing. A traced run must also show the
shortest-path kernel and the column pool at work, so a kernel or a pool
that stays importable but is no longer called cannot read 0 unnoticed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def checked_result(workload, trace):
    """Run ``workload`` for one second and check the output contract;
    returns the final result object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert "missing wrap targets" not in done.stderr
    lines = [l for l in done.stdout.splitlines() if not l.startswith("self-check: ")]
    assert lines
    parsed = [json.loads(line) for line in lines]
    assert all(isinstance(p, dict) for p in parsed)
    result = parsed[-1]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_output_is_well_formed(trace):
    result = checked_result("tight-master", trace)
    if trace == "1":
        for name in ("graph.dijkstra.calls", "graph.settled_nodes.tree",
                     "graph.self_s.tree", "master.add_column.calls",
                     "master.violated_capacities.s"):
            assert result["metrics"][name]["value"] > 0, name


def test_few_commodities_output_is_well_formed():
    checked_result("few-commodities", "0")


def test_bulk_loose_output_is_well_formed():
    # 5,000 path demand rows: the largest owner-indexed arrays of the three.
    checked_result("bulk-loose", "0")
