"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest rdfbench/tests``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from layers import LayerTotals, attribute  # noqa: E402
from oracle import _compare  # noqa: E402
import data as d  # noqa: E402


def test_probe_imports_nothing_from_repro():
    with open(os.path.join(HERE, "probe.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not {name for name in imported
                if name == "repro" or name.startswith("repro.")}
    check = ("import sys; import probe; probe.Probe().run(); "
             "assert not [m for m in sys.modules "
             "if m == 'repro' or m.startswith('repro.')]")
    subprocess.run([sys.executable, "-c", check], cwd=HERE, check=True,
                   env={**os.environ, "PYTHONPATH": ""})


def test_self_times_sum_to_the_operation_wall_time():
    # [id, layer, parent, start, end, value, tag]
    root = [1, "op", None, 0.0, 10.0, 0, None]
    client = [2, "client", 1, 1.0, 9.0, 0, "r1"]
    # The server finishes after the client has its answer; its span
    # is found through the request id and clipped to the client's.
    handler = [10, "server.handler", None, 2.0, 12.0, 0, "r1"]
    sql_a = [11, "sql", 10, 3.0, 5.0, 7, None]
    sql_b = [12, "sql", 10, 4.0, 6.0, 3, None]  # overlaps sql_a
    totals = LayerTotals()
    attribute([(root, 2.0)], [root, client, handler, sql_a, sql_b], totals)
    assert totals.self_s["op"] == pytest.approx(2 * 2.0)
    assert totals.self_s["client"] == pytest.approx(1 * 2.0)
    assert totals.self_s["server.handler"] == pytest.approx(4 * 2.0)
    assert totals.self_s["sql"] == pytest.approx(3 * 2.0)
    assert sum(totals.self_s.values()) == pytest.approx(10 * 2.0)
    assert totals.calls["sql"] == 2 and totals.values["sql"] == 10


def test_oracle_accepts_any_tied_row_at_the_limit():
    query = d.Query("(?s <p> ?m)", order_by="m", limit=2)
    reference = [{"s": "a", "m": "1"}, {"s": "b", "m": "2"},
                 {"s": "c", "m": "2"}]
    assert _compare(query, [{"s": "a", "m": "1"}, {"s": "c", "m": "2"}],
                    reference) is None
    assert _compare(query, [{"s": "a", "m": "1"}, {"s": "x", "m": "2"}],
                    reference) is not None
    assert _compare(query, [{"s": "b", "m": "2"}, {"s": "a", "m": "1"}],
                    reference) is not None


def test_streams_do_not_depend_on_hash_randomisation():
    script = ("import data, workloads; "
              "print(workloads.hash_of(lambda: workloads.plain_stream("
              "7, 'measure', {'subject': 9, 'anchored': 3, 'star': 5, "
              "'like': 4})))")
    digests = {
        subprocess.run([sys.executable, "-c", script], cwd=HERE,
                       check=True, capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": SRC,
                            "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")}
    assert len(digests) == 1
