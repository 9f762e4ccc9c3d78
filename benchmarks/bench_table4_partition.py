"""Table 4 — sub-graph sizes produced by GraphPartition.

Benchmarks the decomposition itself (Algorithm 1 + α/β counting) per
graph and emits the paper's sub-graph size table.
"""

import pytest

from repro.bench.experiments import table4
from repro.bench.runner import ExperimentResult
from repro.bench.workloads import bench_graph_names, get_graph
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.metrics.stats import bcc_size_histogram

from conftest import one_shot


def _decompose(graph):
    partition = graph_partition(graph)
    compute_alpha_beta(graph, partition)
    return partition


@pytest.mark.parametrize("name", bench_graph_names())
def test_partition_time(benchmark, name):
    graph = get_graph(name)
    partition = one_shot(benchmark, _decompose, graph)
    partition.validate()
    benchmark.extra_info["num_subgraphs"] = partition.num_subgraphs


def test_report_table4(benchmark, report):
    result = one_shot(benchmark, table4)
    # the top sub-graph dominates on every suite graph (paper: "The
    # top sub-graph is larger than other sub-graphs")
    for row in result.rows:
        top_v, second_v = row[2], row[6]
        assert top_v >= second_v
    report(result)


def test_report_bcc_histogram(report):
    """Per-graph BCC size histogram — the dominant-BCC view: one BCC
    alone in the top power-of-two bucket is the top sub-graph whose
    sweep dominates the run (Table 4's top-sub-graph share)."""
    rows = []
    for name in bench_graph_names():
        graph = get_graph(name)
        buckets = bcc_size_histogram(graph)
        assert buckets, name
        top_lo, top_hi, top_count = buckets[-1]
        rows.append([
            name,
            sum(c for _, _, c in buckets),
            f"{top_lo}-{top_hi}",
            top_count,
            " ".join(f"{lo}:{c}" for lo, _, c in buckets),
        ])
    report(ExperimentResult(
        exp_id="Table 4b",
        title="BCC size histogram (power-of-two buckets)",
        headers=["Graph", "#BCC", "top bucket", "#top", "lo:count"],
        rows=rows,
        notes="also printed per graph by `repro-bc info`; a lone BCC "
        "in the top bucket is the top sub-graph that dominates the run",
    ))
