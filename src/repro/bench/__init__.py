"""Benchmark harness regenerating the paper's evaluation section.

Every table and figure of §5 has an experiment here (see DESIGN.md §4
for the index):

* Tables 1–4: :func:`repro.bench.experiments.table1` … ``table4``;
* Figures 6–10: ``fig6`` … ``fig10``;
* Ablations (ours): ``ablation_threshold``, ``ablation_features``.

Each experiment returns an :class:`~repro.bench.runner.ExperimentResult`
with headers/rows mirroring the paper's layout, renderable with
:func:`repro.bench.report.render_table`. The ``benchmarks/`` directory
wires them into pytest-benchmark; the CLI (``repro-bc bench``) runs
them standalone.

Workload size scales with the ``REPRO_SCALE`` environment variable
(default 1.0) and can be restricted with ``REPRO_GRAPHS`` (comma-
separated Table-1 names).
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "EXPERIMENTS": ".registry",
    "get_experiment": ".registry",
    "experiment_ids": ".registry",
    "ExperimentResult": ".runner",
    "MeasuredRun": ".runner",
    "time_algorithm": ".runner",
    "render_table": ".report",
    "render_bars": ".report",
    "render_lines": ".report",
    "save_results": ".persistence",
    "load_results": ".persistence",
    "diff_results": ".persistence",
    "bench_scale": ".workloads",
    "bench_graph_names": ".workloads",
    "get_graph": ".workloads",
    "get_suite": ".workloads",
    "scaling_graph": ".workloads",
})
