"""Tests of the benchmark's own code: tiny workloads through the real run.py
and workers, failure accounting, and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_ROWS,
    WORKLOADS,
    Workload,
    golden_betti,
    golden_degree,
    hook_dimension,
    hook_sums_match,
)

TINY = {
    "matching": Workload(
        name="tiny-matching",
        args=("equivariant", "--complex", "matching", "--p", "3", "--n", "7"),
        check=golden_degree(7, 1, top=True),
    ),
    "quillen": Workload(
        name="tiny-quillen",
        args=("equivariant", "--complex", "quillen", "--p", "3", "--n", "6"),
        check=hook_sums_match,
    ),
    "pcycle": Workload(
        name="tiny-pcycle",
        args=("equivariant", "--complex", "pcycle", "--p", "5", "--n", "7"),
        check=hook_sums_match,
    ),
    "betti-cached": Workload(
        name="tiny-betti-cached",
        args=("homology", "--complex", "matching", "--p", "3", "--n", "7"),
        check=golden_betti(7, 1),
        cached=True,
    ),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workloads_pass_untraced(kind, tmp_path):
    result = run.measure(TINY[kind], 0, False, 1, str(tmp_path))
    assert result["failed"] == 0, result["failures"]
    assert len(result["setups"]) >= (len(result["jobs"]) + 1) * run.SETUP_ROUND_REPEATS
    assert result["attempted"] == len(result["setups"]) + len(result["jobs"])
    metrics = run.summarize(result, False)
    assert set(run.END_TO_END) <= set(metrics)
    assert all(value > 0 for value, _, _ in metrics.values())
    assert all(job["probe_s"] > 0 for job in result["jobs"])


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workloads_traced_self_times_sum_to_wall(kind, tmp_path):
    result = run.measure(TINY[kind], 0, True, 2, str(tmp_path))
    assert result["failed"] == 0, result["failures"]
    assert {job["mode"] for job in result["jobs"]} == {"traced", "untraced"}
    metrics = run.summarize(result, True)
    assert set(metrics) == set(run.PER_LAYER)
    total = sum(metrics[name][0] for name in spans.SELF_METRICS)
    assert total == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert metrics["linalg.rank"][0] > 0
    assert metrics["complexes.faces"][0] > 0
    traced = next(j for j in result["jobs"] if j["mode"] == "traced")
    degrees = [e["degree"] for e in traced["eliminations"]]
    assert degrees == sorted(degrees) and degrees[0] == 0


def test_cached_workload_reads_from_the_cache(tmp_path):
    result = run.measure(TINY["betti-cached"], 0, True, 3, str(tmp_path))
    metrics = run.summarize(result, True)
    assert metrics["cli.cache_read_s"][0] > 0
    assert metrics["cli.cache_write_s"][0] == 0
    assert metrics["setup.cache_write_s"][0] > 0
    assert metrics["complexes.build_s"][0] == 0


def test_wrong_reference_is_caught_and_counted(tmp_path):
    wrong = Workload(
        name="wrong", args=TINY["matching"].args,
        check=golden_degree(8, 1), sha256="0" * 64,
    )
    result = run.measure(wrong, 0, False, 1, str(tmp_path))
    assert result["failed"] == len(result["jobs"]) >= 1
    text = "\n".join(result["failures"])
    assert "sha256" in text and "paper table" in text


def test_nonzero_exit_is_counted_as_failed(tmp_path):
    bad = Workload(
        name="bad",
        args=("equivariant", "--complex", "quillen", "--p", "4", "--n", "6"),
    )
    result = run.measure(bad, 0, False, 1, str(tmp_path))
    assert result["failed"] == len(result["jobs"]) >= 1
    assert "exited 2" in result["failures"][0]


def test_main_fails_loudly_on_mismatch(monkeypatch, capsys):
    wrong = Workload(name="wrong", args=TINY["quillen"].args, sha256="0" * 64)
    monkeypatch.setattr(run, "WORKLOADS", {"wrong": wrong})
    assert run.main(["--workload", "wrong", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_self_times_on_a_synthetic_tree():
    S = spans.Span
    tree = [
        S("cli.run", 0.0, 10.0, None),
        S("cli.betti", 1.0, 7.0, 0),
        S("homology.boundary_matrix", 2.0, 3.0, 1),
        S("homology.eliminate", 3.0, 6.0, 1, attrs={"full": False}),
        S("trace.bookkeeping", 6.0, 6.5, 1),
        S("SimplicialComplex.from_text", 8.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.0, 3.0, 0.5, 1.0])
    # overlapping and out-of-parent children are merged and clipped
    odd = [S("cli.run", 0.0, 4.0, None), S("cli.betti", -1.0, 2.0, 0),
           S("cli.betti", 1.0, 3.0, 0)]
    assert spans.self_times(odd)[0] == pytest.approx(1.0)


def test_tracer_records_nesting():
    tracer = spans.Tracer()
    outer = tracer.begin("cli.run")
    tracer.call("cli.betti", lambda: tracer.call("homology.boundary_matrix",
                                                 lambda: 1, (), {}), (), {})
    tracer.end(outer)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("cli.run", None), ("cli.betti", 0),
                     ("homology.boundary_matrix", 1)]


def test_wrap_fails_on_a_name_the_program_does_not_have():
    class Module:
        def present(self):
            return 1

    module = Module()
    tracer = spans.Tracer()
    with pytest.raises(AttributeError, match="absent"):
        tracer.wrap(module, "absent", "cli.betti")
    tracer.wrap(module, "present", "cli.betti")
    assert module.present() == 1
    assert [s.name for s in tracer.spans] == ["cli.betti"]


def test_traced_run_fails_when_a_layer_name_is_gone(tmp_path, monkeypatch):
    # a worker that imports an equihom without `order_complex` must fail
    src = tmp_path / "src"
    shutil.copytree(os.path.join(os.path.dirname(BENCH), "src", "equihom"),
                    src / "equihom")
    with open(src / "equihom" / "complexes.py", "a", encoding="utf-8") as fh:
        fh.write("\ndel order_complex\n")
    monkeypatch.setattr(run, "SRC", str(src))
    result = run.measure(TINY["quillen"], 0, True, 1, str(tmp_path / "work"))
    assert result["failed"] == result["attempted"]
    assert "order_complex" in "\n".join(result["failures"])


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile(list(range(1, 101)))
    assert p == 90 and value == 90
    p, value = run.tail_percentile(list(range(1, 21)))
    assert p == 50 and value == 10


def test_references_match_the_paper_table_in_the_program():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from equihom.formulas import GOLDEN_TABLE
    from equihom.partitions import hook_dimension as program_hook_dimension

    for key, rows in GOLDEN_ROWS.items():
        assert rows == GOLDEN_TABLE[key]
        for lam in rows:
            assert hook_dimension(lam) == program_hook_dimension(lam)
    assert sum(hook_dimension(lam) for lam in GOLDEN_ROWS[(12, 2)]) == 37179


def test_checks_parse_cli_output():
    assert hook_sums_match("H~_1: betti 77  S[6,1,1] + 2*S[5,3]\nH~_2: betti 0  0\n") == []
    problems = hook_sums_match("H~_1: betti 78  S[6,1,1] + 2*S[5,3]\n")
    assert len(problems) == 1 and problems[0].startswith("H~_1")
    assert golden_betti(12, 2)("b~_-1 = 0\nb~_2 = 37179\n") == []
    assert golden_betti(12, 2)("b~_2 = 37178\n") != []
    with pytest.raises(ValueError):
        golden_betti(12, 2)("garbage\n")


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_report_names_every_metric(tmp_path):
    result = run.measure(TINY["quillen"], 0, True, 4, str(tmp_path))
    out = io.StringIO()
    run.report(result, run.summarize(result, True), True, out=out)
    text = out.getvalue()
    assert all(name in text for name in run.PER_LAYER)
    assert "largest self time" in text
