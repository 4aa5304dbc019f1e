"""Self-tests of the benchmark harness.  They run no workload:
``python -m pytest perfbench`` takes about a second."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
if os.path.join(os.path.dirname(HERE), "src") not in sys.path:
    sys.path.append(os.path.join(os.path.dirname(HERE), "src"))

import answers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PassResult  # noqa: E402


def _span(span_id, parent, name, start, end):
    return [span_id, parent, name, start, end, None, 0]


# -- span self-time arithmetic -----------------------------------------
def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0),
                           [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert tracing.covered((5.0, 6.0), [(0.0, 1.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, "job", 0.0, 10.0),
        _span(2, 1, "compile", 1.0, 4.0),
        _span(3, 2, "netlist.bitblast", 2.0, 3.0),
        _span(4, 1, "engine", 5.0, 9.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    totals = tracing.layer_totals(spans)
    assert totals["job"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in totals.values()) == 10.0


def test_recorder_nests_spans_and_skips_same_layer_reentry():
    recorder = tracing.Recorder()
    recorder.enabled = True
    recorder.set_request("sub-1")
    outer = recorder.open("job", "fp-1")
    inner = recorder.open("compile")
    assert recorder.open("compile") is None  # not a layer boundary
    recorder.close(inner)
    recorder.close(outer)
    root = recorder.open("api.submit")
    recorder.close(root)
    by_name = {span[tracing.NAME]: span for span in recorder.spans}
    assert by_name["compile"][tracing.PARENT] == outer[tracing.ID]
    assert by_name["compile"][tracing.REQUEST] == "fp-1"
    assert by_name["api.submit"][tracing.REQUEST] == "sub-1"
    with recorder.paused():
        assert recorder.open("job") is None
    assert recorder.enabled


def test_install_records_layer_spans_and_uninstall_restores():
    import repro.orchestrate.executor as executor
    from repro.formal.sat import Solver

    original = executor.run_check_job
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert executor.run_check_job is not original
        recorder.enabled = True
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([2 * a, 2 * b])
        assert solver.solve([2 * a + 1]) is True
    finally:
        recorder.enabled = False
        uninstall()
    assert executor.run_check_job is original
    assert [span[tracing.NAME] for span in recorder.spans] == ["sat.solve"]
    assert "sat.propagations" in recorder.counters


# -- known-answer checks -----------------------------------------------
_GOOD = [
    ("A00_wrapcnt", "A00_wrapcnt_soundness.pNoError_HE", "fail", True),
    ("A00_wrapcnt", "A00_wrapcnt_integrity.pX", "pass", None),
    ("A03_fifo", "A03_fifo_soundness.pNoError_HE", "pass", None),
]


def test_campaign_checker_accepts_the_known_answer():
    assert answers.check_campaign(_GOOD, {"A00_wrapcnt"}) == []


def test_campaign_checker_rejects_a_flipped_verdict():
    flipped = _GOOD[:2] + [("A03_fifo", "A03_fifo_soundness.pNoError_HE",
                            "fail", True)]
    assert answers.check_campaign(flipped, {"A00_wrapcnt"})


def test_campaign_checker_rejects_a_dropped_fail():
    dropped = [("A00_wrapcnt", _GOOD[0][1], "pass", None)] + _GOOD[1:]
    problems = answers.check_campaign(dropped, {"A00_wrapcnt"})
    assert problems == ["A00_wrapcnt: seeded defect has no FAIL"]


def test_campaign_checker_rejects_timeouts_and_unreplayable_fails():
    timeout = _GOOD[:2] + [("A03_fifo", "A03_fifo.p", "timeout", None)]
    assert answers.check_campaign(timeout, {"A00_wrapcnt"})
    stale = [_GOOD[0][:3] + (False,)] + _GOOD[1:]
    assert answers.check_campaign(stale, {"A00_wrapcnt"})


def test_sweep_checker_rejects_survivors_and_wrong_categories():
    row = {"site": "s1", "detected": True, "expected_category": "P1",
           "failing_categories": ["P1"]}
    record = {"mutants": [row], "detection": {"survivors": []}}
    assert answers.check_sweep(record, [("j", "fail")]) == []
    wrong = dict(row, failing_categories=["P2"])
    assert answers.check_sweep({"mutants": [wrong],
                                "detection": {"survivors": []}}, [])
    survivor = dict(row, detected=False, failing_categories=[])
    assert answers.check_sweep({"mutants": [survivor],
                                "detection": {"survivors": ["s1"]}}, [])
    assert answers.check_sweep(record, [("j", "unknown")])


# -- metric names ------------------------------------------------------
def test_printed_metric_names_match_benchmark_json():
    spec = run.load_spec()
    fake = PassResult(wall_s=2.0, settled=10, latencies_s=[0.1, 0.2, 0.3],
                      bugs_found_s=[1.5], attempted=10, problems=[],
                      digest="d")
    rows = run.end_to_end([0.1, 0.2], [fake, fake], 50.0)
    assert list(rows) == [m["name"] for m in spec["end_to_end"]]
    assert rows["checks_per_s"]["median"] == 5.0
    assert rows["submit_p50_ms"]["n"] == 6
    per_layer = tracing.layer_metrics(tracing.Recorder(), {}, 1.0, 1.0)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]


class _FakeWorkload:
    """Stands in for a workload: no program runs."""

    setup_repeats = 2
    min_passes = 2
    passes_per_round = 1
    problems = []

    def __init__(self, seed, workdir):
        pass

    def setup(self):
        pass

    def describe(self):
        return {}

    def run_pass(self, index, recorder=None):
        return PassResult(wall_s=1.0, settled=5, latencies_s=[0.1, 0.2],
                          bugs_found_s=[0.5], attempted=5,
                          problems=list(self.problems), digest="d")


def _run_fake(monkeypatch, tmp_path, capsys, trace, problems=()):
    import types
    import workloads
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    fake = type("Fake", (_FakeWorkload,), {"problems": list(problems)})
    monkeypatch.setitem(workloads.WORKLOADS, "chip-ac-bugs", fake)
    status = run.run_workload(types.SimpleNamespace(
        workload="chip-ac-bugs", seed=1, seconds=0.0, trace=trace))
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_run_prints_the_benchmark_json_metrics(monkeypatch, tmp_path,
                                               capsys):
    spec = run.load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        status, result = _run_fake(monkeypatch, tmp_path, capsys, trace)
        assert status == 0
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert list(result["metrics"]) == [m["name"]
                                           for m in spec[section]]
        assert all(metric["unit"] == m["unit"] for metric, m in zip(
            result["metrics"].values(), spec[section]))


def test_a_wrong_verdict_fails_the_run(monkeypatch, tmp_path, capsys):
    status, result = _run_fake(monkeypatch, tmp_path, capsys, 0,
                               problems=["x: FAIL in defect-free x"])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 10


def test_benchmark_json_has_the_contract_shape():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in spec["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(m["better"] in ("higher", "lower")
               for m in spec["end_to_end"] + spec["per_layer"])
    json.dumps(spec)
