"""Unit tests of the benchmark itself: statistics, tracing and seeded inputs.

Run from the repository root with ``python3 -m pytest qfsbench/tests``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from qfsbench import host, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_interpolates():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([0.0, 10.0], 25) == 2.5
    assert run.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, q, supported", [
    (1000, 99.0, True), (999, 99.0, False), (100, 90.0, True), (99, 90.0, False),
    (20, 50.0, True), (19, 50.0, False), (1, 99.0, False),
])
def test_tail_percentile_needs_ten_samples_beyond(n, q, supported):
    samples = [float(k + 1) for k in range(n)]
    value = run.tail_percentile(samples, q)
    assert value == (run.percentile(samples, q) if supported else 0.0)


def test_digits_capped_at_zero_residual():
    assert run.digits(0.0) == run.DIGITS_CAP
    assert run.digits(1e-30) == run.DIGITS_CAP
    assert run.digits(1e-5) == pytest.approx(5.0)
    assert run.digits(10.0) == pytest.approx(-1.0)
    assert run.digits(float("nan")) == -run.DIGITS_CAP
    assert workloads.worst([1e-3, float("nan"), 2.0]) == float("inf")


class FakeClock:
    """Advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    tracer = tracing.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    tracer.recording = True
    top()
    spans, _kept = tracer.take()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    # readings: top 1, mid 2, leaf 3-4, leaf 5-6, mid 7, leaf 8-9, top 10
    assert [(s.start, s.end) for s in by_name["top"]] == [(1.0, 10.0)]
    assert [(s.start, s.end) for s in by_name["mid"]] == [(2.0, 7.0)]
    top_id, mid_id = by_name["top"][0].id, by_name["mid"][0].id
    assert [s.parent for s in by_name["leaf"]] == [mid_id, mid_id, top_id]
    own = tracing.self_times(spans)
    assert own[top_id] == 9.0 - 5.0 - 1.0
    assert own[mid_id] == 5.0 - 2.0
    assert all(own[s.id] == 1.0 for s in by_name["leaf"])
    assert tracing.count_under(spans, "leaf", "mid") == 2
    assert tracing.count_under(spans, "leaf", "top") == 3


def test_untraced_calls_record_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    assert tracer.take()[0] == []


def _bindings():
    import qfsurface.cli  # noqa: F401  (loads every layer module)
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "qfsurface" or name.startswith("qfsurface.")
            for key, value in vars(module).items() if callable(value)}


def test_wrappers_cover_every_binding_and_are_restored():
    import qfsurface.cli as cli
    import qfsurface.cocycles as cocycles
    import qfsurface.presentation as presentation
    import qfsurface.surface as surface

    before = _bindings()
    original = surface.holonomy
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = surface.holonomy
        assert wrapped is not original
        assert cocycles.holonomy is wrapped and cli.holonomy is wrapped
        assert presentation._build_plan is not before[("qfsurface.presentation", "_build_plan")]
        tracer.recording = True
        code, _out, _err = run.call(
            cli, ["lengths", str(ROOT / "src/qfsurface/data/genus2_fuchsian.json")])
        tracer.recording = False
    assert code == 0
    spans, _kept = tracer.take()
    names = {span.name for span in spans}
    assert {"cli", "config.parse_config", "presentation.build_plan",
            "surface.holonomy", "surface.complex_length_of_curve"} <= names
    assert tracing.count_under(spans, "presentation.build_plan", "cli") == 1
    assert _bindings() == before


def test_missing_layer_function_reports_zero_calls():
    layers = (("gone", "qfsurface.surface", ("no_such_function",)),
              ("gone_module", "qfsurface.no_such_module", ("f",)))
    tracer = tracing.Tracer()
    before = _bindings()
    with tracer.installed(layers=layers):
        pass
    assert tracer.take()[0] == []
    assert _bindings() == before


def _round_texts(cls, seed, workdir):
    workdir.mkdir()
    workload = cls(ROOT, workdir, seed)
    texts = []
    for op in workload.round():
        texts.append(Path(op.argv[1]).read_text())
    return texts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_deterministic_and_valid(name, tmp_path):
    from qfsurface.config import parse_config

    cls = workloads.WORKLOADS[name]
    first = _round_texts(cls, 7, tmp_path / "a")
    assert first == _round_texts(cls, 7, tmp_path / "b")
    assert first != _round_texts(cls, 8, tmp_path / "c")
    for text in first:
        config = parse_config(text)
        assert config.genus in (2, 3, 4)


def test_every_round_runs_the_same_slots(tmp_path):
    workload = workloads.Darboux(ROOT, tmp_path, 3)
    first = [op.argv for op in workload.round()]
    assert [op.argv for op in workload.round()] == first
    assert len(first) == 4 + sum(workloads.DARBOUX_SEEDED.values())


def test_reduced_word_count_matches_enumeration():
    from qfsurface.words import reduced_words_up_to

    for genus, depth in ((2, 3), (3, 2)):
        expected = sum(1 for _ in reduced_words_up_to(2 * genus, depth))
        assert workloads.reduced_word_count(genus, depth) == expected


def test_lengths_round_is_checked(tmp_path):
    import qfsurface.cli as cli

    measured = run.run_rounds(cli, workloads.Lengths(ROOT, tmp_path, 0), rounds=1)
    records = measured.records
    assert measured.rss_mb > 0 and len(measured.host.factors) >= 2
    assert len(records) == 6 * workloads.LENGTHS_PER_CELL >= 1000
    assert all(r.residual is not None or r.error for r in records)
    result = run.summary(records)
    assert result["correct"] and result["attempted"] == len(records)


def _pass(op_seconds, rounds, factor_at):
    """A pass whose ops run back to back, one per slot in each round, the
    host factor at each sample time given by factor_at.  Slot 0 fails in the
    first round only."""
    measured = run.Pass()
    now = 0.0
    for k in range(rounds):
        for slot, seconds in enumerate(op_seconds):
            record = run.Record(workloads.Op(["lengths", "x"], 2, {}), slot)
            record.start, record.seconds = now, seconds
            record.judge(workloads.Verdict(k > 0 or slot > 0, 1e-12, outputs=3))
            measured.records.append(record)
            now += seconds
    for t in range(int(now) + 2):
        measured.host.times.append(float(t))
        measured.host.factors.append(factor_at(float(t)))
    measured.rss_mb = 1.0
    return measured


def test_host_clock_averages_samples_inside_an_interval():
    clock = host.HostClock()
    clock.times, clock.factors = [0.0, 1.0, 3.0], [1.0, 2.0, 4.0]
    assert clock.over(0.9, 3.1) == pytest.approx(3.0)
    # no sample inside: the two nearest, interpolated at the midpoint
    assert clock.over(1.5, 2.5) == pytest.approx(3.0)
    assert clock.over(0.25, 0.75) == pytest.approx(1.5)
    assert clock.over(-2.0, -1.0) == 1.0 and clock.over(5.0, 6.0) == 4.0


def test_host_clock_samples_while_busy_and_leaves_sampling_out():
    clock = host.HostClock()
    with clock.ticking():
        spent, wall, start = clock.spent, time.perf_counter(), clock.clock()
        while time.perf_counter() - wall < 0.5:
            pass
        busy = clock.clock() - start
        wall = time.perf_counter() - wall
        spent = clock.spent - spent
    assert len(clock.factors) >= 10     # a tick every 0.05 s, plus both ends
    assert spent > 0.0
    assert busy == pytest.approx(wall - spent, abs=2e-3)


def test_rates_take_each_slots_median_on_an_idle_host():
    idle = run.end_to_end(_pass([0.25, 0.75], 5, lambda t: 1.0), setup_s=0.5)
    assert idle["ops_per_s"] == pytest.approx(2 / 1.0)
    assert idle["outputs_per_s"] == pytest.approx(6 / 1.0)
    assert idle["setup_s"] == 0.5
    # on a host at half speed the ops take twice as long, and the factor
    # divides that out
    slow = _pass([0.5, 1.5], 5, lambda t: 2.0)
    assert run.end_to_end(slow, setup_s=0.5)["ops_per_s"] == pytest.approx(2.0)
    # a repeat slowed by a burst the samples missed does not move the median
    burst = _pass([0.25, 0.75], 5, lambda t: 1.0)
    for r in burst.records[:2]:
        r.seconds *= 3.0
    assert run.end_to_end(burst, setup_s=0.5)["ops_per_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("rounds", [2, 5])
def test_failures_count_slots_whatever_the_number_of_rounds(rounds):
    result = run.summary(_pass([0.25, 0.75], rounds, lambda t: 1.0).records)
    # slot 0 failed on its first repeat only, and that fails the slot
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_reference_kernel_allocates_nothing_the_collector_tracks():
    import gc

    before = gc.get_count()[0]
    host.reference_kernel()
    assert gc.get_count()[0] - before <= 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [(n, u, b) for n, u, b, *_ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
