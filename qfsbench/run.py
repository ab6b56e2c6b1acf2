"""Benchmark of the ``qfs`` command line on seeded inputs.

Usage, from the repository root:

    python3 qfsbench/run.py --workload darboux|lengths|limitset \
        --seed N --seconds S --trace 0|1

One closed-loop client in this process calls ``qfsurface.cli.main`` with
config files it writes from the seed (under ``.qfsbench_work/``, removed on
exit), checks every operation's output, and prints each metric by name with
its unit.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every round runs the same slots, the operations drawn once from the seed,
so ``attempted`` (slots) and ``failed`` (slots whose op failed on any
repeat) depend on the seed alone.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` runs the same rounds twice,
untraced and then traced, and reports the per-layer metrics; the time
difference between the two passes is the tracing overhead.  Op times are
divided by the host factor sampled while each op runs (see
``qfsbench.host``).  Set-up (importing ``qfsurface.cli`` and one
warm-up operation) is timed in fresh interpreters before the run, divided by
the host factor sampled in each, and reported as the median.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from qfsbench import tracing, workloads  # noqa: E402
from qfsbench.host import HostClock  # noqa: E402

SETUP_REPEATS = 15
DIGITS_CAP = 16.0      # complex128 carries about 16 significant digits
MIN_BEYOND = 10        # a percentile is reported only with this many samples beyond it
# Peak RSS is read after this many rounds: a leak shows as one more round's
# worth, while the allocator's fragmentation, which creeps up over later
# rounds, has not yet made the reading depend on how many rounds fit in a run.
RSS_ROUNDS = 2

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("outputs_per_s", "1/s", "higher"),
    ("digits_p50", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit, better)
     for layer in tracing.LAYER_NAMES
     for kind, unit, better in (("calls", "calls/op", "lower"),
                                ("self_s", "s/op", "lower"),
                                ("share", "fraction", "lower"))]
    + [
        ("presentation.builds_per_op", "count", "lower"),
        ("cocycles.holonomy_per_gram", "count", "lower"),
        ("cocycles.holonomy_per_gram.g2", "count", "lower"),
        ("cocycles.holonomy_per_gram.g3", "count", "lower"),
        ("cocycles.holonomy_per_gram.g4", "count", "lower"),
        ("cocycles.pairings_per_gram", "count", "lower"),
        ("limitset.words", "count", "lower"),
        ("limitset.points", "count", "higher"),
        ("limitset.kept_frac", "fraction", "higher"),
        ("surface.relator_residual_max", "abs", "lower"),
        ("surface.length_error_max", "abs", "lower"),
        ("surface.max_entry_log10", "log10", "lower"),
        ("cocycles.darboux_residual_max", "abs", "lower"),
        ("cocycles.raw_asymmetry_max", "abs", "lower"),
        ("cocycles.cocycle_residual_max", "abs", "lower"),
        ("bench.digits_min", "digits", "higher"),
        ("bench.fail_frac", "fraction", "lower"),
        ("lengths.fail_frac.small", "fraction", "lower"),
        ("lengths.fail_frac.large", "fraction", "lower"),
        ("darboux.op_ms.g2", "ms", "lower"),
        ("darboux.op_ms.g3", "ms", "lower"),
        ("darboux.op_ms.g4", "ms", "lower"),
        ("bench.op_p50_ms", "ms", "lower"),
        ("bench.op_p99_ms", "ms", "lower"),
        ("bench.host_factor", "ratio", "lower"),
        ("bench.trace_overhead_frac", "fraction", "lower"),
    ]
)

# Runs in a fresh interpreter, with the host factor sampled in the same
# process (and so on the same core) just before and just after the set-up.
SETUP_SCRIPT = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from qfsbench.host import host_factor
before = host_factor()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import qfsurface.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qfsurface.cli.main(sys.argv[3:])
seconds = time.perf_counter() - start
print(code, seconds, (before + host_factor()) / 2.0)
"""


def percentile(samples, q):
    """Linearly interpolated q-th percentile (q in 0..100)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples, q):
    """The q-th percentile, or 0 when fewer than MIN_BEYOND samples lie
    beyond it (the percentile would be little more than the maximum)."""
    if round(len(samples) * (100.0 - q) / 100.0, 9) < MIN_BEYOND:
        return 0.0
    return percentile(samples, q)


def digits(residual):
    """Correct decimal digits implied by a residual, clamped to +-DIGITS_CAP
    (a zero residual reads DIGITS_CAP, a NaN or infinite one -DIGITS_CAP)."""
    if residual <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(residual):
        return -DIGITS_CAP
    return max(-DIGITS_CAP, min(DIGITS_CAP, -math.log10(residual)))


def import_cli(src):
    sys.path.insert(0, str(src))
    import qfsurface.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "qfsurface").resolve():
        raise ImportError(f"qfsurface was imported from {cli.__file__}, not {src}")
    return cli


def call(cli, argv):
    """Run one ``qfs`` command in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def time_setup(warmup):
    """Seconds to import ``qfsurface.cli`` and run the warm-up op in a fresh
    interpreter, divided by the host factor.

    The interpreter gets one BLAS thread.  OpenBLAS starts its thread pool
    when numpy is imported, which took about half of the import on a 2-vCPU
    VM and swung with the load on the other vCPU, which the host factor
    cannot see.  The program's matrices are too small for BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(ROOT), str(ROOT / "src"), *warmup],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0":
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return float(fields[1]) / float(fields[2])


class Record:
    """What the metrics need from one op.  The op's inputs and full verdict
    are not kept, so that thousands of records add little to the peak
    resident set."""

    __slots__ = ("slot", "kind", "genus", "stratum", "start", "seconds",
                 "passed", "residual", "outputs", "error", "malformed")

    def __init__(self, op, slot):
        self.slot = slot
        self.kind, self.genus, self.stratum = op.kind, op.genus, op.stratum
        self.start = self.seconds = 0.0
        self.passed = False
        self.residual = None    # the checked residual, once the output was read
        self.outputs = 0
        self.error = self.malformed = None

    def judge(self, verdict):
        self.passed = verdict.passed
        self.residual = verdict.residual
        self.outputs = verdict.outputs


class Pass:
    """The records of one closed-loop pass and what was measured around them."""

    def __init__(self):
        self.records = []
        self.host = HostClock()
        self.rss_mb = None      # peak RSS after RSS_ROUNDS rounds, or at the end

    def idle_seconds(self, record):
        """The record's op time divided by the host factor while it ran."""
        return record.seconds / self.host.over(record.start, record.start + record.seconds)

    def busy_seconds(self):
        """Sum over slots of the slot's median op time on an idle host.  The
        repeats of a slot run the same input, so the median rejects repeats
        that a burst of load from outside the process slowed."""
        times = defaultdict(list)
        for r in self.records:
            times[r.slot].append(self.idle_seconds(r))
        return math.fsum(statistics.median(t) for t in times.values())

    def total_seconds(self):
        """All op times of the pass on an idle host."""
        return math.fsum(self.idle_seconds(r) for r in self.records)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(cli, workload, seconds=None, rounds=None, tracer=None, on_op=None):
    """Closed loop over whole rounds of the workload's slots, until ``rounds``
    or until the next round would end after ``seconds``.  Op times, and a
    tracer's spans, are taken on the host clock, which leaves out the host
    factor sampling."""
    measured = Pass()
    clock = measured.host.clock
    if tracer is not None:
        tracer.clock = clock
    with measured.host.ticking():
        start = clock()
        done = 0
        last = 0.0
        while True:
            if rounds is not None:
                if done == rounds:
                    break
            elif done and clock() - start + last > seconds:
                break
            round_start = clock()
            for slot, op in enumerate(workload.round()):
                record = Record(op, slot)
                if tracer is not None:
                    tracer.recording = True
                record.start = clock()
                try:
                    code, out, err = call(cli, op.argv)
                except Exception as exc:  # an untyped crash fails the op, not the run
                    code, out = None, ""
                    err = "".join(traceback.format_exception_only(type(exc), exc))
                record.seconds = clock() - record.start
                if tracer is not None:
                    tracer.recording = False
                verdict = None
                if code == 0:
                    try:
                        verdict = workload.check(op, out, lambda a: call(cli, a)[:2])
                        record.judge(verdict)
                    except workloads.MalformedOutput as exc:
                        record.malformed = f"{' '.join(op.argv)}: {exc}"
                else:
                    record.error = f"exit {code}: {err.strip()[-200:]}"
                measured.records.append(record)
                if on_op is not None:
                    on_op(record, op, verdict)
            done += 1
            last = clock() - round_start
            if done == RSS_ROUNDS:
                measured.rss_mb = peak_rss_mb()
    if measured.rss_mb is None:
        measured.rss_mb = peak_rss_mb()
    return measured


def by_slot(records):
    """Slot -> the slot's records, in the order they ran."""
    slots = defaultdict(list)
    for r in records:
        slots[r.slot].append(r)
    return slots


def slot_passed(records):
    """A slot passes only if its op met the gate on every repeat."""
    return all(r.passed for r in records)


def slot_residual(records):
    """The slot's checked residual (the first repeat that has one)."""
    return next((r.residual for r in records if r.residual is not None), None)


def summary(records):
    slots = by_slot(records)
    failed = sum(not slot_passed(rs) for rs in slots.values())
    errors = Counter(r.error.splitlines()[-1] for r in records if r.error)
    for message, count in errors.most_common(5):
        print(f"# {count} ops failed with {message}")
    for r in records:
        if r.malformed:
            print(f"MALFORMED {r.malformed}", file=sys.stderr)
    return {
        "correct": not any(r.malformed for r in records),
        "attempted": len(slots),
        "failed": failed,
    }


def end_to_end(measured, setup_s):
    """End-to-end metrics.  Rates divide the slots, and their outputs, by
    the sum of the slots' median op times on an idle host."""
    records = measured.records
    slots = by_slot(records)
    busy = measured.busy_seconds()
    residuals = [slot_residual(rs) for rs in slots.values()]
    checked = [digits(r) for r in residuals if r is not None]
    outputs = sum(rs[0].outputs for rs in slots.values())
    raw_rate = len(records) / sum(r.seconds for r in records)
    rounds = len(records) / len(slots)
    print(f"# {rounds:.3g} rounds of {len(slots)} slots; median host factor "
          f"{statistics.median(measured.host.factors):.4g} from "
          f"{len(measured.host.factors)} samples; undivided mean ops per busy "
          f"second {raw_rate:.6g}")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(slots) / busy,
        "outputs_per_s": outputs / busy,
        "digits_p50": statistics.median(checked) if checked else 0.0,
        "peak_rss_mb": measured.rss_mb,
    }


def latency(records):
    ms = [1000.0 * r.seconds for r in records]
    return {"bench.op_p50_ms": statistics.median(ms),
            "bench.op_p99_ms": tail_percentile(ms, 99.0)}


class LayerProfile:
    """Per-layer aggregates over the traced pass, folded in one op at a time."""

    def __init__(self, cli):
        self.cli = cli
        self.ops = 0
        self.op_seconds = 0.0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.grams = Counter()
        self.gram_holonomy = Counter()
        self.gram_pairings = Counter()
        self.health = defaultdict(float)
        self.digits_min = DIGITS_CAP
        self.words = 0
        self.points = 0
        self.limit_ops = 0

    def add(self, record, op, verdict, spans, kept):
        self.ops += 1
        self.op_seconds += record.seconds
        own = tracing.self_times(spans)
        for span in spans:
            self.calls[span.name] += 1
            self.self_s[span.name] += own[span.id]
        genus = op.genus
        grams = sum(span.name == "cocycles.symplectic_gram" for span in spans)
        if grams:
            self.grams[genus] += grams
            self.gram_holonomy[genus] += tracing.count_under(
                spans, "surface.holonomy", "cocycles.symplectic_gram")
            self.gram_pairings[genus] += tracing.count_under(
                spans, "cocycles.goldman_pairing", "cocycles.symplectic_gram")
        if verdict is not None:
            self.digits_min = min(self.digits_min, digits(verdict.residual))
            for key, value in verdict.health.items():
                self._worst(key, value)
            if op.kind == "limitset":
                self.points += verdict.outputs
                self.words += workloads.reduced_word_count(genus, op.depth)
                self.limit_ops += 1
        self._surface_health(op)
        self._cocycle_health(kept)

    def _surface_health(self, op):
        code, text, _err = call(self.cli, ["holonomy", op.argv[1]])
        if code != 0:
            return
        payload = json.loads(text)
        self._worst("surface.relator_residual_max", payload["relator_residual"])
        largest = workloads.worst(math.hypot(*z) for m in payload["generators"].values()
                                  for row in m for z in row)
        self._worst("surface.max_entry_log10", math.log10(largest))

    def _cocycle_health(self, results):
        cocycles = sys.modules["qfsurface.cocycles"]
        residual_of = getattr(cocycles, "cocycle_residual", None)
        if residual_of is None:
            return
        for _rep, basis in results:
            for u in basis:
                self._worst("cocycles.cocycle_residual_max", float(residual_of(u)))

    def _worst(self, key, value):
        self.health[key] = workloads.worst([self.health[key], value])

    def metrics(self, plain):
        out = {}
        for layer in tracing.LAYER_NAMES:
            out[f"{layer}.calls"] = self.calls[layer] / self.ops
            out[f"{layer}.self_s"] = self.self_s[layer] / self.ops
            out[f"{layer}.share"] = self.self_s[layer] / self.op_seconds
        total_grams = sum(self.grams.values())
        out["presentation.builds_per_op"] = self.calls["presentation.build_plan"] / self.ops
        out["cocycles.holonomy_per_gram"] = (
            sum(self.gram_holonomy.values()) / total_grams if total_grams else 0.0)
        for genus in (2, 3, 4):
            out[f"cocycles.holonomy_per_gram.g{genus}"] = (
                self.gram_holonomy[genus] / self.grams[genus] if self.grams[genus] else 0.0)
        out["cocycles.pairings_per_gram"] = (
            sum(self.gram_pairings.values()) / total_grams if total_grams else 0.0)
        out["limitset.words"] = self.words / self.limit_ops if self.limit_ops else 0.0
        out["limitset.points"] = self.points / self.limit_ops if self.limit_ops else 0.0
        out["limitset.kept_frac"] = self.points / self.words if self.words else 0.0
        for key in ("surface.relator_residual_max", "surface.length_error_max",
                    "surface.max_entry_log10", "cocycles.darboux_residual_max",
                    "cocycles.raw_asymmetry_max", "cocycles.cocycle_residual_max"):
            out[key] = self.health[key]
        out["bench.digits_min"] = self.digits_min
        slots = by_slot(plain).values()
        out["bench.fail_frac"] = sum(not slot_passed(rs) for rs in slots) / len(slots)
        for stratum in workloads.STRATA:
            cell = [rs for rs in slots if rs[0].stratum == stratum]
            out[f"lengths.fail_frac.{stratum}"] = (
                sum(not slot_passed(rs) for rs in cell) / len(cell) if cell else 0.0)
        for genus in (2, 3, 4):
            cell = [1000.0 * r.seconds for r in plain
                    if r.kind == "gram" and r.genus == genus]
            out[f"darboux.op_ms.g{genus}"] = statistics.median(cell) if cell else 0.0
        return out


def traced_run(cli, workload, seconds):
    # the traced pass repeats the untraced pass's rounds and adds health
    # calls between ops, so the untraced pass gets half of the run
    plain = run_rounds(cli, workload, seconds=seconds / 2.0)
    rounds = len(plain.records) // len(workload.round())
    tracer = tracing.Tracer()
    profile = LayerProfile(cli)

    def fold(record, op, verdict):
        spans, kept = tracer.take()
        profile.add(record, op, verdict, spans, kept)

    with tracer.installed():
        traced = run_rounds(cli, workload, rounds=rounds, tracer=tracer, on_op=fold)
    values = profile.metrics(plain.records)
    values.update(latency(plain.records))
    values["bench.host_factor"] = statistics.median(plain.host.factors)
    values["bench.trace_overhead_frac"] = traced.total_seconds() / plain.total_seconds() - 1.0
    return plain.records + traced.records, values


def run(args, cli, workdir):
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
    warmup = workload.warmup
    code, _out, err = call(cli, warmup)
    if code != 0:
        raise RuntimeError(f"warm-up exited {code}: {err.strip()}")
    if args.trace:
        records, values = traced_run(cli, workload, args.seconds)
        table = PER_LAYER
    else:
        setup_s = statistics.median(time_setup(warmup) for _ in range(SETUP_REPEATS))
        measured = run_rounds(cli, workload, seconds=args.seconds)
        records = measured.records
        values = end_to_end(measured, setup_s)
        tail = latency(records)
        print(f"# {len(records)} ops: bench.op_p50_ms = {tail['bench.op_p50_ms']:.6g}, "
              f"bench.op_p99_ms = {tail['bench.op_p99_ms']:.6g} "
              f"(0 with fewer than {MIN_BEYOND} ops beyond p99)")
        table = END_TO_END
    result = summary(records)
    result["metrics"] = {}
    for name, unit, _better in table:
        value = values[name]
        if not math.isfinite(value):
            # JSON has no NaN or infinity; a health value that overflowed
            # reads as the largest float
            value = math.copysign(sys.float_info.max, value)
        print(f"{name} = {value:.6g} {unit}")
        result["metrics"][name] = {"value": value, "unit": unit}
    print(f"# attempted {result['attempted']} slots, failed {result['failed']} "
          f"(fail_frac {result['failed'] / result['attempted']:.4g}), "
          f"correct {result['correct']}")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    try:
        cli = import_cli(src)
    except ImportError as exc:
        print(f"qfsbench: cannot import qfsurface from {src}: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".qfsbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
