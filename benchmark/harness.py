"""Set-up, the closed run loop, scoring and the result line.

One client in one process runs the workload's cases pass after pass until
``--seconds`` have elapsed, finishing the pass, so every case is scored
equally often and the digits and counters do not depend on timing.  A
workload whose ops take seconds (large-M) stops at the first op past
``--seconds`` once every case has run, so a pass cannot double the run.

Scoring: each case's first result is checked against the seeded truth
model (err_xi, err_a, err_sup) once the loop has ended, so the large
evaluation arrays never sit between two timed ops; every later run of the
case must reproduce that result bit for bit.  An op fails when it raises
anything or when its case misses the workload's tolerance; failures are
counted, never dropped, and pass_frac (passing ops over attempted ops)
reports them.  The digits figures take every result, passing or not, at
its 95th-percentile error (nearest rank): the largest error on large-M's
3 cases and the second largest on extended-cli's 24.  On many-small the
largest err_a moves with the seed (36% and 58% of its tolerance on seeds
1 and 2), so read there the figures would spread with the seed, not with
the program; a case pushed past tolerance shows in pass_frac.
``correct`` is false when a case does not reproduce, when a result does
not describe the requested model, or when no op returned a result.

Times are scaled to a fixed machine speed.  The host lends its cores to
other tenants, and its speed swings by up to a factor of 1.6 for minutes
at a time, so raw wall times of one seed spread by up to 0.4
(IQR/median) between runs.  A Gauge times a fixed reference kernel after
every BLOCK_S of timed work, from set-up to scoring, and scales each
time by REF_S over the median of the readings nearest to it (SPAN on
either side of its block): it reads as seconds on a machine where the
kernel takes REF_S.  Nearby readings follow the swings; taking several
keeps one reading's noise out, which matters for ops of seconds.  A
change to the program moves the scaled times as it moves wall times;
the kernel is the benchmark's own and does not change with the program.
The record line gives the readings and the unscaled recovery median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (spans.py), so both see the same machine
conditions, reports per-op layer numbers plus the tracing overhead, and
writes the spans to ``.bench_out/``.  The line before the result records
the environment, the workload parameters and the failure breakdown.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spans import PER_LAYER, CoverageError, Tracer, layer_metrics
from workloads import CliExit, evaluate, scaled_errors

SETUP_REPS = 3
EPS = 2.0**-52
ERRORS = ("err_xi", "err_a", "err_sup")
# BLOCK_S: timed work between two gauge readings; SPAN: readings on each
# side of a block that scale it; REF_S: the reading every time is scaled to
BLOCK_S = 0.5
SPAN = 2
REF_S = 0.06


class Gauge:
    """Reads the machine's speed from a fixed kernel in five parts, the kinds
    of work the program does: interpreter arithmetic, long np.convolve, a
    complex exponential over an array larger than the caches, small-array
    numpy calls (eigvals of 8x8 companions, short convolutions) and
    dict/tuple churn."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = np.exp(1j * np.linspace(0.0, 50.0, 2048))
        # 16 MiB, larger than the caches, as the evaluation's phase matrix is
        self._phase = 1j * np.outer(np.linspace(-1.0, 1.0, 512), np.arange(-1024, 1025))
        self._comp = []
        for _ in range(4):
            c = np.diag(np.ones(7), -1) + 0j
            c[0, :] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            self._comp.append(c)
        self._small = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        self.parts = {name: [] for name in ("interp", "convolve", "exp", "small", "dict")}
        self.work_s = 0.0
        self.readings = [self.read()]

    def _interp(self):
        acc = 0
        for i in range(150_000):
            acc += i * i % 7

    def _convolve(self):
        for _ in range(6):
            np.convolve(self._a, self._a)

    def _exp(self):
        np.exp(self._phase).sum()

    def _small_calls(self):
        v = self._small
        for _ in range(40):
            for c in self._comp:
                np.linalg.eigvals(c)
            np.convolve(v, v)
            np.polyval(v, 0.3 + 0.1j)
            np.abs(v).max()
            v[::-1].copy()

    def _dict(self):
        d = {}
        for i in range(20_000):
            d[(i % 97, i % 13)] = [i, str(i % 10)]
        sorted(d.items(), key=lambda kv: kv[1][0])

    def read(self):
        total = 0.0
        for name, part in zip(self.parts, (self._interp, self._convolve, self._exp,
                                           self._small_calls, self._dict)):
            t0 = perf_counter()
            part()
            seconds = perf_counter() - t0
            self.parts[name].append(seconds)
            total += seconds
        return total

    def tick(self, seconds):
        """Count timed work and return its block; a reading after each
        BLOCK_S of work ends the block.  Block b lies between readings b
        and b + 1."""
        block = len(self.readings) - 1
        self.work_s += seconds
        if self.work_s >= BLOCK_S:
            self.close()
        return block

    def close(self):
        if self.work_s > 0.0:
            self.readings.append(self.read())
            self.work_s = 0.0

    def scaled(self, samples):
        """(seconds, block) pairs as seconds at the reference speed."""
        r = self.readings
        return [sec * REF_S / statistics.median(r[max(0, b - SPAN + 1): b + SPAN + 1])
                for sec, b in samples]

    def summary(self):
        r = self.readings
        return {"ref_s": REF_S, "block_s": BLOCK_S, "readings": len(r),
                "reading_min_s": min(r), "reading_p50_s": statistics.median(r),
                "reading_max_s": max(r),
                "part_p50_s": {k: statistics.median(v) for k, v in self.parts.items()}}


def p95(errs):
    """Nearest-rank 95th percentile; 1.0 (0 digits) when there are none."""
    errs = sorted(errs)
    return errs[math.ceil(0.95 * len(errs)) - 1] if errs else 1.0


def digits(err):
    # an error below one ulp of 1.0 reads as one ulp, so an exact case
    # cannot make the figure infinite
    return -math.log10(max(err, EPS))


def setup(workload, seed, workdir, gauge):
    """Synthesise the seeded inputs and run one warm-up op."""
    t0 = perf_counter()
    cases = workload.make_cases(seed, workdir)
    try:
        workload.attempt(cases[0], None)
    except Exception:
        pass  # the warm-up only loads code paths; the loop scores the case
    seconds = perf_counter() - t0
    return (seconds, gauge.tick(seconds)), cases


class Scorer:
    """Keeps each case's first outcome, checks repeats, and scores the cases."""

    def __init__(self, workload, cases, gauge):
        self.w = workload
        self.cases = cases
        self.gauge = gauge
        self.first = {}  # case index -> (fingerprint or failure, attempt, failure)
        self.ops = Counter()  # case index -> ops run
        self.verdict = {}  # case index -> (errors or None, failure reason or None)
        self.evaluate = []
        self.evaluated = []  # (case index, approximant, err_sup) scored here
        self.nondeterministic = []
        self.malformed = []

    def record(self, i, att, failure):
        self.ops[i] += 1
        key = failure if att is None else att.fingerprint
        if i not in self.first:
            self.first[i] = (key, att, failure)
        elif self.first[i][0] != key:
            self.nondeterministic.append(self.cases[i].label)

    def score(self):
        for i, (_, att, failure) in self.first.items():
            self.verdict[i] = (None, failure) if att is None else self._check(i, att)
        # further timed rounds over the same results, each bit-identical,
        # so a workload with few cases still gives many evaluate_s samples
        for _ in range(self.w.score_rounds - 1):
            for i, appr, err_sup in self.evaluated:
                again, seconds = evaluate(self.cases[i], appr)
                self.evaluate.append((seconds, self.gauge.tick(seconds)))
                if again != err_sup:
                    self.nondeterministic.append(self.cases[i].label)

    def _check(self, i, att):
        case = self.cases[i]
        try:
            appr = self.w.approximant(att.payload)
            err_xi, err_a = scaled_errors(case, appr)
        except (ValueError, KeyError) as exc:
            self.malformed.append(f"{case.label}: {exc}")
            return None, "malformed"
        if att.err_sup is None:
            err_sup, seconds = evaluate(case, appr)
            self.evaluate.append((seconds, self.gauge.tick(seconds)))
            self.evaluated.append((i, appr, err_sup))
        else:
            err_sup = att.err_sup
        errs = {"err_xi": err_xi, "err_a": err_a, "err_sup": err_sup}
        limits = self.w.limits(case)
        missed = [n for n in ERRORS if not errs[n] <= limits[n]]
        return errs, ("tolerance:" + "+".join(missed)) if missed else None

    def failed(self, counts):
        return sum(n for i, n in counts.items() if self.verdict[i][1] is not None)

    def reasons(self):
        out = Counter()
        for i, n in self.ops.items():
            if self.verdict[i][1] is not None:
                out[self.verdict[i][1]] += n
        return dict(out)

    def returned(self, name):
        """The error of every case that returned a result, passing or not."""
        return [errs[name] for errs, _ in self.verdict.values() if errs is not None]

    def failed_cases(self):
        return sorted(
            f"{self.cases[i].label}: {reason}"
            for i, (_, reason) in self.verdict.items() if reason is not None
        )


@dataclass
class Loop:
    """(seconds, gauge block) of recoveries and whole ops; ops per case."""

    recover: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @property
    def ops(self):
        return sum(self.counts.values())


def run_pass(workload, cases, scorer, loop, gauge, tracer=None, deadline=None):
    """One op per case in order; stops early only past a given deadline."""
    for i, case in enumerate(cases):
        att, failure = None, None
        if tracer is not None:
            tracer.op = loop.ops
        t0 = perf_counter()
        try:
            att = workload.attempt(case, tracer)
        except Exception as exc:  # every escaping error is a failed op
            failure = f"exit {exc.code}" if isinstance(exc, CliExit) else type(exc).__name__
        finally:
            op_s = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
        block = gauge.tick(op_s)
        loop.op_s.append((op_s, block))
        loop.counts[i] += 1
        if att is not None:
            loop.recover.append((att.recover_s, block))
            if att.evaluate_s is not None:
                scorer.evaluate.append((att.evaluate_s, block))
        scorer.record(i, att, failure)
        if deadline is not None and perf_counter() >= deadline:
            break


def run_loop(args, workload, cases, scorer, gauge):
    """Whole passes until --seconds; ops taking seconds stop at the first op
    past it once every case has run."""
    loop = Loop()
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or loop.ops < 2:
        whole = workload.whole_passes or loop.ops < len(cases)
        run_pass(workload, cases, scorer, loop, gauge, deadline=None if whole else deadline)
    return loop


def environment(args, workload, import_s, threads):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "threads": threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "tolerance": workload.tolerance,
        "setup_reps": SETUP_REPS,
        "import_s": import_s,
    }


def traced_run(args, workload, cases, scorer, workdir, gauge):
    """Traced set-up, then alternating untraced and traced passes."""
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    patches = tracer.install()
    try:
        tracer.op = "setup"
        workload.make_cases(args.seed, workdir)
    finally:
        tracer.op = None
        Tracer.uninstall(patches)
    start = perf_counter()
    while True:
        run_pass(workload, cases, scorer, plain, gauge)
        patches = tracer.install()
        try:
            run_pass(workload, cases, scorer, traced, gauge, tracer)
        finally:
            Tracer.uninstall(patches)
        if perf_counter() - start >= args.seconds and plain.ops >= 2:
            break
    return tracer, plain, traced


def layer_report(tracer, workload, plain, traced, root, seed, record, gauge):
    layers = layer_metrics(tracer, traced.ops, workload.expected_layers)
    layers["trace.overhead_frac"] = (
        statistics.median(gauge.scaled(traced.recover))
        / statistics.median(gauge.scaled(plain.recover)) - 1.0
    )
    # share of the traced op time each layer spends outside its child spans
    own = {k[: -len(".self_s")]: v for k, v in layers.items()
           if k.endswith(".self_s") and k != "model.synth_spectrum.self_s" and v > 0}
    total = sum(own.values())
    record["self_share"] = {k: v / total for k, v in sorted(own.items(), key=lambda kv: -kv[1])}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(path)
    record["trace_file"] = str(path.relative_to(root))
    unknown = [name for name, _ in PER_LAYER if name not in layers]
    if unknown:
        raise SystemExit(f"no layer gives the per-layer metrics {', '.join(unknown)}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}


def end_to_end(setup_s, loop, scorer, gauge):
    """End-to-end metrics, every time at the gauge's reference speed."""
    recover = gauge.scaled(loop.recover)
    # over every result, passing or not; a run where no op returned a
    # result reads 0 digits, and `correct` is false then
    err95 = {n: p95(scorer.returned(n)) for n in ERRORS}
    passed = loop.ops - scorer.failed(loop.counts)
    # it cannot read 0 while `correct` holds
    values = {
        "setup_s": (setup_s, "s"),
        "recover_s_p50": (statistics.median(recover), "s"),
        "recover_s_p90": (statistics.quantiles(recover, n=10, method="inclusive")[-1], "s"),
        # passing ops per second spent inside ops; scoring time is excluded
        "recoveries_per_s": (passed / sum(gauge.scaled(loop.op_s)), "1/s"),
        "pass_frac": (passed / loop.ops, "ratio"),
        "evaluate_s_p50": (statistics.median(gauge.scaled(scorer.evaluate)), "s"),
        "digits_xi": (digits(err95["err_xi"]), "digits"),
        "digits_a": (digits(err95["err_a"]), "digits"),
        "digits_sup": (digits(err95["err_sup"]), "digits"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {n: {"value": v, "unit": u} for n, (v, u) in values.items()}


def run(args, workload, import_s, root, threads):
    tmp_parent = root / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_parent)
    try:
        return _run(args, workload, import_s, root, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass


def _run(args, workload, import_s, root, threads, workdir):
    gauge = Gauge()
    setups = []
    for _ in range(SETUP_REPS):
        (seconds, block), cases = setup(workload, args.seed, workdir, gauge)
        setups.append((import_s + seconds, block))

    scorer = Scorer(workload, cases, gauge)
    if args.trace:
        tracer, loop, traced = traced_run(args, workload, cases, scorer, workdir, gauge)
    else:
        loop = run_loop(args, workload, cases, scorer, gauge)
    if len(loop.recover) < 2:
        raise SystemExit(f"only {len(loop.recover)} of {loop.ops} ops completed")
    scorer.score()
    gauge.close()
    if not scorer.evaluate:
        raise SystemExit("no op produced a result that could be evaluated")

    record = environment(args, workload, import_s, threads)
    if args.trace:
        try:
            metrics = layer_report(tracer, workload, loop, traced, root, args.seed, record, gauge)
        except CoverageError as exc:
            raise SystemExit(f"trace coverage check failed on {workload.name}: {exc}")
    else:
        metrics = end_to_end(statistics.median(gauge.scaled(setups)), loop, scorer, gauge)

    attempted = sum(scorer.ops.values())
    failed = scorer.failed(scorer.ops)
    record.update({
        "ops": loop.ops,
        "passes": loop.ops // len(cases),
        "busy_s": sum(sec for sec, _ in loop.op_s),
        "recover_samples": len(loop.recover),
        "evaluate_samples": len(scorer.evaluate),
        "setup_reps_s": [sec for sec, _ in setups],
        "gauge": gauge.summary(),
        "recover_s_p50_unscaled": statistics.median(sec for sec, _ in loop.recover),
        "fail_rate": failed / attempted,
        "failures": scorer.reasons(),
        "failed_cases": scorer.failed_cases(),
        "nondeterministic": scorer.nondeterministic,
        "malformed": scorer.malformed,
    })
    correct = not scorer.nondeterministic and not scorer.malformed and bool(scorer.returned("err_xi"))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
