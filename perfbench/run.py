"""hurwitztau CLI benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs the public CLI (``hurwitztau.cli.main``) in fresh worker processes, one
at a time, on the pinned corpus in the order ``--seed`` picks, and checks
every op's output.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` splits the budget into an untraced and a
traced half on the same specs and reports the per-layer metrics.
Every time in the end-to-end metrics is scaled to the reference CPU speed,
measured by a calibration kernel around each op (``worker.calibrate``).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.stats.mstats import hdquantiles

import corpus
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
SETUP_ONLY_WORKERS = 3  # fresh processes that only set up; passes add more samples
# A timed run makes at least two passes, so its latency quantiles rest on at
# least twice the corpus whatever the machine's speed phase.
MIN_TIMED_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run (no program, a worker crashed or hung)."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HURWITZ_TRUNC", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns workers one at a time and keeps the run inside its time limit."""

    def __init__(self, workload: str, argv: tuple[list[str], list[str]], warmup: Path):
        self.workload = workload
        self.argv = argv
        self.warmup = warmup
        self.started = time.monotonic()
        self.n_jobs = 0
        self.env = worker_env()

    def spawn(self, specs: list[str], trace: bool) -> tuple[float, dict]:
        """Run one worker to completion; returns (scaled set-up seconds, result)."""
        self.n_jobs += 1
        stem = WORK / f"{self.workload}-job{self.n_jobs}"
        job = {
            "root": str(ROOT),
            "argv": list(self.argv),
            "warmup": str(self.warmup),
            "specs": specs,
            "trace": trace,
            "out": f"{stem}.out.json",
            "spans": f"{stem}.spans.npz" if trace else None,
        }
        with open(f"{stem}.job.json", "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        with open(f"{stem}.stderr.txt", "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), f"{stem}.job.json"],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = Path(f"{stem}.stderr.txt").read_text(encoding="utf-8").strip()
            raise BenchError(f"worker exited {code}: {tail.splitlines()[-1] if tail else ''}")
        with open(job["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        # set-up at the speed sampled right after it
        return (result["ready_at"] - spawned) / result["speed"][0], result

    def passes(self, specs: list[str], seconds: float, trace: bool, min_passes: int = 1):
        """Whole fresh-process passes over ``specs``: at least ``min_passes``,
        and until ``seconds`` are measured.

        A pass is never cut short, so every run measures the same ops, in a
        seed-fixed order, a whole number of times.  Each process sees every
        spec once, so no cross-call cache in the program gains hits that a
        one-shot CLI user never gets.
        """
        setups, results = [], []
        measured = 0.0
        while measured < seconds or len(results) < min_passes:
            setup, res = self.spawn(specs, trace)
            setups.append(setup)
            results.append(res)
            measured += res["window_s"]
            if not specs:
                break
        return setups, results


def records(results: list[dict]) -> list[tuple[float, str | None]]:
    """(op seconds at the reference speed, failure reason) of every op.

    An op's time is divided by the mean of the speed factors sampled just
    before and just after it.
    """
    return [(elapsed / (0.5 * (res["speed"][k] + res["speed"][k + 1])), reason)
            for res in results for k, (_, elapsed, reason) in enumerate(res["records"])]


def latency_ms(recs: list[tuple[float, str | None]]) -> list[float]:
    """Per-op latency; a failed op counts as the slowest op of the run."""
    worst = max(elapsed for elapsed, _ in recs)
    return [1e3 * (worst if reason else elapsed) for elapsed, reason in recs]


def end_to_end(setups: list[float], results: list[dict]) -> dict[str, tuple[float, str]]:
    recs = records(results)
    ok = sum(1 for _, reason in recs if reason is None)
    # Harrell-Davis estimates weight every order statistic, so they do not
    # jump between neighbouring specs' latencies as a sample quantile of a
    # few dozen ops does
    lat = latency_ms(recs)
    p50, p90 = hdquantiles(lat, prob=[0.5, 0.9]) if len(lat) > 1 else (lat[0], lat[0])
    return {
        # back-to-back ops: successful ops per second of scaled op time
        "ops_per_s": (ok / sum(elapsed for elapsed, _ in recs), "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    plain, with_trace = records(untraced), records(traced)
    n = min(len(plain), len(with_trace))
    overhead = (sum(e for e, _ in with_trace[:n]) / sum(e for e, _ in plain[:n])) - 1.0
    both = plain + with_trace
    metrics = tracer.layer_metrics(tracer.merge([r["layers"] for r in traced]), len(with_trace))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["ops_failed_frac"] = (sum(1 for _, r in both if r) / len(both), "ratio")
    return metrics


def prepare(workload: str, seed: int) -> tuple[list[dict], list[str], Path]:
    """Write the run's spec files; returns (corpus entries, paths, warm-up path)."""
    genus, _, _, per_profile = corpus.WORKLOADS[workload]
    entries = corpus.run_corpus(genus, seed, per_profile)
    spec_dir = WORK / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in entries:
        path = spec_dir / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["spec"]), encoding="utf-8")
        paths.append(str(path))
    warmup = spec_dir / f"warmup-g{genus}.json"
    warmup.write_text(json.dumps(corpus.WARMUP_SPECS[genus]), encoding="utf-8")
    return entries, paths, warmup


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "hurwitztau" / "cli.py").is_file():
        print(f"no hurwitztau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob(f"{args.workload}-job*"):
        stale.unlink()
    entries, paths, warmup = prepare(args.workload, args.seed)
    genus, pre, post, _ = corpus.WORKLOADS[args.workload]
    runner = Runner(args.workload, (pre, post), warmup)

    try:
        if args.trace:
            _, untraced = runner.passes(paths, args.seconds / 2, trace=False)
            _, traced = runner.passes(paths, args.seconds / 2, trace=True)
            metrics = per_layer(untraced, traced)
            results = untraced + traced
            setups = []
        else:
            setups = [runner.spawn([], False)[0] for _ in range(SETUP_ONLY_WORKERS)]
            pass_setups, results = runner.passes(paths, args.seconds, trace=False,
                                                 min_passes=MIN_TIMED_PASSES)
            setups += pass_setups
            metrics = end_to_end(setups, results)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    recs = records(results)
    failures = [(entries[i]["id"], reason) for res in results
                for i, _, reason in res["records"] if reason]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_sha256": corpus.canonical_hash(corpus.load_pool(genus)),
        "corpus_sha256": corpus.canonical_hash([e["spec"] for e in entries]),
        "corpus_size": len(entries),
        "workers": runner.n_jobs,
        "latency_samples": len(recs),
        # machine speed factors of the run (1 = the reference speed; larger is slower)
        "speed_factor_quartiles": statistics.quantiles(
            [f for res in results for f in res["speed"]], n=4),
        "versions": results[0]["versions"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "setup_samples_s": setups,
        "metrics": metrics,
        # spec id, raw seconds, seconds at the reference speed, failure reason
        "ops": [[entries[i]["id"], raw, scaled, reason] for (i, raw, reason), (scaled, _)
                in zip((rec for res in results for rec in res["records"]), recs)],
    }
    (WORK / f"last-{args.workload}.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    for key in ("workload", "seed", "pool_sha256", "corpus_sha256", "corpus_size",
                "workers", "latency_samples", "speed_factor_quartiles", "versions", "nproc",
                "cpu"):
        print(f"{key}: {info[key]}")
    for spec_id, reason in failures[:20]:
        print(f"FAILED {spec_id}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
