"""One benchmark worker: a fresh process that runs CLI ops in-process.

    python3 perfbench/worker.py JOB.json

The job names the spec files to visit, the CLI arguments around each spec
path, a warm-up spec and whether to trace.  The worker
imports ``hurwitztau`` (from ``src/`` via PYTHONPATH), runs the warm-up op
and stamps ``ready_at`` on the system-wide monotonic clock, so the parent
can time set-up from the moment it spawned the process.  It then calls
``hurwitztau.cli.main`` once per spec, over the whole list.
Every op's output is checked.  The result goes to the job's ``out`` file.

The machine's speed is sampled with a fixed calibration kernel right after
the warm-up and after every op, so the parent can scale each time to the
reference speed (see ``calibrate``).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

# One calibration sample is CAL_REPS runs of the kernel; the kernel's mean
# time per run at the reference speed is CAL_REFERENCE_S.  The constant only
# sets the scale of the reported times: both sides of a comparison use it.
CAL_REPS = 5
CAL_REFERENCE_S = 0.30e-3


def _kernel(np) -> complex:
    """Fixed work shaped like the program's: scalar complex Python, small numpy."""
    a = np.linspace(0.0, 1.0, 24) * (0.3 + 0.2j)
    acc = 0j
    for k in range(240):
        z = complex(0.001 * k, 0.37)
        w = cmath.exp(-1j * math.pi * z) * z * z + math.comb(6, k % 7)
        acc += w / (1.0 + abs(w))
        if k % 8 == 0:
            acc += complex(np.sum(np.exp(a * z)))
    return acc


def calibrate() -> float:
    """Speed factor of the machine now: kernel time over the reference time.

    On a shared host the CPU speed can wander by up to a factor of two over
    seconds to minutes as neighbours load it.  The kernel slows with it, so an op
    time divided by the factor measured around the op is the op's time at
    the reference speed.  It does not depend on ``hurwitztau``.
    """
    import numpy

    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        _kernel(numpy)
    return (time.perf_counter() - t0) / CAL_REPS / CAL_REFERENCE_S


def check_output(argv: list[str], rc, stdout: str) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if argv[0] == "check":
        lines = stdout.strip().splitlines()
        if not lines or any(line.startswith("FAIL") for line in lines):
            return "an identity failed"
        passed, _, total = lines[-1].partition(" ")[0].partition("/")
        if not (passed.isdigit() and passed == total and int(total) > 0):
            return f"unexpected summary line {lines[-1]!r}"
        return None
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"analyze output is not JSON: {exc}"
    for section in ("canonical", "hamiltonians", "tau", "g_function"):
        status = rep.get(section, {}).get("status")
        if status != "checked":
            return f"{section} status {status!r}"
    n_lam = len(rep["canonical"].get("lambda", []))
    if n_lam != rep.get("dim"):
        return f"{n_lam} lambda values for dim {rep.get('dim')}"
    return None


def run_op(main, argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI op in-process; (seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the op boundary: record the failure, keep going
        reason = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if reason is None:
        reason = check_output(argv, rc, out.getvalue())
        if reason is not None and err.getvalue().strip():
            reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    return elapsed, reason


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started.

    ``ru_maxrss`` keeps the parent's resident set from before ``exec``, so
    it is read only where the kernel's own high-water mark is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(job: dict) -> dict:
    import numpy
    import scipy
    from hurwitztau import cli

    src = Path(job["root"], "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"hurwitztau imported from {cli.__file__}, not {src}")
    pre, post = job["argv"]
    _, reason = run_op(cli.main, pre + [job["warmup"]] + post)
    if reason is not None:
        raise RuntimeError(f"warm-up op failed: {reason}")
    ready_at = time.monotonic()
    speed = [calibrate()]  # speed[k] is sampled before op k, speed[k + 1] after it

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    t_start = time.perf_counter()
    for i, spec in enumerate(job["specs"]):
        if tracer is not None:
            tracer.op_id = i
        # looked up per op so an installed tracer sees cli.main too
        elapsed, reason = run_op(cli.main, pre + [spec] + post)
        speed.append(calibrate())
        records.append([i, elapsed, reason])
    window = time.perf_counter() - t_start
    result = {
        "ready_at": ready_at,
        "records": records,
        "speed": speed,
        "window_s": window,
        "peak_rss_mb": peak_rss_mb(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        if job.get("spans"):
            tracer.save(job["spans"])
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
