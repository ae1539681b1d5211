"""flagzeta benchmark: one seeded workload, timed, checked, and reported.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_mix --seed 7 --seconds 25 --trace 0

Load model: a closed loop, one client, no threads.  The process imports the
package from ``src/`` and generates the workload's inputs from the seed;
each timed phase then runs in a child forked from that set-up process, so
it starts with the package's caches empty, as a fresh CLI invocation does.
``flag_oracle`` forks once per pass over its grid, because the enumerator's
caches would otherwise make every pass after the first free.

Every op is followed by a fixed calibration kernel, and op times are
reported in reference seconds: rescaled to a fixed machine speed, so that
the host's own speed swings cancel (``speed.py``).  Set-up time is rescaled
the same way.  The wall-clock figures are printed alongside.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs the same ops untraced for half the time and
traced for the other half, reports the per-layer metrics (per-op means) and
the tracing overhead, and writes every span to ``.perfbench_out/``.

Every op checks its own answer; afterwards the exact answers of a fixed
check set are hashed and compared with ``digests.json``.  Any failed op or
digest mismatch makes the run exit 1.  The last line of stdout is the JSON
result; the lines before it print each metric with its unit and sample
count.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

from speed import REFERENCE_KERNEL_S, SpeedLog, kernel_seconds

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("cli_mix", "verify_deep", "zeta_series", "flag_oracle")
SETUP_PROBES = 7
PROBE_KERNELS = 25  # kernel runs after a probe's set-up; the first 5 warm up


def import_package() -> None:
    """Import flagzeta from this checkout's sources, and only from there."""
    if not (SRC / "flagzeta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'flagzeta'}")
    sys.path.insert(0, str(SRC))
    import flagzeta

    if Path(flagzeta.__file__).resolve().parent != SRC / "flagzeta":
        sys.exit(f"perfbench: imported flagzeta from {flagzeta.__file__}, not {SRC}")


def generate(workload: str, seed: int, smoke: bool) -> list:
    import workloads

    if workload == "flag_oracle":
        return workloads.oracle_pass(seed, 0, smoke)
    return workloads.WORKLOADS[workload][0](seed, smoke)


# -- timed phases --------------------------------------------------------------


def run_ops(ops, run, tracer=None, deadline=None, block=1, keep_answers=False) -> dict:
    """Run ops in order, each followed by the calibration kernel.  With a
    ``deadline``, cycle through them and stop at the first end of a block
    of ``block`` ops past it, so that the phase holds whole op-mix blocks
    only.  Returns each op's time in reference seconds (``speed.py``) and
    in wall seconds."""
    spans, answers, failed = [], [], 0
    log = SpeedLog()
    source = itertools.cycle(ops) if deadline is not None else ops
    start = t1 = perf_counter()
    for index, op in enumerate(source):
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, answer = run(op, keep_answers)
            else:
                ok, answer = tracer.run_op(index, run, op, keep_answers)
        except Exception:
            if not failed:
                traceback.print_exc()
            ok, answer = False, None
        t1 = perf_counter()
        log.calibrate(t1 - t0)
        spans.append((t0, t1))
        failed += not ok
        if not ok:
            print(f"perfbench: op failed: {op!r}", file=sys.stderr)
        if keep_answers:
            answers.append(answer)
        if deadline is not None and t1 >= deadline and (index + 1) % block == 0:
            break
    result = {
        "latencies": [log.reference(t0, t1) for t0, t1 in spans],
        "wall": [t1 - t0 for t0, t1 in spans],
        "kernel_s": log.mean_kernel_s(),
        "elapsed": t1 - start,
        "failed": failed,
    }
    if keep_answers:
        result["answers"] = answers
    if tracer is not None:
        tracer.finish()
        result["trace"] = tracer.state()
    return result


def in_fork(fn) -> dict:
    """Run ``fn`` in a forked child and return the JSON-able dict it returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"timed phase child ended with status {status}")
    return json.loads(data)


def timed_phase(workload: str, seed: int, pool: list, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run the workload for ``seconds``.  Returns the per-op latencies, the
    elapsed time, the failure count, the first pass's answers (flag_oracle)
    and the trace state."""
    import workloads
    from tracer import Tracer

    def child(ops, run, deadline=None, block=1, keep_answers=False):
        def body():
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            return run_ops(ops, run, tracer, deadline, block, keep_answers)

        return body

    if workload != "flag_oracle":
        _, run, _, block = workloads.WORKLOADS[workload]
        return in_fork(child(pool, run, perf_counter() + seconds, block))

    total = {"latencies": [], "wall": [], "kernel_s": 0.0, "elapsed": 0.0, "failed": 0, "answers": None}
    merged = Tracer() if traced else None
    deadline = perf_counter() + seconds
    for index in itertools.count():
        ops = pool if index == 0 else workloads.oracle_pass(seed, index, smoke)
        part = in_fork(child(ops, workloads.oracle_run, keep_answers=index == 0))
        if index == 0:
            total["answers"] = part["answers"]
        if merged is not None:
            merged.merge(part["trace"], len(total["latencies"]))
        total["kernel_s"] += part["kernel_s"] * part["elapsed"]
        total["latencies"] += part["latencies"]
        total["wall"] += part["wall"]
        total["elapsed"] += part["elapsed"]
        total["failed"] += part["failed"]
        if perf_counter() >= deadline:
            break
    total["kernel_s"] /= total["elapsed"]
    if merged is not None:
        total["trace"] = merged.state()
    return total


def samples(phase: dict) -> str:
    return f"n={len(phase['latencies'])}"


def throughput(phase: dict, key: str = "latencies") -> float:
    """Ops per second of op time: the calibration kernel's time is left out."""
    return len(phase[key]) / sum(phase[key])


def latency_ms(phase: dict, decile: int, key: str = "latencies") -> float:
    lat = phase[key]
    return (statistics.quantiles(lat, n=10)[decile - 1] if len(lat) > 1 else lat[0]) * 1000


# -- set-up time, digest, metrics ------------------------------------------------


def setup_seconds(args) -> list[float]:
    """Interpreter start to inputs ready, measured in fresh interpreters,
    in reference seconds: each probe runs the calibration kernel right
    after its set-up, and its wall time is rescaled by that kernel time."""
    samples = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--probe",
                   "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            command.append("--smoke")
        start = monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        ready, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append((ready - start) * REFERENCE_KERNEL_S / kernel_s)
    return samples


def digest(answers: list) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(workload: str, smoke: bool, oracle_answers) -> tuple[bool, str]:
    """Hash the exact answers of the workload's check set."""
    import workloads

    if workload == "flag_oracle":
        # Pass 0 covers the whole grid, so its sorted answers do not
        # depend on the seed.
        answers = sorted(oracle_answers, key=json.dumps)
        ok = all(a is not None for a in answers)
    else:
        _, run, check_set, _ = workloads.WORKLOADS[workload]
        results = [run(op, True) for op in check_set(smoke)]
        ok = all(r[0] for r in results)
        answers = [r[1] for r in results]
    found = digest(answers)
    stored = json.loads(DIGESTS.read_text())["smoke" if smoke else "full"][workload]
    return ok and found == stored, found


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(phase: dict, setup: list[float], rss: float) -> dict:
    n = samples(phase)
    return {
        "ops_per_s": (throughput(phase), "1/s", n),
        "op_latency_p50_ms": (latency_ms(phase, 5), "ms", n),
        "op_latency_p90_ms": (latency_ms(phase, 9), "ms", n),
        "setup_s": (statistics.median(setup), "s", f"n={len(setup)}"),
        "peak_rss_mb": (rss, "MB", "n=1"),
    }


def per_layer(untraced: dict, traced: dict):
    from tracer import Tracer

    tracer = Tracer()
    tracer.merge(traced["trace"], 0)
    ops = len(traced["latencies"])
    out = {name: (value, unit, f"n={ops}") for name, (value, unit) in tracer.metrics(ops).items()}
    plain = throughput(untraced)
    with_spans = throughput(traced)
    out["trace.untraced_ops_per_s"] = (plain, "1/s", samples(untraced))
    out["trace.traced_ops_per_s"] = (with_spans, "1/s", samples(traced))
    out["trace.overhead_ratio"] = (plain / with_spans, "ratio", samples(traced))
    return out, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.probe:
        import_package()
        generate(args.workload, args.seed, args.smoke)
        ready = monotonic()
        kernels = [kernel_seconds() for _ in range(PROBE_KERNELS)]
        print(ready, statistics.fmean(kernels[5:]))
        return 0

    import_package()
    setup = [] if args.trace else setup_seconds(args)
    pool = generate(args.workload, args.seed, args.smoke)

    if args.trace:
        untraced = timed_phase(args.workload, args.seed, pool, args.seconds / 2, False, args.smoke)
        traced = timed_phase(args.workload, args.seed, pool, args.seconds / 2, True, args.smoke)
        phases = [untraced, traced]
        metrics, tracer = per_layer(untraced, traced)
    else:
        phases = [timed_phase(args.workload, args.seed, pool, args.seconds, False, args.smoke)]
        metrics = end_to_end(phases[0], setup, peak_rss_mb())

    digest_ok, found = check_digest(args.workload, args.smoke, phases[0].get("answers"))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    attempted = sum(len(p["latencies"]) for p in phases)
    failed = attempted if not digest_ok else sum(p["failed"] for p in phases)
    if not digest_ok:
        print(f"perfbench: {args.workload} check-set digest {found} does not match "
              f"{DIGESTS.name}", file=sys.stderr)
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload:12} {name:40} {value:>16.6g} {unit:6} {count}")
    print(f"{args.workload:12} {'ops_failed_ratio':40} {failed / attempted:>16.6g} {'ratio':6} n={attempted}")
    phase = phases[0]
    print(f"{args.workload:12} wall clock, not rescaled: {throughput(phase, 'wall'):.6g} ops/s, "
          f"p50 {latency_ms(phase, 5, 'wall'):.6g} ms, p90 {latency_ms(phase, 9, 'wall'):.6g} ms; "
          f"calibration kernel {phase['kernel_s'] * 1000:.4g} ms "
          f"(reference {REFERENCE_KERNEL_S * 1000:g} ms)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
