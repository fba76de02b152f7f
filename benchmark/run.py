"""Run one benchmark workload of mvrecon and print its metrics.

    python3 benchmark/run.py --workload train-desk --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports ``mvrecon`` from its
``src/``.  OpenBLAS and OpenMP are held to one thread.  Set-up (imports,
inputs, model, one warm-up op) is timed apart from the ops, which run for
``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps mvrecon's public functions, alternates traced and untraced ops and
prints the per-layer metrics.  The last line of output is one JSON object.
See README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class Clock:
    """Ends the warm-up op at its first lap, then times each op until
    ``seconds`` have passed or ``max_ops`` ops have run.  With a tracer,
    timed ops alternate traced and untraced, starting traced."""

    def __init__(self, seconds: float, max_ops: int, tracer=None):
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.warmup_s = None
        self.durations: list[float] = []
        self.traced: list[bool] = []
        self._mark = time.perf_counter()

    def lap(self) -> bool:
        """Close the op that just ended; True if another op should run."""
        now = time.perf_counter()
        if self.warmup_s is None:
            self.warmup_s = now - self._mark
            self._start = now
        else:
            self.durations.append(now - self._mark)
        if self.max_ops:
            more = len(self.durations) < self.max_ops
        else:
            more = now - self._start < self.seconds
        if more and self.tracer is not None:
            traced = len(self.durations) % 2 == 0
            self.traced.append(traced)
            if traced:
                self.tracer.unit = f"op{len(self.durations)}"
                self.tracer.install()
            else:
                self.tracer.uninstall()
        self._mark = time.perf_counter()
        return more


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="run exactly this many timed ops instead of --seconds")
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (smoke tests)")
    return p.parse_args(argv)


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def blas_threads() -> str:
    """Thread count each loaded OpenBLAS reports."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                found.append(f"{os.path.basename(path)}={fn()}")
                break
    return ", ".join(found) or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # read by OpenBLAS when numpy first loads it
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    try:
        import mvrecon
    except ImportError as exc:
        print(f"cannot import mvrecon from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(mvrecon.__file__))) != SRC:
        print(f"mvrecon came from {mvrecon.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import reference
    import tracing
    import workloads
    import_s = time.perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, f"scratch-{args.workload}-{os.getpid()}")
    wl = workloads.make_workload(args.workload, args.seed, args.tiny, scratch)
    tracer = tracing.Tracer() if args.trace else None

    if tracer is not None:
        tracer.install()
    make_s = []
    for k in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.unit = f"setup{k}"
        start = time.perf_counter()
        wl.make()
        make_s.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.unit = "warmup"
    clock = Clock(args.seconds, args.ops, tracer)
    crashed = False
    try:
        wl.run(clock)
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        if tracer is not None:
            tracer.uninstall()

    # read before the checks, so that what they allocate cannot set the peak
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    failures = ["an op raised"] if crashed else wl.check()
    check_s = time.perf_counter() - start
    # the warm-up op, the timed ops, then the op that raised or the check ops
    attempted = 1 + len(clock.durations) + (1 if crashed else wl.check_ops)
    failed = int(crashed or bool(failures))

    durations = clock.durations
    if tracer is None:
        metrics = {
            "setup_s": (import_s + reference.median(make_s) + (clock.warmup_s or 0.0), "s"),
            "op_ms": (reference.median(durations) * 1000.0 if durations else 0.0, "ms"),
            "items_per_s": (wl.items_per_op * len(durations) / sum(durations)
                            if durations else 0.0, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        on = [d for d, t in zip(durations, clock.traced) if t]
        off = [d for d, t in zip(durations, clock.traced) if not t]
        overhead = (reference.median(on) - reference.median(off)) * 1000.0 if on and off else 0.0
        op_units = [f"op{i}" for i, t in enumerate(clock.traced[:len(durations)]) if t]
        metrics = tracer.per_layer(op_units, [f"setup{k}" for k in range(SETUP_REPEATS)],
                                   overhead)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}{'  tiny' if args.tiny else ''}")
    print(f"# git {git_describe()}  python {sys.version.split()[0]}"
          f"  numpy {numpy.__version__}  scipy {scipy.__version__}"
          f"  blas {blas.get('name')} {blas.get('version')}  threads {blas_threads()}")
    print(f"# ops: 1 warm-up, {len(durations)} timed, {wl.check_ops} check;"
          f" attempted {attempted}, failed {failed}")
    print(f"# seconds: set-up repetitions {make_s!r}, warm-up {clock.warmup_s!r},"
          f" check {check_s!r}")
    print(f"# seconds per timed op {durations!r}")
    for note in failures:
        print(f"# FAILED: {note}")
    if not crashed:
        print(f"# outputs sha256 {wl.digest()}")
        for key, value in wl.notes.items():
            print(f"# {key} {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
