"""Benchmark of gramsynth: time to a synthesized control, set-up, memory.

Run from the repository root:

    python3 perfbench/run.py --workload hopfield-me --seed 1 --seconds 60 --trace 0

One run synthesizes the workload's control with `run_picard` from the zero
control until a tolerance fires, as many whole syntheses as fit in
``--seconds`` (at least one), and checks every control
against references computed apart from gramsynth (see checks.py).  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones, from one synthesis timed plain and one
traced (see tracing.py).  The last line of standard output is one JSON
object; a run record goes to perfbench/results/.
"""

import os

# Pinned before numpy is first loaded, in this process and its children.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("hopfield-me", "mindy24-under-me", "mindy64-general")
# Fresh processes timed for set-up, besides the run's own process.
SETUP_PROBES = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it as JSON")
    return ap.parse_args(argv)


def set_up(name, seed):
    """Import gramsynth and build the workload's inputs, timing both."""
    if not (ROOT / "src" / "gramsynth" / "__init__.py").is_file():
        raise SystemExit(f"gramsynth sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tic = time.perf_counter()
    import gramsynth  # noqa: F401
    import_s = time.perf_counter() - tic
    import workloads
    tic = time.perf_counter()
    workload = workloads.build(name, seed)
    inputs_s = time.perf_counter() - tic
    return workload, {"import_s": import_s, "inputs_s": inputs_s}


def probe_setup(name, seed):
    """Set-up times of fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def host_steal_s():
    """Steal time of the whole host so far, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def synthesize(problem, config):
    """One synthesis; returns a dict with the control or the failure."""
    from gramsynth import run_picard

    tic = time.perf_counter()
    cpu = time.process_time()
    error = None
    try:
        u, records, status = run_picard(problem, config)
    except Exception:  # a failed synthesis is counted, not fatal
        error = traceback.format_exc()
    out = {"synth_s": time.perf_counter() - tic,
           "cpu_s": time.process_time() - cpu,
           # the process's peak so far
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if error is not None:
        out.update(ok=False, error=error)
        return out
    out.update(control=u, criterion=status.criterion,
               passes=status.iterations,
               telemetry=[vars(r) for r in records],
               ok=status.criterion != "max_iterations")
    if not out["ok"]:
        out["error"] = f"stopped on the pass budget: {status.message}"
    return out


def traced_synthesis(workload):
    import tracing

    tracer = tracing.Tracer()
    problem = tracer.counted_problem(workload.problem)
    with tracing.installed(tracer), tracer.span(tracing.ROOT):
        out = synthesize(problem, workload.config)
    out["tracer"] = tracer
    return out


def rounds(fn, seconds):
    """As many whole syntheses as fit in ``seconds``, at least one.

    Another synthesis starts only while the time so far plus the last
    synthesis's time stays within ``seconds``.
    """
    out = [fn()]
    while (sum(r["synth_s"] for r in out) + out[-1]["synth_s"]) <= seconds:
        out.append(fn())
    return out


def git_sha():
    if not (ROOT / ".git").exists():   # a plain checkout of the files
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment():
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "cpu_model": cpu_model, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    args = parse_args(argv)
    steal0 = host_steal_s()
    workload, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    from checks import Checks

    # A traced run times one synthesis plain and one traced, whatever
    # --seconds says: its figures are per layer, not end to end.
    plain = rounds(lambda: synthesize(workload.problem, workload.config),
                   0.0 if args.trace else args.seconds)
    traced = [traced_synthesis(workload)] if args.trace else []

    checks = Checks(workload)
    for r in plain + traced:
        if r["ok"]:
            r["checks"] = checks.run(r["control"])
            if not all(c["ok"] for c in r["checks"].values()):
                r["ok"] = False
                r["error"] = "a correctness check failed"
    good = [r for r in plain + traced if r["ok"]]
    self_test = checks.self_test(good[0]["control"]) if good else {}
    setups = [own_setup] + probe_setup(args.workload, args.seed)
    setup_s = median([s["import_s"] + s["inputs_s"] for s in setups])

    attempted = len(plain) + len(traced)
    failed = attempted - len(good)
    plain_ok = [r for r in plain if r["ok"]]
    traced_ok = [r for r in traced if r["ok"]]
    if not args.trace:
        values = {"synth_s": median([r["synth_s"] for r in plain_ok])
                  if plain_ok else float("nan"),
                  "setup_s": setup_s,
                  # after the first synthesis, so that later ones, whose
                  # number depends on timing, cannot move it
                  "peak_rss_mb": plain[0]["peak_rss_mb"]}
    elif plain_ok and traced_ok:
        plain_1, traced_1 = plain_ok[0], traced_ok[0]
        values = traced_1["tracer"].metrics()
        values.update({
            "process.cpu_s": plain_1["cpu_s"],
            "setup.import_s": median([s["import_s"] for s in setups]),
            "setup.inputs_s": median([s["inputs_s"] for s in setups]),
            "trace.overhead_s": traced_1["synth_s"] - plain_1["synth_s"]})
    else:
        values = {}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values.get(name, float("nan")), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": bool(self_test) and all(self_test.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}

    write_record(args, workload, {
        "environment": environment(),
        "host_steal_s": (None if steal0 is None
                         else host_steal_s() - steal0),
        "setup": setups, "self_test": self_test,
        "absent": traced[0]["tracer"].absent if traced else [],
        "syntheses": ([record_of(r, traced=False) for r in plain]
                      + [record_of(r, traced=True) for r in traced]),
        "result": result})
    print(json.dumps(result))
    return 0


def record_of(r, traced):
    rec = {k: v for k, v in r.items() if k not in ("control", "tracer")}
    rec["traced"] = traced
    if traced:
        rec["trace"] = r["tracer"].record()
    return rec


def write_record(args, workload, body):
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
                      f"{stamp}_{os.getpid()}.json")
    body = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "make_up": workload.make_up(), **body}
    path.write_text(json.dumps(body, indent=1, default=float))


if __name__ == "__main__":
    sys.exit(main())
