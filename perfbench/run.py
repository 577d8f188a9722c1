"""Benchmark of the gibbsmarkov library: one workload per run.

    python3 perfbench/run.py --workload {highorder,wide,local} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's jobs in sequence (a closed loop),
round-robin, until ``--seconds`` seconds are spent, and checks every job's
output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Job outputs (and, traced, the spans) are written to ``.perfbench_out/`` so
that two commits can be diffed.  README.md next to this file says what each
workload and metric is for.
"""

import os

# The BLAS thread cap has to be in the environment before numpy is first
# imported.  One thread is the plain single-threaded baseline and never
# exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# Float outputs are compared with the reference only for this seed; cluster
# counts are compared for every seed.
REFERENCE_SEED = 0

# Set-up is sampled this many times before the timed passes and as many
# times after them, so that its median spans the run; the median is reported.
SETUP_SAMPLES = 4

WORKLOADS = ("highorder", "wide", "local")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import gibbsmarkov.expansion, gibbsmarkov.random_models; "
    "print(time.perf_counter() - t)"
)


def sample_setup(workload: str, seed: int, imports: list, builds: list) -> dict:
    """Take SETUP_SAMPLES samples of the two parts of set-up: importing the
    package (numpy included) in a fresh interpreter with this run's
    environment, and building or loading and validating every model of the
    workload.  Returns the models."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        imports.append(float(done.stdout.strip().splitlines()[-1]))
        start = time.perf_counter()
        models = workloads.build_models(workload, seed)
        builds.append(time.perf_counter() - start)
    return models


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_job(job, models, reference: dict, check_floats: bool):
    """Run one job and check it.  Returns (seconds, record, failed)."""
    import workloads

    start = time.perf_counter()
    try:
        values, scales, checks = job.run(models)
    except Exception:  # a job that raises counts as failed; go on
        seconds = time.perf_counter() - start
        record = {"error": traceback.format_exc()}
        print(f"job {job.name!r} raised:\n{record['error']}", file=sys.stderr)
        return seconds, record, True
    seconds = time.perf_counter() - start
    ref = reference.get(job.name)
    if ref is None:
        checks.append(("reference", False, "no reference recorded for this job"))
    else:
        checks += workloads.compare(values, ref["values"], ref["scales"], check_floats)
    bad = [c for c in checks if not c[1]]
    for label, _, detail in bad:
        print(f"job {job.name!r} failed {label}: {detail}", file=sys.stderr)
    return seconds, {"values": values, "scales": scales, "checks": checks}, bool(bad)


def run_pass(jobs, models, reference: dict, check_floats: bool):
    """Run every job once.  Returns (seconds per job, records, failed)."""
    seconds, records, failed = [], {}, 0
    for job in jobs:
        t, records[job.name], bad = run_job(job, models, reference, check_floats)
        seconds.append(t)
        failed += bad
    return seconds, records, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "gibbsmarkov" / "__init__.py").is_file():
        print(f"no gibbsmarkov package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    start = time.perf_counter()
    imports, builds = [], []
    models = sample_setup(args.workload, args.seed, imports, builds)
    # Leave room for the set-up samples taken after the passes.
    deadline = start + args.seconds - (time.perf_counter() - start)

    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    jobs = workloads.JOBS[args.workload]
    check_floats = args.seed == REFERENCE_SEED
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"

    if args.trace:
        # One untraced pass for the overhead baseline, then one traced pass.
        untraced = run_pass(jobs, models, reference, check_floats)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = run_pass(jobs, models, reference, check_floats)
        tracer.write(stem.with_name(stem.name + "-spans.json.gz"))
        values = tracing.layer_metrics(tracer, sum(traced[0]), sum(untraced[0]))
        units = tracing.PER_LAYER_UNITS
        records = untraced[1]
        attempted, failed = 2 * len(jobs), untraced[2] + traced[2]
    else:
        # The jobs run round-robin.  After the first pass, a job runs only if
        # its last time still fits before the deadline; the run ends when no
        # job fits.
        samples = {job.name: [] for job in jobs}
        records, attempted, failed = {}, 0, 0
        ran = True
        while ran:
            ran = False
            for job in jobs:
                past = samples[job.name]
                if past and time.perf_counter() + past[-1] > deadline:
                    continue
                t, record, bad = run_job(job, models, reference, check_floats)
                past.append(t)
                records.setdefault(job.name, record)
                attempted += 1
                failed += bad
                ran = True
        sample_setup(args.workload, args.seed, imports, builds)
        # Other work on the machine slows single runs of a job by up to half
        # for seconds at a time; the median over many short runs is steady.
        values = {
            "wall_s": sum(statistics.median(s) for s in samples.values()),
            "setup_s": statistics.median(imports) + statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    env = environment()
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "env": env, "jobs": records,
             "seconds": samples if not args.trace else None},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} failed_share={failed}/{attempted}")
    if not args.trace:
        for name, times in samples.items():
            print(f"# {name}: {len(times)} runs, median {statistics.median(times):.4f} s, "
                  f"fastest {min(times):.4f} s")
    for name, value in values.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
