"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

1. Checks that the gate catches a changed output: the recorded reference
   itself passes, while a reference float moved by one part in 1e9 (among
   them order-5 entries) or a CMI estimate moved by one part in 1e3, a
   cluster count moved by one at another seed, or order-5 cluster
   derivatives off by one part in 1e6 make the job count as failed.
2. Runs each named workload (default: all) once untraced and once traced at
   seed 0, and checks that the result line carries exactly the metrics that
   BENCHMARK.json declares, each with its declared unit, and no failed job.

Exits non-zero on the first problem found.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread cap before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (workload, job, output, entry, shift, seed): the reference entry is moved
# by the relative shift (a float, at the reference seed) or by one (a count).
# tr(rho H) is left after large terms cancel; it is compared on their scale,
# which is 1e-4 of its value for powerlaw_chain6.
MOVED_REFERENCE = (
    ("local", "reduced chain12 L=5,6 order3", "eigenvalues", 0, 1e-9, run.REFERENCE_SEED),
    ("local", "cmi powerlaw_chain6 A=0 B=1,2 C=3,4,5 order3", "cmi_estimate", None, 1e-3,
     run.REFERENCE_SEED),
    ("highorder", "effham chain3 L=1 order5", "per_order_norms", 4, 1e-9, run.REFERENCE_SEED),
    ("highorder", "cmi chain4 A=0 B=1,2 C=3 order5", "per_order_norm_sums", 4, 1e-9,
     run.REFERENCE_SEED),
    ("wide", "clusters grid4x4 anchor=5,6 m<=4", "counts", 0, None, run.REFERENCE_SEED + 1),
)

# Jobs that must fail when every order-5 cluster derivative is off by 1e-6.
WRONG_ORDER5 = (
    ("highorder", "effham chain3 L=1 order5"),
    ("highorder", "cmi chain4 A=0 B=1,2 C=3 order5"),
)


def _job(workloads, workload, name):
    return next(j for j in workloads.JOBS[workload] if j.name == name)


def _moved(value, entry, shift):
    if entry is not None:
        value = list(value)
        value[entry] = _moved(value[entry], None, shift)
        return value
    return value * (1 + shift) if isinstance(value, float) else value + 1


def check_gate() -> None:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from gibbsmarkov import derivatives, expansion

    reference = json.loads(run.REFERENCE.read_text())
    for workload, name, key, entry, shift, seed in MOVED_REFERENCE:
        job = _job(workloads, workload, name)
        models = workloads.build_models(workload, seed)
        floats = seed == run.REFERENCE_SEED
        ref = reference[workload]
        _, _, failed = run.run_pass([job], models, ref, floats)
        if failed:
            raise SystemExit(f"{name!r} fails against its own reference")
        moved = copy.deepcopy(ref)
        values = moved[name]["values"]
        values[key] = _moved(values[key], entry, shift)
        _, _, failed = run.run_pass([job], models, moved, floats)
        if failed != 1:
            raise SystemExit(f"{name!r} passed with its reference {key}[{entry}] moved")
        print(f"ok   {name!r} (seed {seed}) fails with its reference {key}[{entry}] moved")

    # A derivative layer that is slightly wrong at m=5 only.  expansion
    # imported cluster_derivative by name, so both modules are patched.
    exact = derivatives.cluster_derivative

    def off_at_order5(ham, cluster, *args, **kw):
        out = exact(ham, cluster, *args, **kw)
        return out * (1 + 1e-6) if cluster.size == 5 else out

    for workload, name in WRONG_ORDER5:
        job = _job(workloads, workload, name)
        models = workloads.build_models(workload, run.REFERENCE_SEED)
        derivatives.cluster_derivative = expansion.cluster_derivative = off_at_order5
        try:
            _, _, failed = run.run_pass([job], models, reference[workload], True)
        finally:
            derivatives.cluster_derivative = expansion.cluster_derivative = exact
        if failed != 1:
            raise SystemExit(f"{name!r} passed with its order-5 derivatives off by 1e-6")
        print(f"ok   {name!r} fails with its order-5 derivatives off by 1e-6")


def check_metrics(workloads) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = set(declared[trace]) ^ set(printed)
                raise SystemExit(f"{workload} trace={trace}: metrics differ from "
                                 f"BENCHMARK.json (names {sorted(missing)}, or units)")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} trace={trace}: {result['failed']} failed jobs")
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics with units")


def main() -> int:
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    check_gate()
    check_metrics(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
