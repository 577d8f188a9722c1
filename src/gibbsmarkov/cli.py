"""Command-line frontend, a thin shell over the library.

Subcommands: clusters, effham, logz, reduced, observable, entropy, cmi,
bound, verify.  ``main`` loads the model of a model subcommand once; each
``cmd_*`` checks its inputs, computes, and hands its report lines and JSON
payload to ``_run``.  Human-readable tables go to stdout; ``--out`` writes
the same data as JSON.  Every report starts with a provenance block echoing
the effective configuration, and echoes each region as computed: sorted,
each vertex once.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, ed
from .bounds import (
    cmi_decay_bound,
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    recovery_error_bound,
)
from .clusters import counting_bound, enumerate_connected_to_region
from .expansion import (
    cmi_expansion,
    cmi_order_norm_bound,
    effective_hamiltonian,
    local_entropy,
    local_observable,
    log_partition_function,
    reduced_state,
    truncation_certificate,
)
from .spin_model import ModelError, check_integer, load_model, pauli_string
from .operators import SupportedOperator
from .verify import SUITES, run_suite


def _ids(text: str) -> tuple[int, ...]:
    """Comma-separated integers, in the order given."""
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ModelError(f"bad vertex list {text!r}: expected comma-separated integers") from None


def _vertex_list(text: str, ham) -> tuple[int, ...]:
    """Comma-separated vertex ids as ``check_regions`` returns them: sorted,
    each once, each a vertex of the model's graph."""
    return ham.graph.check_regions(_ids(text))[0]


# The series subcommands, which take --order, and their default orders.
DEFAULT_ORDER = {
    "effham": 2, "reduced": 2, "observable": 2, "entropy": 2, "cmi": 3, "logz": 4,
}


def _pick_order(ham, args) -> int:
    """--order, else the smallest order whose certificate on --region is
    <= n*epsilon, else the subcommand's default."""
    order, epsilon = args.order, getattr(args, "epsilon", None)
    if order is not None:
        order = check_integer(order, "--order", 0)
    if epsilon is not None and not epsilon > 0:
        raise ModelError(f"--epsilon must be > 0, got {epsilon}")
    if order is not None or epsilon is None:
        return DEFAULT_ORDER[args.command] if order is None else order
    region = _vertex_list(args.region, ham)
    for m0 in range(32):
        value, valid = truncation_certificate(ham, region, m0)
        if valid and value <= epsilon * ham.graph.vertex_count:
            return m0
    raise ModelError(f"no order up to 31 meets --epsilon {epsilon}")


def _exact(ham, args):
    """The ED Gibbs state for the exact comparison; None above --ed-limit sites."""
    small = ham.graph.vertex_count <= args.ed_limit
    return ed.exact_gibbs(ham, limit=args.ed_limit) if small else None


def _status(valid: bool, why: str = "") -> str:
    """The tag of a certificate line."""
    if valid:
        return "rigorous"
    return f"NON-RIGOROUS ({why})" if why else "NON-RIGOROUS"


def _run(args, ham, lines, payload: dict) -> None:
    """Print the provenance block and then the report ``lines``, and write
    the payload with the provenance to --out as JSON.  The provenance
    echoes ``seed`` and ``ed_limit`` only for the subcommands that take
    them, and the model's beta, beta_c and size when there is a model."""
    block = {"version": __version__, "command": args.command}
    block.update({key: getattr(args, key) for key in ("seed", "ed_limit") if hasattr(args, key)})
    if ham is not None:
        block.update(beta=ham.beta, beta_c=critical_beta(ham.k),
                     n_vertices=ham.graph.vertex_count, n_terms=len(ham.terms))
    head = [f"#   {key} = {block[key]}" for key in sorted(block)]
    print("\n".join(["# provenance", *head, *lines]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": block, **payload}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_clusters(args, ham) -> int:
    max_order = check_integer(args.max_order, "--max-order", 0)
    anchor = _vertex_list(args.anchor, ham)
    comp = set(range(ham.graph.vertex_count)).difference(anchor)
    rows = []
    lines = [f"{'m':>3} {'count':>10} {'bound':>14}"]
    for m in range(1, max_order + 1):
        # the clusters that touch the complement, which the bound counts:
        # the boundary clusters of effham on the same region
        clusters = enumerate_connected_to_region(ham, anchor, m)
        count = sum(1 for w in clusters if comp.intersection(w.support))
        bound = counting_bound(ham, len(comp), m)
        rows.append({"m": m, "count": count, "bound": bound})
        lines.append(f"{m:>3} {count:>10} {bound:>14.4e}")
    _run(args, ham, lines, {"anchor": list(anchor), "rows": rows})
    return 0


def cmd_effham(args, ham) -> int:
    region = _vertex_list(args.region, ham)
    order = _pick_order(ham, args)
    res = effective_hamiltonian(ham, region, order, ed_limit=args.ed_limit)
    norms = res.per_order_norms()
    lines = [
        f"region: {list(region)}  order: {order}",
        f"scalar part (-1/beta log Z_complement): {res.scalar_part:.12e} [{res.scalar_provenance}]",
        f"{'m':>3} {'clusters':>9} {'norm sum':>14}",
    ]
    lines += [f"{m:>3} {len(res.boundary_terms[m]):>9} {norms[m]:>14.6e}" for m in sorted(norms)]
    lines.append(f"truncation certificate: {res.truncation_error:.6e} "
                 f"[{_status(res.certificate_valid, 'beta >= beta_c')}]")
    payload = {
        "region": list(region),
        "order": order,
        "scalar_part": res.scalar_part,
        "scalar_provenance": res.scalar_provenance,
        "per_order_norms": {str(m): v for m, v in norms.items()},
        "certificate": res.truncation_error,
        "certificate_valid": res.certificate_valid,
    }
    st = _exact(ham, args)
    if st is not None:
        exact = ed.exact_effective_hamiltonian(st, region)
        err = float(np.linalg.norm(res.effective_operator().matrix - exact.matrix, 2))
        lines.append(f"ED comparison: |H_eff - exact| = {err:.6e}")
        payload["ed_error"] = err
    _run(args, ham, lines, payload)
    return 0


def cmd_logz(args, ham) -> int:
    order = _pick_order(ham, args)
    value, cert, valid = log_partition_function(ham, order)
    lines = [
        f"log Z series (order {order}): {value:.12e}",
        f"certificate: {cert:.6e} [{_status(valid, 'beta >= beta_c')}]",
    ]
    payload = {"order": order, "log_z": value, "certificate": cert, "certificate_valid": valid}
    st = _exact(ham, args)
    if st is not None:
        lines.append(f"ED comparison: log Z = {st.log_z:.12e}  |gap| = {abs(value - st.log_z):.6e}")
        payload["ed_log_z"] = st.log_z
    _run(args, ham, lines, payload)
    return 0


def cmd_reduced(args, ham) -> int:
    region = _vertex_list(args.region, ham)
    order = _pick_order(ham, args)
    state, _ = reduced_state(ham, region, order)
    evals = np.linalg.eigvalsh(state.matrix)
    lines = [
        f"reduced state on {list(region)} at order {order}",
        f"eigenvalues: {np.array2string(evals, precision=8)}",
    ]
    _run(args, ham, lines, {
        "region": list(region),
        "order": order,
        "eigenvalues": [float(x) for x in evals],
        "matrix": [[[z.real, z.imag] for z in row] for row in state.matrix],
    })
    return 0


def cmd_observable(args, ham) -> int:
    support, letters, mat = pauli_string(_ids(args.support), args.pauli.upper(), ham.local_dim)
    obs = SupportedOperator(support, args.coeff * mat, local_dim=ham.local_dim)
    order = _pick_order(ham, args)
    value, cert, valid = local_observable(ham, obs, order, pad=args.pad)
    lines = [
        f"<{args.coeff}*{letters} on {list(support)}> = {value:.12e}",
        f"error certificate: {cert:.6e} [{_status(valid)}]",
    ]
    _run(args, ham, lines, {"value": value, "certificate": cert, "certificate_valid": valid})
    return 0


def cmd_entropy(args, ham) -> int:
    region = _vertex_list(args.region, ham)
    order = _pick_order(ham, args)
    value, cert, valid = local_entropy(ham, region, order)
    lines = [
        f"entropy of {list(region)} at order {order}: {value:.12e} nats",
        f"error certificate: {cert:.6e} [{_status(valid)}]",
    ]
    _run(args, ham, lines, {"region": list(region), "order": order, "entropy": value,
                            "certificate": cert, "certificate_valid": valid})
    return 0


def cmd_cmi(args, ham) -> int:
    a, b, c = ham.graph.check_regions(_ids(args.A), _ids(args.B), _ids(args.C))
    order = _pick_order(ham, args)
    st = _exact(ham, args)
    res = cmi_expansion(ham, a, b, c, order, gibbs_state=st)
    rep = cmi_decay_bound(ham, a, c)
    lines = [
        f"A={list(a)} B={list(b)} C={list(c)}  order={order}",
        f"{'m':>3} {'norm sum':>14} {'order bound':>14}",
    ]
    lines += [
        f"{m:>3} {norm:>14.6e} {cmi_order_norm_bound(ham, a, c, m):>14.6e}"
        for m, norm in sorted(res.per_order_norm_sums.items())
    ]
    lines += [f"||H(A:C|B)|| truncated: {res.operator_norm:.6e}", str(rep)]
    payload = {
        "order": order,
        "per_order_norm_sums": {str(m): v for m, v in res.per_order_norm_sums.items()},
        "operator_norm": res.operator_norm,
        "bound": {"name": rep.name, "value": rep.value, "valid": rep.valid,
                  "reason": rep.reason},
    }
    if res.cmi_estimate is not None:
        exact = ed.exact_cmi(st, a, b, c)
        floor = ed.exact_cmi_floor(ham.local_dim, len(a + b + c))
        marks = [ed.roundoff_mark(value, ham.local_dim, len(a + b + c))
                 for value in (res.cmi_estimate, exact)]
        lines.append(f"tr(rho H) estimate: {res.cmi_estimate:.6e}{marks[0]}"
                     f"   ED exact CMI: {exact:.6e}{marks[1]}")
        lines.append(f"ED round-off floor: {floor:.6e}")
        # a CMI below the floor is round-off: the bound reads the floor
        lines.append("recovery error bound from max(ED CMI, floor): "
                     f"{recovery_error_bound(max(exact, floor)):.6e}")
        payload["cmi_estimate"] = res.cmi_estimate
        payload["ed_cmi"] = exact
        payload["ed_cmi_floor"] = floor
    _run(args, ham, lines, payload)
    return 0


def cmd_bound(args, ham) -> int:
    rows = []
    if args.kind in ("finite_range", "both"):
        rows.append(finite_range_cmi_bound(
            args.min_surface, args.beta, critical_beta(args.k), args.d_ac, args.r
        ))
    if args.kind in ("power_law", "both"):
        rows.append(power_law_cmi_bound(args.min_ac, args.beta, args.k, args.alpha, args.d_ac))
    lines = []
    for rep in rows:
        lines.append(str(rep))
        if rep.valid:
            lines.append(f"  recovery error bound: {recovery_error_bound(rep.value):.6e}")
    _run(args, ham, lines, {"rows": [dataclasses.asdict(rep) for rep in rows]})
    return 0


def cmd_verify(args, ham) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    results = {name: run_suite(name, args.seed) for name in names}
    reports = {name: report for name, (_, report) in results.items()}
    all_ok = all(ok for ok, _ in results.values())
    _run(args, ham, "".join(reports.values()).splitlines(), {"ok": all_ok, "reports": reports})
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gibbsmarkov",
        description="Cluster expansion of quantum Gibbs states with rigorous certificates",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    # the model flags come first in a model subcommand's --help
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, help="model file (JSON)")
    model.add_argument("--beta", type=float, default=None, help="override model beta")
    model.add_argument(
        "--rescale",
        action="store_true",
        help="rescale terms (and beta) instead of rejecting over-normalized models",
    )

    p = sub.add_parser("clusters", parents=[model],
                       help="boundary-cluster counts per order with the counting bound")
    p.add_argument("--anchor", required=True, help="comma-separated anchor vertices")
    p.add_argument("--max-order", type=int, default=3)
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("effham", parents=[model], help="truncated effective Hamiltonian of a region")
    p.add_argument("--region", required=True, help="comma-separated vertices")
    p.set_defaults(func=cmd_effham)

    p = sub.add_parser("logz", parents=[model], help="log partition function series")
    p.set_defaults(func=cmd_logz)

    p = sub.add_parser("reduced", parents=[model], help="truncated reduced Gibbs state")
    p.add_argument("--region", required=True)
    p.set_defaults(func=cmd_reduced)

    p = sub.add_parser("observable", parents=[model], help="local observable expectation")
    p.add_argument("--support", required=True)
    p.add_argument("--pauli", required=True, help="Pauli string, e.g. ZZ")
    p.add_argument("--coeff", type=float, default=1.0)
    p.add_argument("--pad", type=int, default=0, help="grow the region by this many hops")
    p.set_defaults(func=cmd_observable)

    p = sub.add_parser("entropy", parents=[model], help="local entropy of a region")
    p.add_argument("--region", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("cmi", parents=[model],
                       help="conditional-mutual-information expansion and bounds")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True, help="may be empty for mutual information")
    p.add_argument("--C", required=True)
    p.set_defaults(func=cmd_cmi)

    p = sub.add_parser("bound", help="closed-form bound evaluation")
    p.add_argument("--beta", type=float, default=1e-3, help="inverse temperature")
    p.add_argument("--kind", choices=("finite_range", "power_law", "both"),
                   default="finite_range")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--d-ac", type=float, default=2.0, dest="d_ac")
    p.add_argument("--min-surface", type=int, default=1)
    p.add_argument("--min-ac", type=int, default=1)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="randomized property suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    for name, p in sub.choices.items():
        p.add_argument("--out", default=None, help="write JSON result here")
        if name in ("effham", "logz", "cmi"):
            p.add_argument(
                "--ed-limit",
                type=int,
                default=ed.DEFAULT_ED_LIMIT,
                help="largest system the ED oracle will attempt",
            )
        if name in DEFAULT_ORDER:
            p.add_argument("--order", type=int, default=None, help="truncation order m0")
        if name in ("effham", "reduced", "entropy"):
            p.add_argument(
                "--epsilon",
                type=float,
                default=None,
                help="pick the smallest order whose certificate on --region is <= n*epsilon",
            )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ham = None
        if hasattr(args, "model"):
            ham = load_model(args.model, rescale=args.rescale)
            if args.beta is not None:
                ham = ham.with_beta(args.beta)
        return args.func(args, ham)
    except ModelError as exc:
        raise SystemExit(f"gibbsmarkov {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
