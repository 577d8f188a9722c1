"""Command-line frontend.

Subcommands: clusters, effham, logz, reduced, observable, entropy, cmi,
bound, verify.  Human-readable tables go to stdout; ``--out`` writes the same
data as JSON.  Every run starts with a provenance block echoing the effective
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, ed
from .bounds import (
    critical_beta,
    finite_range_cmi_bound,
    power_law_cmi_bound,
    recovery_error_bound,
    surface_region,
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
from .spin_model import FiniteRange, ModelError, load_model
from .operators import SupportedOperator
from .verify import SUITES, run_suite


def _vertex_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model file (JSON)")
    p.add_argument("--beta", type=float, default=None, help="override model beta")
    p.add_argument(
        "--rescale",
        action="store_true",
        help="rescale terms (and beta) instead of rejecting over-normalized models",
    )


def _load(args):
    ham = load_model(args.model, rescale=args.rescale)
    if args.beta is not None:
        ham = ham.with_beta(args.beta)
    return ham


# The series subcommands, which take --order, and their default orders.
DEFAULT_ORDER = {
    "effham": 2, "reduced": 2, "observable": 2, "entropy": 2, "cmi": 3, "logz": 4,
}


def _pick_order(ham, args) -> int:
    """--order, else the smallest order whose certificate on --region is
    <= n*epsilon, else the subcommand's default."""
    order = args.order
    if order is None and getattr(args, "epsilon", None) is not None:
        region = _vertex_list(args.region)
        target = args.epsilon * ham.graph.vertex_count
        for m0 in range(0, 32):
            value, valid = truncation_certificate(ham, region, m0)
            if valid and value <= target:
                order = m0
                break
        else:
            raise SystemExit("no order up to 31 meets the epsilon target")
    if order is None:
        order = DEFAULT_ORDER[args.command]
    return order


def _provenance(args, ham=None) -> dict:
    block = {"version": __version__, "command": args.command}
    for key in ("seed", "ed_limit"):
        if hasattr(args, key):
            block[key] = getattr(args, key)
    if ham is not None:
        block["beta"] = ham.beta
        block["beta_c"] = critical_beta(ham.k)
        block["n_vertices"] = ham.graph.vertex_count
        block["n_terms"] = len(ham.terms)
    return block


def _emit(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _print_provenance(block: dict) -> None:
    print("# provenance")
    for key in sorted(block):
        print(f"#   {key} = {block[key]}")


def cmd_clusters(args) -> int:
    ham = _load(args)
    anchor = _vertex_list(args.anchor)
    comp = tuple(
        v for v in range(ham.graph.vertex_count) if v not in set(anchor)
    )
    prov = _provenance(args, ham)
    _print_provenance(prov)
    rows = []
    print(f"{'m':>3} {'count':>10} {'bound':>14}")
    for m in range(1, args.max_order + 1):
        count = sum(1 for _ in enumerate_connected_to_region(ham, anchor, m))
        bound = counting_bound(ham, len(comp), m)
        rows.append({"m": m, "count": count, "bound": bound})
        print(f"{m:>3} {count:>10} {bound:>14.4e}")
    _emit(args, {"provenance": prov, "anchor": list(anchor), "rows": rows})
    return 0


def cmd_effham(args) -> int:
    ham = _load(args)
    region = _vertex_list(args.region)
    order = _pick_order(ham, args)
    res = effective_hamiltonian(ham, region, order, ed_limit=args.ed_limit)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"region: {list(res.region)}  order: {order}")
    print(f"scalar part (-1/beta log Z_complement): {res.scalar_part:.12e} [{res.scalar_provenance}]")
    norms = res.per_order_norms()
    print(f"{'m':>3} {'clusters':>9} {'norm sum':>14}")
    for m in sorted(norms):
        print(f"{m:>3} {len(res.boundary_terms[m]):>9} {norms[m]:>14.6e}")
    status = "rigorous" if res.certificate_valid else "NON-RIGOROUS (beta >= beta_c)"
    print(f"truncation certificate: {res.truncation_error:.6e} [{status}]")
    payload = {
        "provenance": prov,
        "region": list(res.region),
        "order": order,
        "scalar_part": res.scalar_part,
        "scalar_provenance": res.scalar_provenance,
        "per_order_norms": {str(m): v for m, v in norms.items()},
        "certificate": res.truncation_error,
        "certificate_valid": res.certificate_valid,
    }
    if ham.graph.vertex_count <= args.ed_limit:
        st = ed.exact_gibbs(ham, limit=args.ed_limit)
        exact = ed.exact_effective_hamiltonian(st, res.region)
        err = float(np.linalg.norm(res.effective_operator().matrix - exact.matrix, 2))
        print(f"ED comparison: |H_eff - exact| = {err:.6e}")
        payload["ed_error"] = err
    _emit(args, payload)
    return 0


def cmd_logz(args) -> int:
    ham = _load(args)
    order = _pick_order(ham, args)
    value, cert, valid = log_partition_function(ham, order)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"log Z series (order {order}): {value:.12e}")
    status = "rigorous" if valid else "NON-RIGOROUS (beta >= beta_c)"
    print(f"certificate: {cert:.6e} [{status}]")
    payload = {
        "provenance": prov,
        "order": order,
        "log_z": value,
        "certificate": cert,
        "certificate_valid": valid,
    }
    if ham.graph.vertex_count <= args.ed_limit:
        st = ed.exact_gibbs(ham, limit=args.ed_limit)
        print(f"ED comparison: log Z = {st.log_z:.12e}  |gap| = {abs(value - st.log_z):.6e}")
        payload["ed_log_z"] = st.log_z
    _emit(args, payload)
    return 0


def cmd_reduced(args) -> int:
    ham = _load(args)
    region = _vertex_list(args.region)
    order = _pick_order(ham, args)
    state, res = reduced_state(ham, region, order)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"reduced state on {list(region)} at order {order}")
    evals = np.linalg.eigvalsh(state.matrix)
    print(f"eigenvalues: {np.array2string(evals, precision=8)}")
    payload = {
        "provenance": prov,
        "region": list(region),
        "order": order,
        "eigenvalues": [float(x) for x in evals],
        "matrix": [[ [z.real, z.imag] for z in row] for row in state.matrix],
    }
    _emit(args, payload)
    return 0


def cmd_observable(args) -> int:
    ham = _load(args)
    support = _vertex_list(args.support)
    from .spin_model import PAULI

    mat = None
    for ch in args.pauli:
        p = PAULI[ch.upper()]
        mat = p if mat is None else np.kron(mat, p)
    obs = SupportedOperator(support, args.coeff * mat, local_dim=ham.local_dim)
    order = _pick_order(ham, args)
    value, cert, valid = local_observable(ham, obs, order, pad=args.pad)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"<{args.coeff}*{args.pauli} on {list(support)}> = {value:.12e}")
    status = "rigorous" if valid else "NON-RIGOROUS"
    print(f"error certificate: {cert:.6e} [{status}]")
    _emit(args, {"provenance": prov, "value": value, "certificate": cert,
                 "certificate_valid": valid})
    return 0


def cmd_entropy(args) -> int:
    ham = _load(args)
    region = _vertex_list(args.region)
    order = _pick_order(ham, args)
    value, cert, valid = local_entropy(ham, region, order)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"entropy of {list(region)} at order {order}: {value:.12e} nats")
    status = "rigorous" if valid else "NON-RIGOROUS"
    print(f"error certificate: {cert:.6e} [{status}]")
    _emit(args, {"provenance": prov, "region": list(region), "order": order,
                 "entropy": value, "certificate": cert, "certificate_valid": valid})
    return 0


def cmd_cmi(args) -> int:
    ham = _load(args)
    a = _vertex_list(args.A)
    b = _vertex_list(args.B)
    c = _vertex_list(args.C)
    order = _pick_order(ham, args)
    st = None
    if ham.graph.vertex_count <= args.ed_limit:
        st = ed.exact_gibbs(ham, limit=args.ed_limit)
    res = cmi_expansion(ham, a, b, c, order, gibbs_state=st)
    prov = _provenance(args, ham)
    _print_provenance(prov)
    print(f"A={list(a)} B={list(b)} C={list(c)}  order={order}")
    print(f"{'m':>3} {'norm sum':>14} {'order bound':>14}")
    for m in sorted(res.per_order_norm_sums):
        ob = cmi_order_norm_bound(ham, a, c, m)
        print(f"{m:>3} {res.per_order_norm_sums[m]:>14.6e} {ob:>14.6e}")
    print(f"||H(A:C|B)|| truncated: {res.operator_norm:.6e}")
    beta_c = critical_beta(ham.k)
    d_ac = ham.graph.distance(a, c)
    surf = min(
        len(surface_region(ham.graph, a, ham.range_r)),
        len(surface_region(ham.graph, c, ham.range_r)),
    )
    if isinstance(ham.interaction_class, FiniteRange):
        rep = finite_range_cmi_bound(surf, ham.beta, beta_c, d_ac, ham.range_r)
    else:
        rep = power_law_cmi_bound(
            min(len(a), len(c)), ham.beta, ham.k, ham.interaction_class.alpha, d_ac
        )
    print(str(rep))
    payload = {
        "provenance": prov,
        "order": order,
        "per_order_norm_sums": {str(m): v for m, v in res.per_order_norm_sums.items()},
        "operator_norm": res.operator_norm,
        "bound": {"name": rep.name, "value": rep.value, "valid": rep.valid,
                  "reason": rep.reason},
    }
    if res.cmi_estimate is not None:
        exact = ed.exact_cmi(st, a, b, c)
        print(f"tr(rho H) estimate: {res.cmi_estimate:.6e}   ED exact CMI: {exact:.6e}")
        print(f"recovery error bound from estimate: {recovery_error_bound(max(res.cmi_estimate, 0.0)):.6e}")
        payload["cmi_estimate"] = res.cmi_estimate
        payload["ed_cmi"] = exact
    _emit(args, payload)
    return 0


def cmd_bound(args) -> int:
    prov = _provenance(args)
    _print_provenance(prov)
    beta_c = critical_beta(args.k)
    rows = []
    if args.kind in ("finite_range", "both"):
        rep = finite_range_cmi_bound(
            args.min_surface, args.beta, beta_c, args.d_ac, args.r
        )
        rows.append(rep)
    if args.kind in ("power_law", "both"):
        rep = power_law_cmi_bound(args.min_ac, args.beta, args.k, args.alpha, args.d_ac)
        rows.append(rep)
    for rep in rows:
        print(str(rep))
        if rep.valid:
            print(f"  recovery error bound: {recovery_error_bound(rep.value):.6e}")
    _emit(args, {"provenance": prov, "rows": [
        {"name": r.name, "value": r.value, "valid": r.valid, "reason": r.reason,
         "inputs": r.inputs} for r in rows]})
    return 0


def cmd_verify(args) -> int:
    prov = _provenance(args)
    _print_provenance(prov)
    names = SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    reports = {}
    for name in names:
        ok, report = run_suite(name, args.seed)
        all_ok = all_ok and ok
        reports[name] = report
        sys.stdout.write(report)
    _emit(args, {"provenance": prov, "ok": all_ok, "reports": reports})
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gibbsmarkov",
        description="Cluster expansion of quantum Gibbs states with rigorous certificates",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clusters", help="cluster counts per order with the counting bound")
    _add_model(p)
    p.add_argument("--anchor", required=True, help="comma-separated anchor vertices")
    p.add_argument("--max-order", type=int, default=3)
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("effham", help="truncated effective Hamiltonian of a region")
    _add_model(p)
    p.add_argument("--region", required=True, help="comma-separated vertices")
    p.set_defaults(func=cmd_effham)

    p = sub.add_parser("logz", help="log partition function series")
    _add_model(p)
    p.set_defaults(func=cmd_logz)

    p = sub.add_parser("reduced", help="truncated reduced Gibbs state")
    _add_model(p)
    p.add_argument("--region", required=True)
    p.set_defaults(func=cmd_reduced)

    p = sub.add_parser("observable", help="local observable expectation")
    _add_model(p)
    p.add_argument("--support", required=True)
    p.add_argument("--pauli", required=True, help="Pauli string, e.g. ZZ")
    p.add_argument("--coeff", type=float, default=1.0)
    p.add_argument("--pad", type=int, default=0, help="grow the region by this many hops")
    p.set_defaults(func=cmd_observable)

    p = sub.add_parser("entropy", help="local entropy of a region")
    _add_model(p)
    p.add_argument("--region", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("cmi", help="conditional-mutual-information expansion and bounds")
    _add_model(p)
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
        return args.func(args)
    except ModelError as exc:
        raise SystemExit(f"gibbsmarkov {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
