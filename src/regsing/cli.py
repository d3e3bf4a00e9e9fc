"""Command-line entry point.

Subcommands map onto the verified claims:

  sample   draw one configuration-model multigraph
  exact    exact kernel-vector census (key sum -> 1)
  oracle   walk identity vs brute-force enumeration
  lclt     Gaussian local-limit approximation error scan
  rate     entropy rate-function certificates and negativity scans
  mc       singularity probability estimates mod p and over the rationals
  report   collate prior JSON artifacts into one summary table

All outputs are deterministic for a fixed seed: no timestamps, stable field
order, records sorted by trial index.  REGSING_OUT_DIR selects the default
artifact directory when --out is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from . import graph_model, lclt, mc_harness, rate_ldp, walk_census
from .common import GuardError, require_coprime_degree

OUT_DIR_ENV = "REGSING_OUT_DIR"


def _out_path(args, default_name: str) -> Optional[Path]:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env) / default_name
    return None


def _emit(text: str, path: Optional[Path]) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")


def _parse_primes(raw: str) -> tuple:
    try:
        primes = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"--p must be an integer or comma-separated integers, got {raw!r}")
    if not primes:
        raise ValueError("--p must list at least one prime")
    return primes


def _cmd_sample(args) -> int:
    sample = graph_model.sample_configuration(args.n, args.d, args.seed, stream=args.stream)
    a = graph_model.adjacency_from_permutation(sample)
    ext = "csv" if args.format == "csv" else "json"
    path = _out_path(args, f"sample_n{args.n}_d{args.d}_s{args.seed}_t{args.stream}.{ext}")
    if args.format == "csv":
        _emit(graph_model.adjacency_csv(a), path)
    else:
        payload = {
            "kind": "sample",
            "n": args.n,
            "d": args.d,
            "seed": args.seed,
            "stream": args.stream,
            "perm": [int(x) for x in sample.perm],
            "adjacency": [[int(x) for x in row] for row in a],
            "identical_rows": graph_model.has_identical_rows(a),
        }
        _emit(json.dumps(payload, separators=(",", ":")), path)
    return 0


def _cmd_exact(args) -> int:
    require_coprime_degree(args.p, args.d)
    counts = walk_census.walk_endpoint_counts(args.n, args.d, args.p)
    e_sum, n_sum, zero_term = walk_census.type_class_partition(
        args.n, args.d, args.p, args.b_threshold, counts
    )
    ks = e_sum + n_sum
    gap = abs(1 - ks)
    payload = {
        "kind": "exact",
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "b": args.b_threshold,
        "key_sum": str(ks),
        "key_sum_float": float(ks),
        "gap": float(gap),
        "class_e_sum": str(e_sum),
        "class_e_float": float(e_sum),
        "class_n_sum": str(n_sum),
        "class_n_float": float(n_sum),
        "zero_type_term": str(zero_term),
        "total_mass_ok": counts.total_mass_ok(),
        "parity_ok": counts.parity_ok(),
    }
    ext = "csv" if args.format == "csv" else "json"
    path = _out_path(args, f"exact_n{args.n}_d{args.d}_p{args.p}.{ext}")
    if args.format == "csv":
        rows = ["field,value"] + [f"{k},{v}" for k, v in payload.items()]
        _emit("\n".join(rows), path)
    else:
        _emit(json.dumps(payload, separators=(",", ":")), path)
    return 0


def _cmd_oracle(args) -> int:
    require_coprime_degree(args.p, args.d)
    results = walk_census.oracle_all_types(args.n, args.d, args.p)
    rows = [
        {"type": list(t), "walk_identity": predicted, "brute_force": brute}
        for t, predicted, brute in results
    ]
    all_equal = all(r["walk_identity"] == r["brute_force"] for r in rows)
    payload = {
        "kind": "oracle",
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "all_equal": all_equal,
        "types": rows,
    }
    ext = "csv" if args.format == "csv" else "json"
    path = _out_path(args, f"oracle_n{args.n}_d{args.d}_p{args.p}.{ext}")
    if args.format == "csv":
        out = ["type,walk_identity,brute_force"]
        for r in rows:
            out.append(f"\"{','.join(map(str, r['type']))}\",{r['walk_identity']},{r['brute_force']}")
        _emit("\n".join(out), path)
    else:
        _emit(json.dumps(payload, separators=(",", ":")), path)
    return 0 if all_equal else 1


def _cmd_lclt(args) -> int:
    require_coprime_degree(args.p, args.d)
    scan = lclt.lclt_error_scan(args.n, args.d, args.p, args.b_threshold)
    ext = "csv" if args.format == "csv" else "json"
    btag = f"{args.b_threshold:g}"
    path = _out_path(args, f"lclt_n{args.n}_d{args.d}_p{args.p}_b{btag}.{ext}")
    if args.format == "csv":
        _emit(lclt.scan_csv(scan), path)
    else:
        payload = {
            "kind": "lclt",
            "n": scan.n,
            "d": scan.d,
            "p": scan.p,
            "b": scan.b,
            "max_rel_error": scan.max_rel_error,
            "zero_probability_types": scan.zero_probability_types,
            "rows": [
                {"type": list(t), "exact": e, "gaussian": g, "rel_error": r}
                for t, e, g, r in scan.rows
            ],
        }
        _emit(json.dumps(payload, separators=(",", ":")), path)
    return 0


def _parse_density(raw: str, p: int) -> List[Fraction]:
    """Exact decimal entries, so a typed boundary density keeps its side."""
    toks = raw.split(",")
    try:
        for tok in toks:
            float(tok)  # keeps float syntax: no "a/b" entries
        vals = [Fraction(tok) for tok in toks]
    except ValueError:
        raise ValueError(f"--density must be comma-separated reals, got {raw!r}")
    if len(vals) != p:
        raise ValueError(f"--density must have {p} entries")
    return vals


def _cmd_rate(args) -> int:
    require_coprime_degree(args.p, args.d)
    ext = "csv" if args.format == "csv" else "json"
    if args.density is not None:
        nv = _parse_density(args.density, args.p)
        cert = rate_ldp.maxent_alpha(nv, args.d, args.p, tol=args.tol)
        stationary = rate_ldp.stationary_alpha(nv, args.d, args.p) if min(nv) > 0 else None
        payload = json.loads(rate_ldp.certificate_json(cert))
        payload["kind"] = "rate"
        payload["d"] = args.d
        payload["p"] = args.p
        payload["amgm_sum"] = rate_ldp.amgm_sum(nv, args.d, args.p)
        if stationary is not None:
            payload["stationary_rate"] = stationary.rate
            payload["stationary_moment_residual"] = stationary.moment_residual
        dtag = "-".join(f"{float(x):g}" for x in nv)
        path = _out_path(args, f"rate_d{args.d}_p{args.p}_nu{dtag}.{ext}")
        if args.format == "csv":
            rows = ["field,value"] + [f"{k},{v}" for k, v in payload.items()]
            _emit("\n".join(rows), path)
        else:
            _emit(json.dumps(payload, separators=(",", ":")), path)
        return 0
    if args.resolution is None:
        raise ValueError("rate requires --density or --resolution")
    report = rate_ldp.negativity_grid_scan(args.d, args.p, args.resolution)
    path = _out_path(args, f"ratescan_d{args.d}_p{args.p}_r{args.resolution}.{ext}")
    if args.format == "csv":
        _emit(rate_ldp.grid_scan_csv(report), path)
    else:
        payload = {
            "kind": "rate_scan",
            "d": report.d,
            "p": report.p,
            "resolution": report.resolution,
            "n_points": report.n_points,
            "n_excluded": report.n_excluded,
            "n_infeasible": report.n_infeasible,
            "n_nonconverged": report.n_nonconverged,
            "max_rate": report.max_rate,
            "argmax": list(report.argmax),
            "all_negative": report.all_negative,
        }
        _emit(json.dumps(payload, separators=(",", ":")), path)
    return 0 if report.all_negative else 1


def _cmd_mc(args) -> int:
    primes = _parse_primes(args.p)
    cfg = mc_harness.ExperimentConfig(
        n=args.n,
        d=args.d,
        primes=primes,
        trials=args.trials,
        seed=args.seed,
        parallelism=args.parallel,
    )
    summary, records = mc_harness.run_experiment(cfg)
    ptag = "-".join(str(q) for q in sorted(primes))
    base = f"mc_n{args.n}_d{args.d}_p{ptag}_t{args.trials}_s{args.seed}"
    ext = "csv" if args.format == "csv" else "json"
    path = _out_path(args, f"{base}.{ext}")
    if args.format == "csv":
        rows = ["series,fraction,wilson_low,wilson_high"]
        for p, frac, lo, hi in summary.per_prime:
            rows.append(f"singular_mod_{p},{frac!r},{lo!r},{hi!r}")
        lo, hi = summary.rational_interval
        rows.append(f"rational,{summary.rational_fraction!r},{lo!r},{hi!r}")
        _emit("\n".join(rows), path)
    else:
        payload = json.loads(summary.to_json())
        payload["kind"] = "mc"
        _emit(json.dumps(payload, separators=(",", ":")), path)
    if path is not None:
        rec_path = path.with_suffix("").with_suffix(".records.jsonl")
        rec_path.write_text(mc_harness.records_jsonl(records))
    return 0


def _report_rows(artifacts: List[dict]) -> List[dict]:
    rows: List[dict] = []
    for art in artifacts:
        kind = art.get("kind")
        if kind == "exact":
            rows.append(
                {
                    "kind": kind,
                    "claim": "expected nonzero kernel count over F_p tends to 1",
                    "parameters": f"n={art['n']} d={art['d']} p={art['p']}",
                    "value": art["key_sum_float"],
                    "detail": f"exact {art['key_sum']}, gap {art['gap']:.6g}",
                }
            )
        elif kind == "oracle":
            rows.append(
                {
                    "kind": kind,
                    "claim": "walk identity equals brute-force count for every type",
                    "parameters": f"n={art['n']} d={art['d']} p={art['p']}",
                    "value": art["all_equal"],
                    "detail": f"{len(art['types'])} types",
                }
            )
        elif kind == "lclt":
            rows.append(
                {
                    "kind": kind,
                    "claim": "gaussian point-mass approximation error on near-uniform types",
                    "parameters": f"n={art['n']} d={art['d']} p={art['p']} b={art['b']:g}",
                    "value": art["max_rel_error"],
                    "detail": f"{len(art['rows'])} types scanned",
                }
            )
        elif kind == "rate":
            rows.append(
                {
                    "kind": kind,
                    "claim": "entropy rate at a fixed density",
                    "parameters": f"d={art.get('d', '')} p={art.get('p', '')} density={art['density']}",
                    "value": art["rate"],
                    "detail": f"residual {art['residual']:.3g} converged {art['converged']}",
                }
            )
        elif kind == "rate_scan":
            rows.append(
                {
                    "kind": kind,
                    "claim": "rate strictly negative away from the two equality points",
                    "parameters": f"d={art['d']} p={art['p']} resolution={art['resolution']}",
                    "value": art["max_rate"],
                    "detail": f"{art['n_infeasible']} infeasible, {art['n_excluded']} excluded",
                }
            )
        elif kind == "mc":
            for p, stats in sorted(art["singular_mod"].items(), key=lambda kv: int(kv[0])):
                rows.append(
                    {
                        "kind": kind,
                        "claim": f"P(singular mod {p}) bounded by 1/(p-1) asymptotically",
                        "parameters": f"n={art['n']} d={art['d']} trials={art['trials']} seed={art['seed']}",
                        "value": stats["fraction"],
                        "detail": f"wilson [{stats['wilson_low']:.4f}, {stats['wilson_high']:.4f}]",
                    }
                )
            rat = art["rational"]
            rows.append(
                {
                    "kind": kind,
                    "claim": "P(singular over the rationals) vanishes as n grows",
                    "parameters": f"n={art['n']} d={art['d']} trials={art['trials']} seed={art['seed']}",
                    "value": rat["fraction"],
                    "detail": f"wilson [{rat['wilson_low']:.4f}, {rat['wilson_high']:.4f}]",
                }
            )
    return rows


def _cmd_report(args) -> int:
    if args.out and Path(args.out).is_dir():
        src = Path(args.out)
    elif os.environ.get(OUT_DIR_ENV):
        src = Path(os.environ[OUT_DIR_ENV])
    else:
        src = Path.cwd()
    artifacts = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".json") or name.startswith("report"):
            continue
        try:
            data = json.loads((src / name).read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict) and "kind" in data:
            artifacts.append(data)
    rows = _report_rows(artifacts)
    if args.format == "json":
        text = json.dumps({"kind": "report", "rows": rows}, separators=(",", ":"))
        target = src / "report.json"
    else:
        lines = ["kind,claim,parameters,value,detail"]
        for r in rows:
            lines.append(
                ",".join(
                    '"' + str(r[k]).replace('"', '""') + '"'
                    for k in ("kind", "claim", "parameters", "value", "detail")
                )
            )
        text = "\n".join(lines)
        target = src / "report.csv"
    out_file = Path(args.out) if args.out and not Path(args.out).is_dir() else target
    _emit(text, out_file)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsing",
        description=(
            "Verification toolkit for singularity of adjacency matrices of random "
            "d-regular directed multigraphs: exact kernel-vector census over F_p, "
            "Gaussian local-limit comparisons, entropy rate-function certificates, "
            "and Monte Carlo singularity estimates mod p and over the rationals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n=False, d=False, p=False, seed=False, b=None, tol=False):
        if n:
            sp.add_argument("--n", type=int, required=True, help="number of vertices (fibers)")
        if d:
            sp.add_argument("--d", type=int, required=True, help="degree, at least 3")
        if p:
            sp.add_argument("--p", type=int, required=True, help="prime modulus with gcd(p,d)=1")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
        if b is not None:
            sp.add_argument(
                "--b-threshold",
                type=float,
                default=b,
                help="window parameter b of the near-uniform class (threshold b*ln(n)/n)",
            )
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10, help="moment residual tolerance")
        sp.add_argument("--out", type=str, default=None, help="output file path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser(
        "sample",
        help="draw one configuration-model multigraph",
        description=(
            "Draw a uniform permutation of n*d half-edge points and emit the "
            "d-regular adjacency matrix it induces (all row and column sums d), "
            "plus a duplicate-row witness flag implying singularity."
        ),
    )
    add_common(sp, n=True, d=True, seed=True)
    sp.add_argument("--stream", type=int, default=0, help="counter-based substream index")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser(
        "exact",
        help="exact kernel-vector census over F_p",
        description=(
            "Compute the exact normalized count of (graph, nonzero kernel vector) "
            "pairs over F_p via the lattice-walk identity; the value tends to 1 as "
            "n grows. Emits the exact fraction, its gap from 1, and the split into "
            "near-uniform and far-from-uniform value profiles."
        ),
    )
    add_common(sp, n=True, d=True, p=True, b=10.0)
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser(
        "oracle",
        help="walk identity vs brute-force enumeration",
        description=(
            "Verify the lattice-walk counting identity against brute-force "
            "enumeration of all (n*d)! point permutations, for every value profile; "
            "guarded to n*d <= 10."
        ),
    )
    add_common(sp, n=True, d=True, p=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser(
        "lclt",
        help="Gaussian approximation error scan",
        description=(
            "Compare exact walk endpoint probabilities with the Gaussian "
            "local-limit point mass over admissible near-uniform value profiles; "
            "the max relative error shrinks as n grows."
        ),
    )
    add_common(sp, n=True, d=True, p=True, b=lclt.DEFAULT_B)
    sp.set_defaults(func=_cmd_lclt)

    sp = sub.add_parser(
        "rate",
        help="entropy rate-function certificates and scans",
        description=(
            "Certify the entropy rate function of value-profile densities: zero "
            "exactly at the uniform density and at the degenerate density "
            "(1,0,...,0), strictly negative elsewhere. --density emits one "
            "max-entropy certificate; --resolution scans the whole simplex grid."
        ),
    )
    add_common(sp, d=True, p=True, tol=True)
    sp.add_argument("--density", type=str, default=None, help="comma-separated density, e.g. 0.75,0.25")
    sp.add_argument("--resolution", type=int, default=None, help="simplex grid subdivisions")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser(
        "mc",
        help="Monte Carlo singularity estimates",
        description=(
            "Estimate the probability that the adjacency matrix of a random "
            "d-regular digraph is singular mod p (asymptotically at most 1/(p-1)) "
            "and singular over the rationals (vanishing as n grows, decided by the "
            "exact integer determinant). Reproducible: trial i uses substream i of "
            "the seeded counter-based generator."
        ),
    )
    sp.add_argument("--n", type=int, required=True, help="number of vertices")
    sp.add_argument("--d", type=int, required=True, help="degree, at least 3")
    sp.add_argument("--p", type=str, required=True, help="prime or comma-separated primes")
    sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sp.add_argument("--trials", type=int, required=True, help="number of sampled graphs")
    sp.add_argument("--parallel", type=int, default=1, help="worker processes")
    sp.add_argument("--out", type=str, default=None, help="summary output path")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser(
        "report",
        help="collate prior artifacts into one table",
        description=(
            "Collect JSON artifacts from earlier subcommand runs and render one "
            "summary table covering the three headline quantities: the exact "
            "kernel-count sum, the singular-mod-p fraction, and the "
            "rational-singular fraction."
        ),
    )
    sp.add_argument("--out", type=str, default=None, help="directory to scan or file to write")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
