"""Command-line entry point; the subcommands (COMMANDS below) map onto the verified claims.

All outputs are deterministic for a fixed seed: no timestamps, stable field
order, records sorted by trial index.  REGSING_OUT_DIR selects the default
artifact directory when --out is not given.

The artifact format lives in this module only: each subcommand returns an
Artifact, and `_write` renders it as compact JSON or CSV, prints it and
writes it to its file; mc adds <stem>.records.jsonl, one record per line.
Only `walk_census` and `lclt` load here; sample, rate and mc import their
numpy layers when they run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence

from . import lclt, walk_census
from .common import GuardError, require_coprime_degree

OUT_DIR_ENV = "REGSING_OUT_DIR"


class Artifact(NamedTuple):
    stem: str  # default file name, without the format's extension
    payload: dict  # the JSON form, fields in output order
    header: Optional[Sequence[str]]  # CSV header; None for a bare table
    rows: Iterable[Sequence]  # CSV rows, read only for --format csv
    code: int = 0  # exit status
    records: Iterable[dict] = ()  # mc per-trial records, for the sidecar; read if written
    quoting: int = csv.QUOTE_MINIMAL  # a cell holding a comma (a type, a list) is quoted


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fields(obj, names: str) -> dict:
    """The named attributes of obj in order, tuples as lists (as JSON and CSV show them)."""
    out = {}
    for name in names.split():
        value = getattr(obj, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _artifact_dir(args) -> Optional[Path]:
    """--out when it names a directory, else $REGSING_OUT_DIR; report, which
    always writes, falls back to the working directory."""
    if args.out and Path(args.out).is_dir():
        return Path(args.out)
    if os.environ.get(OUT_DIR_ENV):
        return Path(os.environ[OUT_DIR_ENV])
    return Path.cwd() if args.command == "report" else None


def _write(args, art: Artifact) -> int:
    if args.format == "json":
        text = _json(art.payload) + "\n"
    else:
        buf = io.StringIO()
        if art.header:
            buf.write(",".join(art.header) + "\n")
        csv.writer(buf, lineterminator="\n", quoting=art.quoting).writerows(art.rows)
        text = buf.getvalue()
    sys.stdout.write(text)
    directory = _artifact_dir(args)
    if args.out and not Path(args.out).is_dir():
        path = Path(args.out)
    elif directory is not None:
        path = directory / f"{art.stem}.{args.format}"
    else:
        return art.code
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if art.records:
        records = "".join(_json(rec) + "\n" for rec in art.records)
        path.with_name(path.stem + ".records.jsonl").write_text(records)
    return art.code


def _parse_primes(raw: str) -> tuple:
    # str.split always yields a token, so an empty --p fails in int("")
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"--p must be an integer or comma-separated integers, got {raw!r}")


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


def _sample(args) -> Artifact:
    from . import graph_model
    sample = graph_model.sample_configuration(args.n, args.d, args.seed, stream=args.stream)
    a = graph_model.adjacency_from_permutation(sample)
    payload = {
        "kind": "sample", **_fields(args, "n d seed stream"), "perm": sample.perm.tolist(),
        "adjacency": a.tolist(), "identical_rows": graph_model.has_identical_rows(a),
    }
    stem = f"sample_n{args.n}_d{args.d}_s{args.seed}_t{args.stream}"
    return Artifact(stem, payload, None, payload["adjacency"])


def _exact(args) -> Artifact:
    require_coprime_degree(args.p, args.d)
    counts = walk_census.walk_endpoint_counts(args.n, args.d, args.p)
    e_sum, n_sum, zero_term = walk_census.type_class_partition(counts, args.b_threshold)
    ks = e_sum + n_sum
    payload = {
        "kind": "exact", **_fields(args, "n d p"), "b": args.b_threshold,
        "key_sum": str(ks), "key_sum_float": float(ks), "gap": float(abs(1 - ks)),
        "class_e_sum": str(e_sum), "class_e_float": float(e_sum),
        "class_n_sum": str(n_sum), "class_n_float": float(n_sum),
        "zero_type_term": str(zero_term),
        "total_mass_ok": counts.total_mass_ok, "parity_ok": counts.parity_ok,
    }
    stem = f"exact_n{args.n}_d{args.d}_p{args.p}"
    return Artifact(stem, payload, ("field", "value"), payload.items())


def _oracle(args) -> Artifact:
    require_coprime_degree(args.p, args.d)
    results = walk_census.oracle_all_types(args.n, args.d, args.p)
    all_equal = all(predicted == brute for _, predicted, brute in results)
    types = [{"type": list(t), "walk_identity": w, "brute_force": b} for t, w, b in results]
    payload = {"kind": "oracle", **_fields(args, "n d p"), "all_equal": all_equal, "types": types}
    rows = ((",".join(map(str, t)), w, b) for t, w, b in results)
    stem = f"oracle_n{args.n}_d{args.d}_p{args.p}"
    header = ("type", "walk_identity", "brute_force")
    return Artifact(stem, payload, header, rows, 0 if all_equal else 1)


def _lclt(args) -> Artifact:
    require_coprime_degree(args.p, args.d)
    counts = walk_census.walk_endpoint_counts(args.n, args.d, args.p)
    scan = lclt.lclt_error_scan(counts, args.b_threshold)
    payload = {"kind": "lclt", **_fields(scan, "n d p b max_rel_error zero_probability_types")}
    payload["rows"] = [
        {"type": list(t), "exact": e, "gaussian": g, "rel_error": r} for t, e, g, r in scan.rows
    ]
    rows = ((",".join(map(str, t)), e, g, r) for t, e, g, r in scan.rows)
    stem = f"lclt_n{args.n}_d{args.d}_p{args.p}_b{args.b_threshold:g}"
    return Artifact(stem, payload, ("type", "exact", "gaussian", "rel_error"), rows)


def _rate(args) -> Artifact:
    from . import rate_ldp
    require_coprime_degree(args.p, args.d)
    if args.density is not None:
        nv = _parse_density(args.density, args.p)
        cert = rate_ldp.maxent_alpha(nv, args.d, args.p)
        payload = _fields(cert, "density alpha dual rate residual converged feasible")
        payload.update(kind="rate", d=args.d, p=args.p)
        payload["amgm_sum"] = rate_ldp.amgm_sum(nv, args.d, args.p)
        if min(nv) > 0:
            st = rate_ldp.stationary_alpha(nv, args.d, args.p)
            payload.update(stationary_rate=st.rate, stationary_moment_residual=st.moment_residual)
        dtag = "-".join(f"{float(x):g}" for x in nv)
        stem = f"rate_d{args.d}_p{args.p}_nu{dtag}"
        return Artifact(stem, payload, ("field", "value"), payload.items())
    if args.resolution is None:
        raise ValueError("rate requires --density or --resolution")
    scan = rate_ldp.negativity_grid_scan(args.d, args.p, args.resolution)
    payload = {"kind": "rate_scan", **_fields(scan, "d p resolution n_points n_excluded")}
    payload.update(_fields(scan, "n_infeasible n_nonconverged max_rate argmax all_negative"))
    rows = ((",".join(f"{x:.6f}" for x in density), *rest) for density, *rest in scan.rows)
    stem = f"ratescan_d{args.d}_p{args.p}_r{args.resolution}"
    header = ("density", "rate", "feasible", "converged")
    return Artifact(stem, payload, header, rows, 0 if scan.all_negative else 1)


def _wilson(fraction: float, low: float, high: float) -> dict:
    return {"fraction": fraction, "wilson_low": low, "wilson_high": high}


def _mc(args) -> Artifact:
    from . import mc_harness
    primes = _parse_primes(args.p)
    summary, records = mc_harness.run_experiment(mc_harness.ExperimentConfig(
        n=args.n, d=args.d, primes=primes, trials=args.trials, seed=args.seed,
        parallelism=args.parallel,
    ))
    rational = (summary.rational_fraction, *summary.rational_interval)
    payload = {
        **_fields(summary, "n d trials seed"),
        "singular_mod": {str(p): _wilson(*stats) for p, *stats in summary.per_prime},
        "rational": _wilson(*rational),
        "identical_rows_fraction": summary.identical_rows_fraction,
        "kind": "mc",
    }
    rows = [(f"singular_mod_{p}", *stats) for p, *stats in summary.per_prime]
    rows.append(("rational", *rational))
    # elapsed is diagnostics only and stays out, so records match across schedules
    lines = (
        {"trial": r.trial, "singular_mod": {str(p): flag for p, flag in r.singular_mod},
         **_fields(r, "det_zero identical_rows")}
        for r in records
    )
    ptag = "-".join(str(q) for q in sorted(primes))
    stem = f"mc_n{args.n}_d{args.d}_p{ptag}_t{args.trials}_s{args.seed}"
    header = ("series", "fraction", "wilson_low", "wilson_high")
    return Artifact(stem, payload, header, rows, records=lines)


def _mc_report_rows(a: dict) -> list:
    params = f"n={a['n']} d={a['d']} trials={a['trials']} seed={a['seed']}"
    series = [
        (f"P(singular mod {p}) bounded by 1/(p-1) asymptotically", stats)
        for p, stats in sorted(a["singular_mod"].items(), key=lambda kv: int(kv[0]))
    ]
    series.append(("P(singular over the rationals) vanishes as n grows", a["rational"]))
    return [
        (claim, params, s["fraction"], f"wilson [{s['wilson_low']:.4f}, {s['wilson_high']:.4f}]")
        for claim, s in series
    ]


# kind -> the report rows (claim, parameters, value, detail) of one artifact
REPORT_ROWS = {
    "exact": lambda a: [(
        "expected nonzero kernel count over F_p tends to 1", f"n={a['n']} d={a['d']} p={a['p']}",
        a["key_sum_float"], f"exact {a['key_sum']}, gap {a['gap']:.6g}",
    )],
    "oracle": lambda a: [(
        "walk identity equals brute-force count for every type",
        f"n={a['n']} d={a['d']} p={a['p']}", a["all_equal"], f"{len(a['types'])} types",
    )],
    "lclt": lambda a: [(
        "gaussian point-mass approximation error on near-uniform types",
        f"n={a['n']} d={a['d']} p={a['p']} b={a['b']:g}", a["max_rel_error"],
        f"{len(a['rows'])} types scanned",
    )],
    "rate": lambda a: [(
        "entropy rate at a fixed density",
        f"d={a.get('d', '')} p={a.get('p', '')} density={a['density']}", a["rate"],
        f"residual {a['residual']:.3g} converged {a['converged']}",
    )],
    "rate_scan": lambda a: [(
        "rate strictly negative away from the two equality points",
        f"d={a['d']} p={a['p']} resolution={a['resolution']}", a["max_rate"],
        f"{a['n_infeasible']} infeasible, {a['n_excluded']} excluded",
    )],
    "mc": _mc_report_rows,
}
REPORT_HEADER = ("kind", "claim", "parameters", "value", "detail")


def _report(args) -> Artifact:
    src = _artifact_dir(args)
    try:
        names = sorted(os.listdir(src))
    except OSError as exc:
        raise ValueError(f"report cannot list the artifact directory {src}: {exc.strerror}")
    rows = []
    for name in names:
        if not name.endswith(".json") or name.startswith("report"):
            continue
        # an unreadable file, or an artifact lacking a field its rows need, is skipped
        try:
            data = json.loads((src / name).read_text())
            if isinstance(data, dict) and str(data.get("kind")) in REPORT_ROWS:
                rows += [(data["kind"], *row) for row in REPORT_ROWS[data["kind"]](data)]
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            continue
    payload = {"kind": "report", "rows": [dict(zip(REPORT_HEADER, row)) for row in rows]}
    return Artifact("report", payload, REPORT_HEADER, rows, quoting=csv.QUOTE_ALL)


B_HELP = "window parameter b of the near-uniform class (threshold b*ln(n)/n)"
N = ("--n", dict(type=int, required=True, help="number of vertices (fibers)"))
D = ("--d", dict(type=int, required=True, help="degree, at least 3"))
P = ("--p", dict(type=int, required=True, help="prime modulus with gcd(p,d)=1"))
SEED = ("--seed", dict(type=int, default=0, help="base RNG seed"))
OUT = ("--out", dict(type=str, default=None, help="output file path"))
FORMAT = ("--format", dict(choices=("json", "csv"), default="json"))

# name -> (function, help, options in --help order, description)
COMMANDS = {
    "sample": (_sample, "draw one configuration-model multigraph", [
        N, D, SEED, OUT, FORMAT,
        ("--stream", dict(type=int, default=0, help="counter-based substream index"))],
        "Draw a uniform permutation of n*d half-edge points and emit the d-regular adjacency "
        "matrix it induces (all row and column sums d), plus a duplicate-row witness flag "
        "implying singularity."),
    "exact": (_exact, "exact kernel-vector census over F_p (key sum -> 1)", [
        N, D, P, ("--b-threshold", dict(type=float, default=10.0, help=B_HELP)), OUT, FORMAT],
        "Compute the exact normalized count of (graph, nonzero kernel vector) pairs over F_p "
        "via the lattice-walk identity; the value tends to 1 as n grows. Emits the exact "
        "fraction, its gap from 1, and the split into near-uniform and far-from-uniform "
        "value profiles."),
    "oracle": (_oracle, "walk identity vs brute-force enumeration", [N, D, P, OUT, FORMAT],
        "Verify the lattice-walk counting identity against brute-force enumeration of all "
        "(n*d)! point permutations, for every value profile; guarded to n*d <= 10."),
    "lclt": (_lclt, "Gaussian local-limit approximation error scan", [
        N, D, P, ("--b-threshold", dict(type=float, default=lclt.DEFAULT_B, help=B_HELP)),
        OUT, FORMAT],
        "Compare exact walk endpoint probabilities with the Gaussian local-limit point mass "
        "over admissible near-uniform value profiles; the max relative error shrinks as n "
        "grows."),
    "rate": (_rate, "entropy rate-function certificates and negativity scans", [
        D, P, OUT, FORMAT,
        ("--density", dict(type=str, default=None, help="comma-separated density, e.g. 0.75,0.25")),
        ("--resolution", dict(type=int, default=None, help="simplex grid subdivisions"))],
        "Certify the entropy rate function of value-profile densities: zero exactly at the "
        "uniform density and at the degenerate density (1,0,...,0), strictly negative "
        "elsewhere. --density emits one max-entropy certificate; --resolution scans the "
        "whole simplex grid."),
    "mc": (_mc, "Monte Carlo singularity estimates mod p and over the rationals", [
        ("--n", dict(type=int, required=True, help="number of vertices")), D,
        ("--p", dict(type=str, required=True, help="prime or comma-separated primes")), SEED,
        ("--trials", dict(type=int, required=True, help="number of sampled graphs")),
        ("--parallel", dict(type=int, default=1, help="worker processes")),
        ("--out", dict(type=str, default=None, help="summary output path")), FORMAT],
        "Estimate the probability that the adjacency matrix of a random d-regular digraph is "
        "singular mod p (asymptotically at most 1/(p-1)) and singular over the rationals "
        "(vanishing as n grows, decided by the exact integer determinant). Reproducible: "
        "trial i uses substream i of the seeded counter-based generator."),
    "report": (_report, "collate prior JSON artifacts into one summary table", [
        ("--out", dict(type=str, default=None, help="directory to scan or file to write")),
        ("--format", dict(choices=("json", "csv"), default="csv"))],
        "Collect JSON artifacts from earlier subcommand runs and render one summary table "
        "covering the three headline quantities: the exact kernel-count sum, the "
        "singular-mod-p fraction, and the rational-singular fraction."),
}


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
    for name, (func, help_text, options, description) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=description)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _write(args, args.func(args))
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
