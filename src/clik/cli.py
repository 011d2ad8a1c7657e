"""Command-line front end: efficiency curves, simulation studies and the
verification suite, all emitting CSV (authoritative) plus simple SVG plots
and a JSON run manifest.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import composite as comp
from . import montecarlo as mc
from . import verify as verify_mod
from .errors import ClikError, ConfigError
from .estimators import check_identified
from .fileio import atomic_csv, atomic_write, fmt
from .models import EMVN, Multinomial4, TriNormal
from .svgfig import Panel, write_figure


def _write_manifest(out_dir, command, parameters, seed, outputs, started):
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "outputs": sorted(outputs),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _integer(low: int):
    """argparse type: an integer of at least ``low`` and at most
    ``sys.maxsize``, the largest array size or index numpy takes."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > sys.maxsize:
            raise argparse.ArgumentTypeError(
                f"must be <= {sys.maxsize}, got {value}")
        return value
    return parse


def _positive(text) -> float:
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def _numbers(text: str, flag: str) -> list:
    """A non-empty comma-separated list of finite numbers."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated list: {exc}") from None
    if not values or not np.all(np.isfinite(values)):
        raise ConfigError(f"{flag} expects a comma-separated list of finite "
                          f"numbers, got {text!r}")
    return values


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_figure1(args) -> int:
    """Known-over-free variance ratio of the pairwise correlation estimator."""
    started = time.monotonic()
    out = _ensure_out(args)
    lo = -1.0 / (args.p - 1)
    # keep the exact reference point rho = 0 (ratio 1) on the grid
    grid = np.union1d(asy.default_grid(lo, 1.0, args.grid), [0.0])
    curve = asy.pairwise_ratio_curve(args.p, grid)
    csv_path = os.path.join(out, "figure1.csv")
    curve.to_csv(csv_path)
    panel = Panel("rho", "variance ratio (known / free)",
                  f"pairwise correlation estimator, p={args.p}",
                  hlines=(1.0,), vlines=(0.0,))
    panel.add(curve.x, curve.value("ratio"), "ratio")
    svg_path = os.path.join(out, "figure1.svg")
    write_figure(svg_path, panel)
    _write_manifest(out, "figure1", {"p": args.p, "grid": args.grid}, None,
                    [csv_path, svg_path], started)
    return 0


def cmd_figure2(args) -> int:
    """Same ratio for the full-conditional estimator, by Monte Carlo."""
    started = time.monotonic()
    out = _ensure_out(args)
    grid = asy.full_conditional_grid(args.p, args.grid)
    curve = asy.full_conditional_ratio_curve(args.p, grid, draws=args.draws,
                                             seed=args.seed, sigma2=args.sigma2)
    csv_path = os.path.join(out, "figure2.csv")
    curve.to_csv(csv_path)
    panel = Panel("rho", "variance ratio (known / free)",
                  f"full-conditional correlation estimator, p={args.p}",
                  hlines=(1.0,))
    panel.add(curve.x, curve.value("ratio"), "ratio")
    svg_path = os.path.join(out, "figure2.svg")
    write_figure(svg_path, panel)
    _write_manifest(out, "figure2",
                    {"p": args.p, "grid": args.grid, "draws": args.draws,
                     "sigma2": args.sigma2},
                    args.seed, [csv_path, svg_path], started)
    return 0


def cmd_figure3(args) -> int:
    """Per-observation variances of the three multinomial estimators."""
    started = time.monotonic()
    model = Multinomial4(args.k)
    grid = asy.default_grid(0.0, model.theta_max, args.grid,
                            margin=0.01 * model.theta_max)
    curve = asy.multinomial_variance_curves(args.k, grid)
    out = _ensure_out(args)
    csv_path = os.path.join(out, "figure3.csv")
    curve.to_csv(csv_path)
    left = Panel("theta", "n x asymptotic variance", f"k={args.k}")
    left.add(curve.x, curve.value("nvar_full"), "full")
    left.add(curve.x, curve.value("nvar_ind"), "independence", dashed=True)
    left.add(curve.x, curve.value("nvar_pair"), "pairwise", dashed=True)
    right = Panel("theta", "pairwise / independence", "variance ratio",
                  hlines=(1.0,))
    right.add(curve.x, curve.value("ratio_pair_over_ind"))
    svg_path = os.path.join(out, "figure3.svg")
    write_figure(svg_path, [left, right])
    _write_manifest(out, "figure3", {"k": args.k, "grid": args.grid}, None,
                    [csv_path, svg_path], started)
    return 0


def cmd_example2(args) -> int:
    """Two-block normal model: when the extra coordinate helps or hurts."""
    started = time.monotonic()
    sigma2s = _numbers(args.sigma2, "--sigma2")
    if args.rho:
        rho_grid = np.array(sorted(_numbers(args.rho, "--rho")))
    else:
        rho_grid = np.linspace(-1.0, 1.0, args.grid)
    out = _ensure_out(args)
    rows = []
    for s2 in sigma2s:
        rho_star = asy.two_block_threshold(s2)
        for rho in rho_grid:
            v12, v123 = asy.two_block_mean_variances(s2, float(rho))
            rows.append([fmt(s2), fmt(rho), fmt(v12), fmt(v123), fmt(rho_star)])
    csv_path = os.path.join(out, "example2.csv")
    atomic_csv(csv_path, ["sigma2", "rho", "v12", "v123", "rho_star"], rows)
    panel = Panel("rho", "n x variance", "mean estimators, pair vs pair+extra")
    v12 = [asy.two_block_mean_variances(sigma2s[0], float(r))[0] for r in rho_grid]
    panel.add(rho_grid, v12, "two margins")
    for s2 in sigma2s[:3]:
        v123 = [asy.two_block_mean_variances(s2, float(r))[1] for r in rho_grid]
        panel.add(rho_grid, v123, f"three margins, sigma2={s2:g}", dashed=True)
    svg_path = os.path.join(out, "example2.svg")
    write_figure(svg_path, panel)
    _write_manifest(out, "example2",
                    {"sigma2": sigma2s, "grid": args.grid}, None,
                    [csv_path, svg_path], started)
    return 0


def cmd_verify(args) -> int:
    """Run the verification suite and write verify_report.csv."""
    started = time.monotonic()
    out = _ensure_out(args)

    def progress(res):
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] {res.check_id}: value={res.value:.6g} "
              f"threshold={res.threshold:.6g}")

    results = verify_mod.run_all(level=args.level, seed=args.seed,
                                 progress=progress)
    report = os.path.join(out, "verify_report.csv")
    verify_mod.write_report(results, report)
    _write_manifest(out, "verify", {"level": args.level}, args.seed,
                    [report], started)
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed "
          f"({args.level} level)")
    for r in failures:
        print(f"FAILED {r.check_id}: value={r.value:.6g} "
              f"threshold={r.threshold:.6g} ({r.detail})", file=sys.stderr)
    return 1 if failures else 0


_CONFIG_KEYS = {"model", "p", "k", "rho", "sigma2", "mu", "theta", "n",
                "replicates", "seed", "specs"}

_SPEC_BUILDERS = {
    "independence": comp.independence,
    "pairwise": comp.pairwise,
    "full_conditional": comp.full_conditional,
    "chain": comp.chain,
    "full": comp.full_likelihood,
}


def parse_sim_config(path) -> mc.SimConfig:
    """Parse a flat ``key = value`` config file into a SimConfig."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val

    def need(key):
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return values[key]

    def num(key, default=None):
        raw = values.get(key, default)
        if raw is None:
            raise ConfigError(f"{path}: missing required key {key!r}")
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{path}: key {key!r} is not a number: {raw!r}")

    def size(key):
        value = int(num(key))
        if value > sys.maxsize:
            raise ConfigError(f"{path}: key {key!r} is above {sys.maxsize}")
        return value

    family = need("model").lower()
    try:
        if family == "emvn":
            model = EMVN(int(num("p", "3")))
            theta = model.params(rho=num("rho"), sigma2=num("sigma2", "1"))
        elif family == "trinormal":
            model = TriNormal()
            theta = model.params(mu=num("mu", "0"), rho=num("rho", "0"),
                                 sigma2=num("sigma2", "1"))
        elif family == "multinomial4":
            model = Multinomial4(num("k"))
            theta = model.params(num("theta"))
        else:
            raise ConfigError(f"{path}: unknown model {family!r}")

        runs = []
        for token in need("specs").split(","):
            token = token.strip()
            if not token:
                continue
            name, *fixed_names = token.split("!")
            if name not in _SPEC_BUILDERS:
                raise ConfigError(f"{path}: unknown spec {name!r} (choices: "
                                  f"{sorted(_SPEC_BUILDERS)})")
            for fname in fixed_names:
                if fname not in theta.names:
                    raise ConfigError(f"{path}: spec {token!r} fixes unknown "
                                      f"parameter {fname!r}")
            fixed = {fname: theta[fname] for fname in fixed_names}
            runs.append(mc.SpecRun(_SPEC_BUILDERS[name](model.dim), fixed))
        if not runs:
            raise ConfigError(f"{path}: specs list is empty")

        config = mc.SimConfig(model, theta, tuple(runs), n=size("n"),
                              replicates=size("replicates"),
                              seed=int(num("seed", "0")))
        for run in runs:
            check_identified(model, run.spec, theta, run.fixed_dict)
        return config
    except (ValueError, OverflowError) as exc:    # int() of inf overflows
        raise ConfigError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    started = time.monotonic()
    config = parse_sim_config(args.config)
    out = _ensure_out(args)
    result = mc.run(config)
    est_path = os.path.join(out, "simulate_estimates.csv")
    sum_path = os.path.join(out, "simulate_summary.csv")
    result.write_estimates_csv(est_path)
    result.write_summary_csv(sum_path)
    _write_manifest(out, "simulate", {"config": os.path.abspath(args.config)},
                    config.seed, [est_path, sum_path], started)
    for row in result.summary_rows():
        print(",".join(str(v) for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clik",
        description="Composite likelihood efficiency curves, simulation "
                    "studies and verification checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # numeric flags are checked here, so a bad value exits 2 with a message
    seed_type, grid_type, p_type = _integer(0), _integer(2), _integer(3)

    def common(p, seed=False):
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=seed_type, default=0)

    p1 = sub.add_parser("figure1", help="pairwise known/free variance ratio curve")
    p1.add_argument("--p", type=p_type, default=3)
    p1.add_argument("--grid", type=grid_type, default=201)
    common(p1)
    p1.set_defaults(func=cmd_figure1)

    p2 = sub.add_parser("figure2", help="full-conditional ratio curve (Monte Carlo)")
    p2.add_argument("--p", type=p_type, default=3)
    p2.add_argument("--grid", type=grid_type, default=21)
    p2.add_argument("--draws", type=_integer(comp.MIN_DRAWS), default=200_000)
    p2.add_argument("--sigma2", type=_positive, default=1.0)
    common(p2, seed=True)
    p2.set_defaults(func=cmd_figure2)

    p3 = sub.add_parser("figure3", help="multinomial variance curves")
    p3.add_argument("--k", type=_positive, default=5.0)
    p3.add_argument("--grid", type=grid_type, default=201)
    common(p3)
    p3.set_defaults(func=cmd_figure3)

    p4 = sub.add_parser("example2", help="two-block normal variance table")
    p4.add_argument("--sigma2", default="0.5,2,100,1000000",
                    help="comma-separated sigma2 values")
    p4.add_argument("--rho", default="",
                    help="comma-separated rho values (default: uniform grid)")
    p4.add_argument("--grid", type=_integer(1), default=201)
    common(p4)
    p4.set_defaults(func=cmd_example2)

    p5 = sub.add_parser("verify", help="run the verification suite")
    p5.add_argument("--level", choices=("quick", "full"), default="full")
    common(p5, seed=False)
    p5.add_argument("--seed", type=seed_type, default=20260810)
    p5.set_defaults(func=cmd_verify)

    p6 = sub.add_parser("simulate", help="run a simulation study from a config file")
    p6.add_argument("config", help="flat key = value config file")
    common(p6)
    p6.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClikError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"error: {name or ''}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: not enough memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 2
