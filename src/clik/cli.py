"""Command-line front end: efficiency curves, simulation studies and the
verification suite, all emitting CSV (authoritative) plus simple SVG plots
and a JSON run manifest.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
a size beyond physical memory included: each command hands its size
flags or config keys to :func:`_check_memory` before it builds anything.
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
from .estimators import check_identified, registered_closed_form
from .fileio import atomic_csv, atomic_write, fmt
from .models import EMVN, Multinomial4, TriNormal, score_bytes
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


def _physical_memory() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(sizes) -> None:
    """ConfigError naming the first of ``sizes``, ``(name, value, bytes)``
    triples in flag order, at which the running total of their bytes
    exceeds physical memory; counted before anything is built, nothing
    is allocated to count them."""
    memory, need = _physical_memory(), 0
    for name, value, count in sizes:
        need += count
        if need > memory:
            raise ConfigError(f"{name} = {value} is too large: it needs "
                              f"{need:.3g} bytes, more than the "
                              f"{memory:.3g} bytes of physical memory")


#: Bytes a command holds per ``--grid`` point, at most: its grid and
#: curve arrays, the rows it writes and the SVG text of each curve.  The
#: growth of the tracemalloc peak between 2e4 and 8e4 points, rounded
#: up: figure1 104 to 143, figure2 222, figure3 305, example2 277 (it
#: plots at most three ``--sigma2`` curves, and streams its rows).
_GRID_BYTES = {"figure1": 192, "figure2": 320, "figure3": 384,
               "example2": 320}


def _grid_size(args):
    """The ``--grid`` entry of :func:`_check_memory` for ``args.command``."""
    return "--grid", args.grid, args.grid * _GRID_BYTES[args.command]


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_figure1(args) -> int:
    """Known-over-free variance ratio of the pairwise correlation estimator."""
    _check_memory([_grid_size(args)])
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
    # before the spec is built: a score pass (models.score_bytes) over the
    # p + 1 margins of the full-conditional spec at the 1 + 2q points of
    # a Monte Carlo triple of EMVN's q = 2 parameters; one batch of
    # ceil(draws / DEFAULT_BATCHES) rows of noise, p floats each, and
    # their (q, k) score block; the grid
    rows = -(-args.draws // comp.DEFAULT_BATCHES)
    _check_memory([("--p", args.p, score_bytes(args.p + 1, 5, args.p, 2)),
                   ("--draws", args.draws, 8 * rows * (args.p + 2)),
                   _grid_size(args)])
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
    _check_memory([_grid_size(args)])
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
        _check_memory([_grid_size(args)])
        rho_grid = np.linspace(-1.0, 1.0, args.grid)
    out = _ensure_out(args)

    def rows():
        for s2 in sigma2s:
            rho_star = fmt(asy.two_block_threshold(s2))
            for rho in rho_grid:
                v12, v123 = asy.two_block_mean_variances(s2, float(rho))
                yield [fmt(s2), fmt(rho), fmt(v12), fmt(v123), rho_star]
    csv_path = os.path.join(out, "example2.csv")
    atomic_csv(csv_path, ["sigma2", "rho", "v12", "v123", "rho_star"], rows())
    panel = Panel("rho", "n x variance", "mean estimators, pair vs pair+extra")
    # v12 = (1 + rho) / 2 of two_block_mean_variances, the same operations
    panel.add(rho_grid, (1.0 + rho_grid) / 2.0, "two margins")
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

_MODELS = {"emvn": EMVN, "trinormal": TriNormal, "multinomial4": Multinomial4}

_SPEC_BUILDERS = {
    "independence": comp.independence,
    "pairwise": comp.pairwise,
    "full_conditional": comp.full_conditional,
    "chain": comp.chain,
    "full": comp.full_likelihood,
}

#: Distinct margins whose score forms a fit of each spec of ``p``
#: coordinates builds, the full one included (the spec's and the full
#: likelihood's margins), counted without building the spec.
_SPEC_MARGINS = {
    "independence": lambda p: p + 1,
    "pairwise": lambda p: p * (p - 1) // 2 + 1,
    "full_conditional": lambda p: p + 1,
    "chain": lambda p: p,
    "full": lambda p: 1,
}

#: Bytes a study holds per estimate, at most: the float, its flag and its
#: score norm, per chunk and joined, and its line of the estimates file,
#: as a str and in the joined text.
_ESTIMATE_BYTES = 192


def _check_sim_sizes(path, p: int, n: int, replicates: int, runs) -> None:
    """:func:`_check_memory` on the sizes ``p``, ``n`` and ``replicates``
    of ``clik simulate``, in that order, naming the key of ``path``.
    ``runs`` holds ``(margins, q, points)`` per run: the margins whose
    forms a fit builds (see ``_SPEC_MARGINS``), its free parameters, and
    the parameter points it builds them at in one batch.

    - ``p``: the largest forms of a run, ``margins * points * q * (1 + p
      + p**2)`` floats (one point for the identifiability check, a chunk
      of replicates for Newton's evaluations);
    - ``n``: one block of noise, ``montecarlo.BLOCK_BYTES`` or one
      replicate's ``n * p`` floats, and the statistic's copy of it;
    - ``replicates``: the statistics of every replicate, per block and
      stacked, and ``_ESTIMATE_BYTES`` per free parameter of each run."""
    stat = 1 + p + p * p
    _check_memory([
        (f"{path}: key 'p'", p,
         8 * max(m * points * q * stat for m, q, points in runs)),
        (f"{path}: key 'n'", n, 2 * max(mc.BLOCK_BYTES, 8 * n * p)),
        (f"{path}: key 'replicates'", replicates, replicates * (
            16 * stat + _ESTIMATE_BYTES * sum(q for _, q, _ in runs)))])


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

    def size(key, default=None):
        """The value of ``key`` as an integer: ConfigError unless it is a
        whole number (``500`` and ``5e2`` are) of at most ``sys.maxsize``;
        ``int()`` of inf or NaN raises, caught below."""
        value = num(key, default)
        if int(value) != value:
            raise ConfigError(f"{path}: key {key!r} must be an integer, got "
                              f"{values.get(key, default)!r}")
        if value > sys.maxsize:
            raise ConfigError(f"{path}: key {key!r} is above {sys.maxsize}")
        return int(value)

    family = need("model").lower()
    if family not in _MODELS:
        raise ConfigError(f"{path}: unknown model {family!r}")
    tokens = []
    for token in need("specs").split(","):
        token = token.strip()
        if not token:
            continue
        name, *fixed_names = token.split("!")
        if name not in _SPEC_BUILDERS:
            raise ConfigError(f"{path}: unknown spec {name!r} (choices: "
                              f"{sorted(_SPEC_BUILDERS)})")
        tokens.append((token, name, fixed_names))
    if not tokens:
        raise ConfigError(f"{path}: specs list is empty")
    try:
        p = size("p", "3") if family == "emvn" else 3
        n, replicates = size("n"), size("replicates")
        # before any model, spec or form is built: the identifiability
        # check's forms, at one point with every parameter free
        free = len(_MODELS[family].param_names)
        _check_sim_sizes(path, p, n, replicates,
                         [(_SPEC_MARGINS[name](p), free, 1)
                          for _, name, _ in tokens])
        if family == "emvn":
            model = EMVN(p)
            theta = model.params(rho=num("rho"), sigma2=num("sigma2", "1"))
        elif family == "trinormal":
            model = TriNormal()
            theta = model.params(mu=num("mu", "0"), rho=num("rho", "0"),
                                 sigma2=num("sigma2", "1"))
        else:
            model = Multinomial4(num("k"))
            theta = model.params(num("theta"))

        runs = []
        for token, name, fixed_names in tokens:
            for fname in fixed_names:
                if fname not in theta.names:
                    raise ConfigError(f"{path}: spec {token!r} fixes unknown "
                                      f"parameter {fname!r}")
            fixed = {fname: theta[fname] for fname in fixed_names}
            runs.append(mc.SpecRun(_SPEC_BUILDERS[name](model.dim), fixed))

        config = mc.SimConfig(model, theta, tuple(runs), n=n,
                              replicates=replicates, seed=size("seed", "0"))
        # Newton evaluates the forms of every replicate of a chunk at once
        _check_sim_sizes(path, p, n, replicates, [
            (_SPEC_MARGINS[name](p), len(config.free_names(run)),
             1 if registered_closed_form(model, run.spec, theta,
                                         run.fixed_dict) else replicates)
            for (_, name, _), run in zip(tokens, runs)])
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
    summary = result.write_summary_csv(sum_path)
    _write_manifest(out, "simulate", {"config": os.path.abspath(args.config)},
                    config.seed, [est_path, sum_path], started)
    for row in summary:
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
