"""Command line interface.

Subcommands:
  simulate    draw a sample from one of the built-in designs, write CSV
  estimate    classical + back-transform mean/covariance from a sample CSV
  test        stepdown test for endpoint/coefficient dependence
  experiment  Monte-Carlo bias/variance or test-selection tables

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import estimators
from .dgp import ALL_KINDS, DgpConfig, draw_sample
from .errors import ArgumentError, NumericalError, ParseError
from .harness import (
    MODE_BIAS_VARIANCE,
    MODE_TEST_SELECTION,
    ExperimentSpec,
    run_experiment,
)
from .io import (
    read_sample_csv,
    write_coefficient_sidecar,
    write_experiment_csv,
    write_matrix_csv,
    write_sample_csv,
    write_scores_csv,
    write_vector_csv,
)
from .mcar import classify_and_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _csv_strs(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


# The experiment options: flag (and config key) name, value type, help text.
_EXPERIMENT_FLAGS = (
    ("mode", str, f"{MODE_BIAS_VARIANCE} or {MODE_TEST_SELECTION}"),
    ("dgp", _csv_strs, "comma-separated design kinds"),
    ("n", _csv_ints, "comma-separated sample sizes"),
    ("reps", int, "replications per cell"),
    ("p", int, "grid size"),
    ("alpha", float, None),
    ("bootstrap", int, "replications R"),
    ("j_max", int, None),
    ("seed", int, None),
    ("targets", _csv_strs, "bias_variance targets: mean,cov"),
)
# ExperimentSpec field of each option not named like its flag.
_SPEC_FIELDS = {
    "dgp": "kinds", "reps": "replications", "j_max": "J_max", "bootstrap": "R"
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ftcfd", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample from a built-in design")
    sim.add_argument("--dgp", required=True, choices=ALL_KINDS)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, default=501)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="sample CSV path")
    sim.add_argument(
        "--sidecar", help="optional CSV path for the per-curve d_i and coefficients"
    )

    est = sub.add_parser("estimate", help="mean/covariance estimates from a CSV")
    est.add_argument("input", help="sample CSV path")
    est.add_argument("--out", required=True, help="output directory")
    est.add_argument(
        "--d-f",
        type=float,
        default=None,
        help="optional check: fail unless every curve observes this grid point; "
        "the estimates never depend on it",
    )
    est.add_argument(
        "--fpc-scores",
        action="store_true",
        help="also write principal component scores on the fully observed subdomain",
    )

    tst = sub.add_parser("test", help="stepdown dependence test from a CSV")
    tst.add_argument("input", help="sample CSV path")
    tst.add_argument("--out", help="report path (default: stdout)")
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--bootstrap", type=int, default=1000, help="replications R")
    tst.add_argument("--j-max", type=int, default=51)
    tst.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="Monte-Carlo summary tables")
    for key, type_, help_ in _EXPERIMENT_FLAGS:
        exp.add_argument("--" + key.replace("_", "-"), type=type_, help=help_)
    exp.add_argument("--config", help="key=value file supplying defaults")
    exp.add_argument("--out", required=True, help="result CSV path")
    return parser


def _read_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError("expected key=value", line=lineno)
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}")
    return out


def _experiment_spec(args) -> ExperimentSpec:
    """Flags override the config file; unset options keep the spec's defaults."""
    config = _read_config(args.config) if args.config else {}
    options = {}
    for key, type_, _ in _EXPERIMENT_FLAGS:
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = type_(config[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ArgumentError(f"bad config value for {key}: {exc}")
        if value is not None:
            options[_SPEC_FIELDS.get(key, key)] = value
    unknown = set(config) - {key for key, _, _ in _EXPERIMENT_FLAGS}
    if unknown:
        raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentSpec(**options)


def _cmd_simulate(args) -> int:
    sample, d, xi = draw_sample(DgpConfig(args.dgp, n=args.n, p=args.p, seed=args.seed))
    write_sample_csv(sample, args.out)
    if args.sidecar:
        write_coefficient_sidecar(args.sidecar, d, xi)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    """Write classical and back-transform mean/covariance estimate files.

    Both mean estimates are emitted side by side so they can be overlaid
    directly. Every estimate is computed before the output directory is
    created, so input the estimators reject leaves no files behind. Prints
    every written path.
    """
    sample = read_sample_csv(args.input)
    m = estimators.moments(sample)
    if args.d_f is not None:
        estimators.anchor_index(m, args.d_f)
    cov_cl, cov_ftc = estimators.cov_pair(m)
    grid = sample.grid
    tables = [
        ("mean_classical.csv", write_vector_csv, grid, m.mu[0]),
        ("mean_ftc.csv", write_vector_csv, grid, estimators.ftc_mean(m)),
        ("cov_classical.csv", write_matrix_csv, grid, cov_cl),
        ("cov_ftc.csv", write_matrix_csv, grid, cov_ftc),
    ]
    if args.fpc_scores:
        scores, explained = estimators.fpca_scores(sample)
        tables.append(("fpc_scores.csv", write_scores_csv, scores, explained))
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name, *_ in tables]
    for path, (_, writer, *table) in zip(paths, tables):
        writer(path, *table)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_test(args) -> int:
    sample = read_sample_csv(args.input)
    report = classify_and_test(
        sample, J_max=args.j_max, alpha=args.alpha, R=args.bootstrap, seed=args.seed
    )
    text = report.serialize()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    spec = _experiment_spec(args)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    result = run_experiment(spec)
    write_experiment_csv(result, args.out)
    print(args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "test": _cmd_test,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"ftcfd: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"ftcfd: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArgumentError as exc:
        print(f"ftcfd: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ftcfd: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
