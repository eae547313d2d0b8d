"""Batch command-line surface over the toolkit.

Subcommands: region | simulate | np | clt | tradeoff | optimize, each one
``_Command``: its flags, a resolver that folds flags and input file into
one self-contained configuration dict, and a runner that computes a table
from that dict, emitted as CSV or JSON through the shared
17-significant-digit writer.  The configuration is embedded in the output
header, and ``render_output`` on that embedded config reproduces the file
byte for byte -- the round-trip contract the tests enforce.

Exit codes: 0 success; 2 I/O trouble (missing/unreadable files, and files
that are not UTF-8 JSON); 3 invalid parameters (unknown flags, input-file
values of the wrong JSON type or shape, and every ``DomainError``,
``ShapeError`` and ``SearchError``); 4 resource-cap exceedance, with the
required size in the message.  Any other exception -- a bare
``CoordsimError`` invariant, a stray ``ValueError`` -- is an internal error
and propagates with its traceback.  The table-size cap itself honors the
COORDSIM_MEM_CAP environment variable.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from .binning import SchemeConfig, TrialMetrics, _trials, monte_carlo
from .cltverify import be_gap, density_law
from .errors import DomainError, ResourceLimitError, SearchError, ShapeError
from .nptest import _np_report
from .optimize import optimize_decomposition
from .probability import ConditionalPmf, JointPmf, Pmf, check_blocklength, check_eps
from .probability import check_positive, info_density, marginalize, regroup_pair
from .region import Decomposition, gamma_tradeoff, inner_bound, outer_bound, parse_gamma_rule
from .serialize import write_table

EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4


class _IllFormedFile(Exception):
    """Raised for an input file that is not UTF-8 JSON; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on unknown flags; route that through the
    # invalid-parameter exit code instead, keeping 2 for real I/O trouble
    def error(self, message):
        raise DomainError(message)


# =============================================================================
# configuration plumbing
# =============================================================================


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # bad syntax, undecodable bytes, an over-long integer literal
            raise _IllFormedFile(e) from e


def _document(args, needs: str) -> dict:
    """The input file of ``args``, a JSON object with every key quoted in
    ``needs`` (e.g. "'p' and 'q' keys")."""
    doc = _load_json(args.input)
    if not (isinstance(doc, dict) and all(key in doc for key in needs.split("'")[1::2])):
        raise DomainError(f"{args.subcommand} input JSON needs {needs}")
    return doc


def _ints(text: str) -> list:
    try:
        ints = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        ints = []
    if not ints:
        raise DomainError(f"expected comma-separated integers, got {text!r}")
    return ints


def _number(value, what: str):
    """``value`` unchanged if it is a JSON number (not a bool) with a
    finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, integers beyond float range
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def _numbers(value, what: str) -> list:
    """A JSON list of numbers, as floats.  A list of ints and floats only is
    converted as one array, kept when each float is below the largest
    float in magnitude (then each entry is one ``_number`` accepts, and
    each float its ``float(x)``); any other list goes entry by entry
    through ``_number``, which raises for the first bad one."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list of numbers, got {value!r}")
    if set(map(type, value)) <= {int, float}:  # a bool's type is bool
        try:
            floats = np.array(value, dtype=np.float64)
        except OverflowError:  # an int beyond float range
            pass
        else:
            if np.all(np.abs(floats) < sys.float_info.max):  # NaN and infinities fail
                return floats.tolist()
    return [float(_number(x, what)) for x in value]


def _matrix(value, what: str) -> list:
    """A JSON list of equally long lists of numbers, as floats."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list of rows, got {value!r}")
    rows = [_numbers(row, f"{what}[{i}]") for i, row in enumerate(value)]
    if len({len(row) for row in rows}) > 1:
        raise DomainError(f"{what} rows must have equal lengths, got {[len(row) for row in rows]}")
    return rows


def _decomposition(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise DomainError("decomposition must be a JSON object")
    for key in ("p_u", "w_given_u", "v_given_w"):
        if key not in obj:
            raise DomainError(f"decomposition JSON is missing {key!r}")
    return Decomposition(
        p_u=Pmf(np.array(_numbers(obj["p_u"], "p_u"))),
        w_given_u=ConditionalPmf(np.array(_matrix(obj["w_given_u"], "w_given_u"))),
        v_given_w=ConditionalPmf(np.array(_matrix(obj["v_given_w"], "v_given_w"))),
    )


def _echo(d: Decomposition) -> dict:
    return {"p_u": d.p_u.probs.tolist(), "w_given_u": d.w_given_u.rows.tolist(),
            "v_given_w": d.v_given_w.rows.tolist()}


def _gamma_rule(args, default: str) -> str:
    if args.gamma is not None:
        return "fixed:" + args.gamma
    rule = default if args.gamma_rule is None else args.gamma_rule
    if not isinstance(rule, str):  # checked here: a per-trial trace never parses it
        raise DomainError(f"gamma rule must be a string, got {rule!r}")
    return rule


# =============================================================================
# subcommands: resolve (args -> config entries) and run (config -> table)
# =============================================================================

_RATES = ("rate_r", "rate_r0", "rate_rtilde")
# SimReport attributes in column order; the three effective rates follow
_REPORT_COLUMNS = ("l1_uv", "l1_uv_given_f", "l1_uv_given_f_min", "l1_index_fc",
                   "select_f_distance", "decoder_error", "abort_rate",
                   "eps_app", "eps_dec", "eps_app2", "eps_tot", "trials", "seed", "ci95")


def _resolve_sweep(args) -> dict:
    """A decomposition file and the --n blocklengths: all of clt, the start of region."""
    return {"decomposition": _echo(_decomposition(_load_json(args.input))), "ns": _ints(args.n)}


def _resolve_region(args) -> dict:
    return {**_resolve_sweep(args), "eps": args.eps,
            "eps1": args.eps if args.eps1 is None else args.eps1,
            "eps2": args.eps if args.eps2 is None else args.eps2,
            "gamma_rule": _gamma_rule(args, "logn"), "y": args.y}


def _run_region(config: dict):
    d = _decomposition(config["decomposition"])
    rows = []
    for n in config["ns"]:
        g = parse_gamma_rule(config["gamma_rule"], n)
        ib = inner_bound(d, config["eps1"], config["eps2"], n, g)
        ob = outer_bound(d, config["eps"], n, config["y"])
        rows.append([n, config["eps"], ib.r_min, ib.r_plus_r0_min,
                     ob.r_min, ob.r_plus_r0_min, ib.eps_tot_bound, ob.valid])
    columns = ["n", "eps", "r_inner", "rr0_inner", "r_outer", "rr0_outer",
               "eps_tot_bound", "valid"]
    return columns, rows, None


def _resolve_simulate(args) -> dict:
    doc = _document(args, "a 'decomposition' key")

    def whole(key, default, least=1):  # a flag overrides the file
        flag = getattr(args, key)
        return check_blocklength(doc.get(key, default) if flag is None else flag, key, least)

    return {
        "decomposition": _echo(_decomposition(doc["decomposition"])),
        "n": whole("n", 2),
        **{key: check_positive(doc.get(key, 1.0), key, zero=True) for key in _RATES},
        "seed": whole("seed", 0, least=0),
        "trials": whole("trials", 100),
        "gamma_rule": _gamma_rule(args, doc.get("gamma_rule", "logn")),
    }


def _run_simulate(config: dict):
    d = _decomposition(config["decomposition"])
    cfg = SchemeConfig(n=config["n"], seed=config["seed"], decomposition=d,
                       **{key: config[key] for key in _RATES})
    if config["format"] == "csv":  # the per-trial trace reads no gamma
        metrics = [field.name for field in fields(TrialMetrics)]
        rows = [[t, *(getattr(m, key) for key in metrics)]
                for t, m in enumerate(_trials(d, cfg, config["trials"]))]
        return ["trial", *metrics], rows, None
    rep = monte_carlo(d, cfg, config["trials"], parse_gamma_rule(config["gamma_rule"], cfg.n))
    row = [*(getattr(rep, key) for key in _REPORT_COLUMNS), *rep.effective_rates]
    columns = [*_REPORT_COLUMNS, "rate_r_eff", "rate_r0_eff", "rate_rtilde_eff"]
    return columns, [row], {"ci95_by_metric": dict(rep.ci95_by_metric)}


def _resolve_np(args) -> dict:
    doc = _document(args, "'p' and 'q' keys")
    alpha = doc.get("alpha") if args.eps is None else args.eps
    if alpha is None:
        raise DomainError("np needs an alpha (file key 'alpha' or flag --eps)")
    grid = doc.get("gamma_grid")
    return {"p": _numbers(doc["p"], "p"), "q": _numbers(doc["q"], "q"),
            "alpha": check_eps(alpha, "alpha must lie strictly inside (0, 1)"),
            "gamma_grid": None if grid is None else _numbers(grid, "gamma_grid")}


def _run_np(config: dict):
    alpha = config["alpha"]
    res, rep = _np_report(config["p"], config["q"], alpha, config["gamma_grid"])
    row = [alpha, res.beta, res.threshold, res.randomization, None, None, None]
    if rep is not None:
        row[4:] = rep.worst_lower_slack, rep.worst_upper_slack, rep.ok
    columns = ["alpha", "beta", "threshold", "randomization",
               "worst_lower_slack", "worst_upper_slack", "sandwich_ok"]
    return columns, [row], None


def _run_clt(config: dict):
    d = _decomposition(config["decomposition"])
    pair = regroup_pair(marginalize(d.joint(), ("u", "w")), "w", "u")
    law = density_law(info_density(pair), pair)
    gaps = [be_gap(law, n) for n in config["ns"]]
    rows = [[n, r.gap, r.bound] for n, r in zip(config["ns"], gaps)]
    return ["n", "gap", "bound"], rows, None


def _resolve_tradeoff(args) -> dict:
    xs = list(range(13))
    if args.input is not None:
        xs = _numbers(_document(args, "an 'xs' key")["xs"], "xs")
    return {"xs": xs, "n": args.n, "eps1": args.eps1, "eps2": args.eps2}


def _run_tradeoff(config: dict):
    pairs = gamma_tradeoff(config["xs"], config["n"], config["eps1"], config["eps2"])
    rows = [[x, p, b] for x, (p, b) in zip(config["xs"], pairs)]
    return ["x", "rate_penalty", "eps_bound"], rows, None


def _resolve_optimize(args) -> dict:
    doc = _document(args, "'target_uv' and 'w_size' keys")
    return {
        "target_uv": _matrix(doc["target_uv"], "target_uv"),
        "w_size": check_blocklength(doc["w_size"], "w_size"),
        "objective": doc.get("objective", "r_min"),
        "restarts": check_blocklength(doc.get("restarts", 4), "restarts"),
        "seed": args.seed, "eps": args.eps, "n": args.n,
        "gamma_rule": _gamma_rule(args, "logn"),
    }


def _run_optimize(config: dict):
    target = JointPmf(np.asarray(config["target_uv"], dtype=np.float64))
    gamma = parse_gamma_rule(config["gamma_rule"], config["n"])
    d = optimize_decomposition(target, config["w_size"], config["objective"],
                               restarts=config["restarts"], seed=config["seed"],
                               eps=config["eps"], n=config["n"], gamma=gamma)
    ib = inner_bound(d, config["eps"], config["eps"], config["n"], gamma)
    columns = ["objective", "w_size", "r_inner", "rr0_inner",
               "eps_tot_bound", "i_wu", "i_wuv"]
    row = [config["objective"], config["w_size"], ib.r_min, ib.r_plus_r0_min,
           ib.eps_tot_bound, ib.notes["i_wu"], ib.notes["i_wuv"]]
    return columns, [row], {"decomposition": _echo(d)}


class _Command(NamedTuple):
    help: str
    resolve: Callable  # parsed args -> the config entries of this subcommand
    run: Callable  # config -> (columns, rows, extra JSON payload or None)
    flags: dict  # flag -> add_argument keywords, after --input, --output, --format
    gamma: bool = False  # whether --gamma / --gamma-rule follow
    input_required: bool = True


_NS = {"--n": dict(required=True, help="comma-separated blocklengths")}
_COMMANDS = {
    "region": _Command("inner/outer rate-region sweep", _resolve_region, _run_region, {
        **_NS, "--eps": dict(type=float, default=0.1), "--eps1": dict(type=float),
        "--eps2": dict(type=float), "--y": dict(type=float, default=0.75)}, gamma=True),
    "simulate": _Command("exact binning-scheme Monte Carlo", _resolve_simulate, _run_simulate, {
        "--n": dict(type=int), "--seed": dict(type=int), "--trials": dict(type=int)}, gamma=True),
    "np": _Command("optimal binary test and tail sandwich", _resolve_np, _run_np, {
        "--eps": dict(type=float, help="overrides the file's alpha")}),
    "clt": _Command("exact-vs-Gaussian tail gap per blocklength", _resolve_sweep, _run_clt, _NS),
    "tradeoff": _Command("rate-penalty / error-budget curve", _resolve_tradeoff, _run_tradeoff, {
        "--n": dict(type=int, required=True), "--eps1": dict(type=float, default=0.0),
        "--eps2": dict(type=float, default=0.0)}, input_required=False),
    "optimize": _Command("search a decomposition for a target", _resolve_optimize, _run_optimize, {
        "--n": dict(type=int, default=10_000), "--eps": dict(type=float, default=0.1),
        "--seed": dict(type=int, default=0)}, gamma=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coordsim", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sp = subs.add_parser(name, help=command.help)
        sp.add_argument("--input", required=command.input_required, help="input JSON path")
        sp.add_argument("--output", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag, options in command.flags.items():
            sp.add_argument(flag, **options)
        if command.gamma:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--gamma", metavar="G1,G2,G3")
            group.add_argument("--gamma-rule", metavar="RULE",
                               help="logn | linear:x | fixed:a,b,c")
    return parser


def resolve_config(args) -> dict:
    """Fold flags and input files into one self-contained config dict."""
    sub = args.subcommand
    return {"subcommand": sub, **_COMMANDS[sub].resolve(args), "format": args.format}


def render_output(config: dict) -> str:
    """Compute a config's table and render it; the round-trip primitive."""
    columns, rows, extra = _COMMANDS[config["subcommand"]].run(config)
    sink = io.StringIO()
    write_table(sink, config, columns, rows, config["format"], extra=extra)
    return sink.getvalue()


# =============================================================================
# entry point
# =============================================================================


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = render_output(resolve_config(args))
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as f:
                f.write(text)
    except _IllFormedFile as e:
        print(f"coordsim: unreadable input file: {e}", file=sys.stderr)
        return EXIT_IO
    except ResourceLimitError as e:
        need = f" (required {e.required})" if e.required is not None else ""
        print(f"coordsim: resource cap exceeded{need}: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ShapeError, SearchError) as e:
        print(f"coordsim: invalid parameters: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"coordsim: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
