"""Batch command-line surface over the toolkit.

Subcommands: region | simulate | np | clt | tradeoff | optimize.  Every
run resolves its inputs into one self-contained configuration dict,
computes a table from it, and emits CSV or JSON through the shared
17-significant-digit writer.  The configuration is embedded in the
output header, and ``render_output`` on that embedded config reproduces
the file byte for byte -- the round-trip contract the tests enforce.

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

import numpy as np

from .binning import SchemeConfig, _trials, monte_carlo
from .cltverify import be_gap, density_law
from .errors import DomainError, ResourceLimitError, SearchError, ShapeError
from .nptest import beta_sandwich, np_beta
from .optimize import optimize_decomposition
from .probability import ConditionalPmf, JointPmf, Pmf, info_density, marginalize, regroup_pair
from .region import Decomposition, gamma_tradeoff, inner_bound, outer_bound, parse_gamma_rule
from .serialize import write_table

EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4


class _UsageError(Exception):
    """Raised for malformed flags or configs; mapped to exit code 3."""


class _IllFormedFile(Exception):
    """Raised for an input file that is not UTF-8 JSON; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on unknown flags; route that through the
    # invalid-parameter exit code instead, keeping 2 for real I/O trouble
    def error(self, message):
        raise _UsageError(message)


# =============================================================================
# configuration plumbing
# =============================================================================


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # bad syntax, undecodable bytes, an over-long integer literal
            raise _IllFormedFile(e) from e


def _ints(text: str) -> list:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as e:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from e


def _number(value, what: str):
    """``value`` unchanged if it is a JSON number (not a bool) with a
    finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _UsageError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, integers beyond float range
        raise _UsageError(f"{what} must be finite, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON number with an integral value, as an int."""
    value = _number(value, what)
    if isinstance(value, float) and not value.is_integer():
        raise _UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise _UsageError(f"{what} must be a string, got {value!r}")
    return value


def _numbers(value, what: str) -> list:
    """A JSON list of numbers, as floats."""
    if not isinstance(value, list):
        raise _UsageError(f"{what} must be a list of numbers, got {value!r}")
    return [float(_number(x, what)) for x in value]


def _matrix(value, what: str) -> list:
    """A JSON list of equally long lists of numbers, as floats."""
    if not isinstance(value, list):
        raise _UsageError(f"{what} must be a list of rows, got {value!r}")
    rows = [_numbers(row, f"{what}[{i}]") for i, row in enumerate(value)]
    if len({len(row) for row in rows}) > 1:
        raise _UsageError(f"{what} rows must have equal lengths, got {[len(row) for row in rows]}")
    return rows


def _decomposition_from(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise _UsageError("decomposition must be a JSON object")
    for key in ("p_u", "w_given_u", "v_given_w"):
        if key not in obj:
            raise _UsageError(f"decomposition JSON is missing {key!r}")
    return Decomposition(
        p_u=Pmf(np.array(_numbers(obj["p_u"], "p_u"))),
        w_given_u=ConditionalPmf(np.array(_matrix(obj["w_given_u"], "w_given_u"))),
        v_given_w=ConditionalPmf(np.array(_matrix(obj["v_given_w"], "v_given_w"))),
    )


def _decomposition_echo(d: Decomposition) -> dict:
    return {
        "p_u": d.p_u.probs.tolist(),
        "w_given_u": d.w_given_u.rows.tolist(),
        "v_given_w": d.v_given_w.rows.tolist(),
    }


def _gamma_rule_from(args, default: str | None) -> str | None:
    if getattr(args, "gamma", None) is not None:
        return "fixed:" + args.gamma
    if getattr(args, "gamma_rule", None) is not None:
        return args.gamma_rule
    return default


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coordsim", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, input_required: bool):
        sp.add_argument("--input", required=input_required, help="input JSON path")
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    def gamma_flags(sp):
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--gamma", default=None, metavar="G1,G2,G3")
        group.add_argument("--gamma-rule", default=None, metavar="RULE",
                           help="logn | linear:x | fixed:a,b,c")

    sp = subs.add_parser("region", help="inner/outer rate-region sweep")
    common(sp, True)
    sp.add_argument("--n", required=True, help="comma-separated blocklengths")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--eps1", type=float, default=None)
    sp.add_argument("--eps2", type=float, default=None)
    sp.add_argument("--y", type=float, default=0.75)
    gamma_flags(sp)

    sp = subs.add_parser("simulate", help="exact binning-scheme Monte Carlo")
    common(sp, True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    gamma_flags(sp)

    sp = subs.add_parser("np", help="optimal binary test and tail sandwich")
    common(sp, True)
    sp.add_argument("--eps", type=float, default=None, help="overrides the file's alpha")

    sp = subs.add_parser("clt", help="exact-vs-Gaussian tail gap per blocklength")
    common(sp, True)
    sp.add_argument("--n", required=True, help="comma-separated blocklengths")

    sp = subs.add_parser("tradeoff", help="rate-penalty / error-budget curve")
    common(sp, False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eps1", type=float, default=0.0)
    sp.add_argument("--eps2", type=float, default=0.0)

    sp = subs.add_parser("optimize", help="search a decomposition for a target")
    common(sp, True)
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    gamma_flags(sp)

    return parser


def resolve_config(args) -> dict:
    """Fold flags and input files into one self-contained config dict."""
    sub = args.subcommand
    if sub == "region":
        return {
            "subcommand": sub,
            "decomposition": _decomposition_echo(_decomposition_from(_load_json(args.input))),
            "ns": _ints(args.n),
            "eps": args.eps,
            "eps1": args.eps if args.eps1 is None else args.eps1,
            "eps2": args.eps if args.eps2 is None else args.eps2,
            "gamma_rule": _gamma_rule_from(args, "logn"),
            "y": args.y,
            "format": args.format,
        }
    if sub == "simulate":
        doc = _load_json(args.input)
        if not isinstance(doc, dict) or "decomposition" not in doc:
            raise _UsageError("simulate input JSON needs a 'decomposition' key")
        def pick(flag, key, default):
            if flag is not None:
                return flag
            return doc.get(key, default)
        config = {
            "subcommand": sub,
            "decomposition": _decomposition_echo(_decomposition_from(doc["decomposition"])),
            "n": _integer(pick(args.n, "n", 2), "n"),
            "rate_r": _number(doc.get("rate_r", 1.0), "rate_r"),
            "rate_r0": _number(doc.get("rate_r0", 1.0), "rate_r0"),
            "rate_rtilde": _number(doc.get("rate_rtilde", 1.0), "rate_rtilde"),
            "seed": _integer(pick(args.seed, "seed", 0), "seed"),
            "trials": _integer(pick(args.trials, "trials", 100), "trials"),
            "gamma_rule": _gamma_rule_from(
                args, _string(doc.get("gamma_rule", "logn"), "gamma_rule")
            ),
            "format": args.format,
        }
        return config
    if sub == "np":
        doc = _load_json(args.input)
        if not isinstance(doc, dict) or "p" not in doc or "q" not in doc:
            raise _UsageError("np input JSON needs 'p' and 'q' keys")
        alpha = args.eps if args.eps is not None else doc.get("alpha")
        if alpha is None:
            raise _UsageError("np needs an alpha (file key 'alpha' or flag --eps)")
        grid = doc.get("gamma_grid")
        return {
            "subcommand": sub,
            "p": _numbers(doc["p"], "p"),
            "q": _numbers(doc["q"], "q"),
            "alpha": float(_number(alpha, "alpha")),
            "gamma_grid": None if grid is None else _numbers(grid, "gamma_grid"),
            "format": args.format,
        }
    if sub == "clt":
        return {
            "subcommand": sub,
            "decomposition": _decomposition_echo(_decomposition_from(_load_json(args.input))),
            "ns": _ints(args.n),
            "format": args.format,
        }
    if sub == "tradeoff":
        xs = list(range(13))
        if args.input is not None:
            doc = _load_json(args.input)
            if not isinstance(doc, dict) or "xs" not in doc:
                raise _UsageError("tradeoff input JSON needs an 'xs' key")
            xs = _numbers(doc["xs"], "xs")
        return {
            "subcommand": sub,
            "xs": xs,
            "n": args.n,
            "eps1": args.eps1,
            "eps2": args.eps2,
            "format": args.format,
        }
    if sub == "optimize":
        doc = _load_json(args.input)
        if not isinstance(doc, dict) or "target_uv" not in doc or "w_size" not in doc:
            raise _UsageError("optimize input JSON needs 'target_uv' and 'w_size' keys")
        return {
            "subcommand": sub,
            "target_uv": _matrix(doc["target_uv"], "target_uv"),
            "w_size": _integer(doc["w_size"], "w_size"),
            "objective": _string(doc.get("objective", "r_min"), "objective"),
            "restarts": _integer(doc.get("restarts", 4), "restarts"),
            "seed": args.seed,
            "eps": args.eps,
            "n": args.n,
            "gamma_rule": _gamma_rule_from(args, "logn"),
            "format": args.format,
        }
    raise _UsageError(f"unknown subcommand {sub!r}")


# =============================================================================
# pure compute step: config dict -> (columns, rows, extra)
# =============================================================================


def run_config(config: dict):
    sub = config["subcommand"]
    if sub == "region":
        d = _decomposition_from(config["decomposition"])
        columns = ["n", "eps", "r_inner", "rr0_inner", "r_outer", "rr0_outer",
                   "eps_tot_bound", "valid"]
        rows = []
        for n in config["ns"]:
            g = parse_gamma_rule(config["gamma_rule"], n)
            ib = inner_bound(d, config["eps1"], config["eps2"], n, g)
            ob = outer_bound(d, config["eps"], n, config["y"])
            rows.append([n, config["eps"], ib.r_min, ib.r_plus_r0_min,
                         ob.r_min, ob.r_plus_r0_min, ib.eps_tot_bound, ob.valid])
        return columns, rows, None

    if sub == "simulate":
        d = _decomposition_from(config["decomposition"])
        cfg = SchemeConfig(
            n=config["n"],
            rate_r=float(config["rate_r"]),
            rate_r0=float(config["rate_r0"]),
            rate_rtilde=float(config["rate_rtilde"]),
            seed=config["seed"],
            decomposition=d,
        )
        trials = config["trials"]
        gamma = parse_gamma_rule(config["gamma_rule"], cfg.n)
        if config["format"] == "csv":
            columns = ["trial", "l1_uv", "l1_uv_given_f", "select_f_index",
                       "select_f_distance", "l1_index_fc", "decoder_error", "abort_rate"]
            rows = []
            for t, m in enumerate(_trials(d, cfg, trials)):
                rows.append([t, m.l1_uv, m.l1_uv_given_f, m.select_f_index,
                             m.select_f_distance, m.l1_index_fc, m.decoder_error,
                             m.abort_rate])
            return columns, rows, None
        rep = monte_carlo(d, cfg, trials, gamma)
        columns = ["l1_uv", "l1_uv_given_f", "l1_uv_given_f_min", "l1_index_fc",
                   "select_f_distance", "decoder_error", "abort_rate",
                   "eps_app", "eps_dec", "eps_app2", "eps_tot",
                   "trials", "seed", "ci95",
                   "rate_r_eff", "rate_r0_eff", "rate_rtilde_eff"]
        row = [rep.l1_uv, rep.l1_uv_given_f, rep.l1_uv_given_f_min, rep.l1_index_fc,
               rep.select_f_distance, rep.decoder_error, rep.abort_rate,
               rep.eps_app, rep.eps_dec, rep.eps_app2, rep.eps_tot,
               rep.trials, rep.seed, rep.ci95,
               rep.effective_rates[0], rep.effective_rates[1], rep.effective_rates[2]]
        return columns, [row], {"ci95_by_metric": dict(rep.ci95_by_metric)}

    if sub == "np":
        res = np_beta(config["p"], config["q"], config["alpha"])
        columns = ["alpha", "beta", "threshold", "randomization",
                   "worst_lower_slack", "worst_upper_slack", "sandwich_ok"]
        if config["gamma_grid"] is None:
            row = [config["alpha"], res.beta, res.threshold, res.randomization,
                   None, None, None]
        else:
            rep = beta_sandwich(config["p"], config["q"], config["alpha"],
                                config["gamma_grid"])
            row = [config["alpha"], res.beta, res.threshold, res.randomization,
                   rep.worst_lower_slack, rep.worst_upper_slack, rep.ok]
        return columns, [row], None

    if sub == "clt":
        d = _decomposition_from(config["decomposition"])
        pair = regroup_pair(marginalize(d.joint(), ("u", "w")), "w", "u")
        law = density_law(info_density(pair), pair)
        columns = ["n", "gap", "bound"]
        rows = []
        for n in config["ns"]:
            r = be_gap(law, n)
            rows.append([n, r.gap, r.bound])
        return columns, rows, None

    if sub == "tradeoff":
        pairs = gamma_tradeoff(config["xs"], config["n"], config["eps1"], config["eps2"])
        columns = ["x", "rate_penalty", "eps_bound"]
        rows = [[x, p, b] for x, (p, b) in zip(config["xs"], pairs)]
        return columns, rows, None

    if sub == "optimize":
        target = JointPmf(np.asarray(config["target_uv"], dtype=np.float64))
        gamma = parse_gamma_rule(config["gamma_rule"], config["n"])
        d = optimize_decomposition(
            target,
            config["w_size"],
            config["objective"],
            restarts=config["restarts"],
            seed=config["seed"],
            eps=config["eps"],
            n=config["n"],
            gamma=gamma,
        )
        ib = inner_bound(d, config["eps"], config["eps"], config["n"], gamma)
        columns = ["objective", "w_size", "r_inner", "rr0_inner",
                   "eps_tot_bound", "i_wu", "i_wuv"]
        row = [config["objective"], config["w_size"], ib.r_min, ib.r_plus_r0_min,
               ib.eps_tot_bound, ib.notes["i_wu"], ib.notes["i_wuv"]]
        return columns, [row], {"decomposition": _decomposition_echo(d)}

    raise _UsageError(f"unknown subcommand {sub!r}")


def render_output(config: dict) -> str:
    """Compute a config's table and render it; the round-trip primitive."""
    columns, rows, extra = run_config(config)
    sink = io.StringIO()
    write_table(sink, config, columns, rows, config["format"], extra=extra)
    return sink.getvalue()


# =============================================================================
# entry point
# =============================================================================


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        text = render_output(config)
    except _UsageError as e:
        print(f"coordsim: invalid parameters: {e}", file=sys.stderr)
        return EXIT_INVALID
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

    try:
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as f:
                f.write(text)
    except OSError as e:
        print(f"coordsim: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
