"""Command-line entry point: matrix sampling, spectra, rate tables, partition
ratio sweeps and the Monte Carlo experiments, with stable CSV output formats.

Each subcommand is one entry of the command table COMMANDS.  `main` builds the
parser of the invoked subcommand alone, and of all of them for help or a bad name.
Campaign flags have ExperimentConfig's field names as dest.  Precedence: a given
flag, the --config file, ExperimentConfig's defaults.

All CSV output is locale-independent: '.' decimal separator, '\\n' line
endings, 17 significant digits.  Infinite markers render as 'inf'/'-inf',
undefined values as 'nan'.  Exit codes: 0 success, 1 assertion failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import datetime
import json
import math
import os
import pathlib
import sys

import numpy as np

from . import __version__
from .analytic import rate_J
from .experiments import ExperimentConfig, run_esd_check, run_tail_sweep, run_tailbound_check
from .model import RegimeSchedule, make_params
from .partition import compare_ratios
from .sampler import STREAM_CONTRACT, SeededStream, cell_key, dump_matrix, load_matrix, sample_matrix
from . import eig as eigmod


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows: list) -> None:
    """With header None, the rows alone."""
    lines = [",".join(header)] if header else []
    text = "".join(line + "\n" for line in lines + [",".join(map(_fmt, row)) for row in rows])
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


# the most points an 'a:step:b' grid may expand to
_MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list:
    """Either 'start:step:stop' (inclusive, at most _MAX_GRID_POINTS points) or
    a comma-separated list, of finite values."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid {text!r} holds a value that is not a number") from None
    if not values:
        raise argparse.ArgumentTypeError(f"grid {text!r} holds no value")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    if not ranged:
        return values
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"grid {text!r} is not 'start:step:stop'")
    start, step, stop = values
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid {text!r} has a step <= 0")
    if stop < start:
        raise argparse.ArgumentTypeError(f"grid {text!r} stops below its start")
    span = (stop - start) / step  # inf when stop - start overflows
    if span > _MAX_GRID_POINTS - 1:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    # truncate, so that no point passes stop, but let a span short of an
    # integer by rounding (2.1:0.1:2.5 gives 3.9999999999999996) reach it
    return [start + i * step for i in range(int(span + 1e-9) + 1)]


def _parse_n_list(text: str) -> list:
    """Comma-separated integral sizes; '1e3' is 1000, '200.7', 'abc' and ',' errors."""
    try:
        sizes = [float(p) for p in text.split(",") if p]
    except ValueError:  # 'abc' is not an integer either
        sizes = [math.nan]
    if not sizes:
        raise argparse.ArgumentTypeError(f"sizes must be a nonempty list, got {text!r}")
    if not all(n.is_integer() for n in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be integers, got {text!r}")
    return [int(n) for n in sizes]


# each --schedule name: its RegimeSchedule kind and exponent, or the flag that holds it
_SCHEDULES = {"invlogsq": ("inverse_log_power", 2.0), "invlog": ("inverse_log_power", "p"),
              "power": ("power_decay", "gamma"), "const": ("constant", 0.0)}


def _schedule_from_args(args, config: dict) -> RegimeSchedule:
    name = args.schedule
    if name is None and "schedule" in config:
        return RegimeSchedule.from_dict(config["schedule"])
    if name is None:
        raise ValueError(f"a --schedule is required ({', '.join(_SCHEDULES)})")
    if name not in _SCHEDULES:
        raise ValueError(f"unknown schedule {name!r}")
    kind, exponent = _SCHEDULES[name]
    if isinstance(exponent, str):
        flag, exponent = exponent, getattr(args, exponent)
        if exponent is None:
            raise ValueError(f"--schedule {name} requires --{flag}")
    return RegimeSchedule(kind, args.c, exponent)


def _load_config_file(path) -> dict:
    if path is None:
        return {}

    def reject(constant):  # json.load reads NaN and Infinity by default
        raise ValueError(f"config file {path} holds {constant}, which is not a JSON number")

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=reject)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if not isinstance(data.get("config"), dict):
        return data
    if data.get("stream_contract") != STREAM_CONTRACT:  # its config would draw other matrices
        raise ValueError(f"manifest {path} was run under stream contract {data.get('stream_contract')!r}, "
                         f"not this version's {STREAM_CONTRACT!r}")
    return data["config"]  # a run manifest round-trips as a config


_NUMBER = (int, float)
# each ExperimentConfig field's JSON type; lists hold numbers, not bools
_CONFIG_TYPES = {"schedule": dict, "n_values": list, "replicas": _NUMBER, "x_grid": list,
                 "t_grid": list, "master_seed": _NUMBER, "workers": _NUMBER, "plus_one_alpha": bool}


def _experiment_config(args) -> ExperimentConfig:
    """Given flags over config-file values over ExperimentConfig's defaults."""
    config = _load_config_file(args.config)
    unknown = sorted(set(config) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    for key, value in config.items():
        items = value if isinstance(value, list) else ()
        if not isinstance(value, _CONFIG_TYPES[key]) or not all(type(v) in _NUMBER for v in items):
            raise ValueError(f"config key {key!r} has the wrong JSON type: {value!r}")
    # args.schedule is the CLI's schedule name, not the field; 0 is a given value
    fields = dict(config, **{key: value for key, value in vars(args).items() if key in _CONFIG_TYPES
                             and key != "schedule" and value is not None and value is not False})
    fields["schedule"] = _schedule_from_args(args, config)
    if "n_values" not in fields:
        raise ValueError("--n is required")
    return ExperimentConfig(**fields)


def _write_manifest(path, cfg: ExperimentConfig, outputs: list) -> None:
    if path is None:
        return
    import hashlib  # 3 ms each to import, and only a manifest needs them
    import platform

    files = [o for o in outputs if o not in (None, "-")]
    manifest = {
        "tool_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "master_seed": cfg.master_seed,
        "stream_contract": STREAM_CONTRACT,
        "solver": dict(eigmod.SOLVER, library=os.path.basename(eigmod.library()[0])),
        "timestamp": datetime.datetime.now(tz=datetime.timezone.utc).isoformat(),
        "config": dataclasses.asdict(cfg),
        "outputs": files,
        "sha256": {o: hashlib.sha256(pathlib.Path(o).read_bytes()).hexdigest() for o in files},
    }
    _write_json(path, manifest)


def _write_summary(path, checks) -> None:
    if path is not None:
        _write_json(path, {"passed": all(c.passed for c in checks), "checks": [c._asdict() for c in checks]})


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    pathlib.Path(path).write_text(text, encoding="utf-8", newline="\n")


def _add_schedule_flags(sp, required=False):
    sp.add_argument("--schedule", required=required, help=" | ".join(_SCHEDULES))
    sp.add_argument("--c", type=float, default=1.0, help="schedule coefficient")
    sp.add_argument("--p", type=float, default=1.0, help="log-power exponent (invlog)")
    sp.add_argument("--gamma", type=float, help="decay exponent (power)")


def _add_experiment_flags(sp, grid=None, summary=True):
    """The flags of a campaign subcommand; grid names its --x or --t grid, if
    any, and summary adds --summary for a subcommand with pass/fail checks."""
    _add_schedule_flags(sp)
    sp.add_argument("--n", dest="n_values", metavar="N", type=_parse_n_list,
                    help="comma list of ensemble sizes")
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    sp.add_argument("--workers", type=int, help="worker processes (default: the core count)")
    sp.add_argument("--plus-one-alpha", action="store_true", help="use alpha = 1 + n*beta/2")
    sp.add_argument("--config", help="JSON config file or run manifest (flags > config > defaults)")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    if summary:
        sp.add_argument("--summary", help="JSON pass/fail summary path")
    sp.add_argument("--manifest", help="run-manifest JSON path")
    if grid is not None:
        sp.add_argument(grid, dest=f"{grid[2:]}_grid", metavar=grid[2:].upper(), type=_parse_grid,
                        help=f"{grid[2:]} grid 'a:step:b' or comma list")


def _add_sample_args(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--seed", type=int, default=ExperimentConfig.master_seed, help="master seed, as a campaign's")
    sp.add_argument("--stream", type=int, default=0, help="replica index r: a campaign's replica r at this "
                    "--seed and --n, 0 <= r < B(n) * 2^63 with B(n) = max(1, 2048 // n)")
    sp.add_argument("--plus-one-alpha", action="store_true")
    sp.add_argument("--out", required=True, help="dump file path")


def _add_eig_args(sp):
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--out", default=None)


def _add_rate_args(sp):
    sp.add_argument("--x", type=_parse_grid, required=True, help="x grid 'a:step:b' or comma list")
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _add_partition_args(sp):
    _add_schedule_flags(sp, required=True)
    sp.add_argument("--n", type=_parse_n_list, required=True)
    sp.add_argument("--out", default=None)


def _add_check_args(sp):
    sp.add_argument("--workers", type=int, default=ExperimentConfig.workers,
                    help="worker processes (default: the core count)")
    sp.add_argument("--quick", action="store_true",
                    help="reduced replica counts; smoke mode, not the official gate")


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `command` of that one alone."""
    ap = argparse.ArgumentParser(
        prog="hitemp",
        description="Gaussian beta-ensemble at high temperature: sampling, spectra and rate diagnostics.")
    # one subparser alone would make the usage line list only its name; an
    # explicit metavar on the full parser would rename "command" in its errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for cmd in COMMANDS.values():
        if command in (None, cmd.name):
            cmd.add_arguments(sub.add_parser(cmd.name, help=cmd.help))
    return ap


def _cmd_sample(args) -> int:
    params = make_params(args.n, args.beta, plus_one_alpha=args.plus_one_alpha)
    dump_matrix(sample_matrix(params, SeededStream(cell_key(args.seed, args.n), args.stream)), args.out)
    return 0


def _cmd_eig(args) -> int:
    tri = load_matrix(args.matrix)
    _write_csv(args.out, None, [[v] for v in eigmod.batch_spectra(tri.diag[None], tri.offdiag[None])[0]])
    return 0


def _cmd_rate(args) -> int:
    # phi = -J(|x|) - 1/2, which loses no digits to log_potential_semicircle(x) - x^2/4
    rows = [[x, rate_J(x), -0.5 - (rate_J(abs(x)) if abs(x) > 2.0 else 0.0)] for x in args.x]
    _write_csv(args.out, ["x", "J", "phi"], rows)
    return 0


def _cmd_partition(args) -> int:
    schedule = _schedule_from_args(args, {})
    comparisons = [compare_ratios(n, schedule.beta(n)) for n in args.n]
    rows = [[r.lemma, r.n, r.beta, r.exact_log_ratio, r.asymptotic_log_ratio, r.gap]
            for lemma in zip(*comparisons) for r in lemma]  # all shift rows, then all perturbed
    _write_csv(args.out, ["lemma", "n", "beta", "exact", "asymptotic", "gap"], rows)
    return 0


def _cmd_campaign(args, run) -> int:
    """Runs the campaign run(cfg) -> Report: its records are the CSV rows, and
    a failed check exits 1."""
    cfg = _experiment_config(args)
    report = run(cfg)
    header = ["pass" if f == "passed" else f for f in report.rows[0]._fields]  # "pass" is a keyword
    _write_csv(args.out, header, report.rows)
    _write_summary(getattr(args, "summary", None), report.checks)
    _write_manifest(args.manifest, cfg, [args.out])
    return 0 if all(c.passed for c in report.checks) else 1


def _cmd_check(args) -> int:
    from .acceptance import run_all

    if args.workers < 1:  # before criterion 1 runs, not at criterion 5's config
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    results = run_all(args.workers, quick=args.quick, log=print)
    return 0 if all(r.passed for r in results) else 1


# add_arguments(subparser) declares a subcommand's arguments; handler(args) runs
# it.  A campaign's handler looks its runner up here at call time, wrappers included
Command = collections.namedtuple("Command", "name help add_arguments handler")
COMMANDS = {cmd.name: cmd for cmd in (
    Command("sample", "emit one tridiagonal matrix dump", _add_sample_args, _cmd_sample),
    Command("eig", "spectrum of a dumped matrix, one eigenvalue per line", _add_eig_args, _cmd_eig),
    Command("rate", "closed-form rate J(x) and phi(x, semicircle) over an x grid", _add_rate_args, _cmd_rate),
    Command("partition", "partition-ratio comparison sweep", _add_partition_args, _cmd_partition),
    Command("tail", "largest-particle tail bound check",
            lambda sp: _add_experiment_flags(sp, "--t"),
            lambda a: _cmd_campaign(a, run_tailbound_check)),
    Command("sweep", "LDP tail sweep: empirical rate vs J",
            lambda sp: _add_experiment_flags(sp, "--x", summary=False),
            lambda a: _cmd_campaign(a, run_tail_sweep)),
    Command("esd", "empirical-spectral-measure convergence check", _add_experiment_flags,
            lambda a: _cmd_campaign(a, run_esd_check)),
    Command("check", "run the acceptance suite", _add_check_args, _cmd_check),
)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse would take a grid '-3:0.5:3' for an option
        if argv[i - 1] in ("--x", "--t") and argv[i][:1] == "-" and argv[i][1:].lstrip(".")[:1].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except (ValueError, OSError) as exc:
        print(f"hitemp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
