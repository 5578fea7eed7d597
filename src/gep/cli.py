"""Command-line entry point.

Subcommands:

* ``train``         -- run the experiment grid described by a config file
* ``accountant``    -- calibrate a noise multiplier for a budget
* ``bench``         -- check power-iteration cost against the flop model
* ``project-error`` -- projection-error sweep tables
* ``report``        -- summarize previously written metrics files

Each subcommand calls one function of :mod:`gep.harness` with the options
given; an option left out takes that function's default.  Exit codes: 0
success, 1 runtime failure, 2 configuration error.  The commands raise on
errors, and :func:`main` alone maps each exception to its message and
code; a command's own return value is its code otherwise (``bench``
returns 1 for a ratio outside its band).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .accounting import CalibrationError
from .config import ConfigError
from .training import DivergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gep",
        description="Differentially private training with anchor-subspace gradient releases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, function: str, help: str) -> argparse.ArgumentParser:
        # SUPPRESS: an option not given is no keyword argument at all
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(function=function)
        return p

    p = command("train", "train_command", "run experiments from a config file")
    p.add_argument(
        "--config", dest="config_path", metavar="CONFIG", required=True,
        help="path to a run config",
    )
    p.add_argument("--seed", type=int, help="override the seed list")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--method", help="override the method list")

    p = command("accountant", "accountant_command", "calibrate a noise multiplier")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--q", type=float, help="sampling rate (search mode)")
    p.add_argument("--mode", choices=harness.ACCOUNTANT_MODES)

    p = command("bench", "bench_command", "power-iteration cost model check")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--groups", type=int, nargs="+", help="group counts to test")

    p = command("project-error", "project_error_command", "projection-error sweep tables")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", dest="ks", metavar="K", type=int, nargs="+")
    p.add_argument("--n", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--m", dest="m_aux", metavar="M", type=int)
    p.add_argument("--task", dest="task_kind", choices=harness.PROJECT_ERROR_TASKS)

    p = command("report", "report_command", "summarize metrics files")
    p.add_argument("--out", required=True, help="directory holding metrics files")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    # looked up now, so a wrapper set on gep.harness is the one called
    function = getattr(harness, args.pop("function"))
    try:
        return function(**args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CalibrationError as err:
        print(f"calibration failure: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    except harness.MetricsError as err:
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
