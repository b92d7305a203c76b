"""Command-line surface: graph generation, dualness, bounds, experiments.

Exit codes: 0 on success (including an INFEASIBLE construction result,
which is an answer, not an error), 1 on usage and file errors (a file
that is missing or does not parse), 2 on solver errors."""

import argparse
import sys

from . import __version__
from .alignment import SolverConfig, run_pair, verify_circulant_duality
from .dual_construct import FEASIBLE, construct_dual
from .dup import build_coupling, dup_bound
from .errors import (GftDualError, IndexOutOfRangeError,
                     NonPositiveWeightError, OffsetOutOfRangeError,
                     ParseError, RepeatedEigenvaluesError)
from .experiment import (ExperimentConfig, plot_fig1, read_csv,
                         run_experiment, write_csv)
from .graphs import circulant, erdos_renyi, read_graph_file, write_graph
from .spectral import (eigendecompose, has_distinct_eigenvalues,
                       minimum_eigenvalue_gap)

NUMBER_FORMAT = "%.12g"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here
    reserves 2 for solver errors, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _parse_offsets(text):
    offsets = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            k, w = item.split(":", 1)
            offsets.append((int(k), float(w)))
        else:
            offsets.append((int(item), 1.0))
    return offsets


def _parse_n_list(text):
    return tuple(int(part) for part in text.split(",") if part.strip())


def _solver_config(args):
    return SolverConfig(epsilon=args.epsilon,
                        max_iterations=args.max_iter,
                        restarts=args.restarts,
                        seed=args.seed)


def _add_solver_flags(parser):
    parser.add_argument("--restarts", type=int, default=200)
    parser.add_argument("--epsilon", type=float, default=1e-8)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)


def _generated_graph(args):
    """The graph gen asks for; no or both families, or a malformed or
    out-of-range value, raise ValueError."""
    if (args.er is None) == (args.circulant is None):
        raise ValueError("gen needs exactly one of --er or --circulant")
    option, values = (("--er", args.er) if args.er is not None
                      else ("--circulant", args.circulant))
    try:
        if args.er is not None:
            return erdos_renyi(int(args.er[0]), float(args.er[1]), args.seed)
        return circulant(int(args.circulant[0]),
                         _parse_offsets(args.circulant[1]))
    except (ValueError, IndexOutOfRangeError, NonPositiveWeightError,
            OffsetOutOfRangeError) as exc:
        raise ValueError("%s %s: %s"
                         % (option, " ".join(values), exc)) from exc


def _cmd_gen(args):
    _emit(write_graph(args.config), args.output)
    return 0


def _cmd_dualness(args):
    g1 = read_graph_file(args.graph1)
    g2 = read_graph_file(args.graph2)
    solution = run_pair(g1, g2, args.method.upper(), args.config)
    sys.stdout.write("objective " + NUMBER_FORMAT % solution.objective + "\n")
    sys.stdout.write("dualness " + NUMBER_FORMAT % solution.dualness + "\n")
    return 0


def _cmd_bound(args):
    g1 = read_graph_file(args.graph1)
    g2 = read_graph_file(args.graph2)
    dec1 = eigendecompose(g1)
    dec2 = eigendecompose(g2)
    for name, dec in (("first", dec1), ("second", dec2)):
        if not has_distinct_eigenvalues(dec):
            raise RepeatedEigenvaluesError(
                "%s graph has repeated eigenvalues" % name,
                min_gap=minimum_eigenvalue_gap(dec))
    result = dup_bound(build_coupling(dec1.vectors, dec2.vectors))
    sys.stdout.write("bound " + NUMBER_FORMAT % result.bound + "\n")
    sys.stdout.write("cuts %d\n" % result.cuts)
    sys.stdout.write("sweeps %d\n" % result.sweeps)
    sys.stdout.write("gap " + NUMBER_FORMAT % result.gap + "\n")
    return 0


def _cmd_dual_construct(args):
    graph = read_graph_file(args.graph)
    result = construct_dual(graph)
    if result.status == FEASIBLE:
        values = " ".join(NUMBER_FORMAT % x for x in result.lambda_)
        sys.stdout.write("FEASIBLE\nlambda " + values + "\n")
    else:
        sys.stdout.write("INFEASIBLE\n")
    return 0


def _cmd_circulant_check(args):
    g1 = read_graph_file(args.graph1)
    g2 = read_graph_file(args.graph2)
    residual = verify_circulant_duality(g1, g2)
    sys.stdout.write("residual " + NUMBER_FORMAT % residual + "\n")
    return 0


def _experiment_config(args):
    return ExperimentConfig(
        n_values=_parse_n_list(args.n), p=args.p, trials=args.trials,
        restarts=args.restarts, epsilon=args.epsilon,
        max_iterations=args.max_iter, seed=args.seed,
        methods=tuple(m.strip().upper() for m in args.methods.split(",")))


def _cmd_experiment(args):
    records = run_experiment(args.config)
    _emit(write_csv(records), args.output)
    if args.plot is not None:
        _emit(plot_fig1(records), args.plot)
    return 0


def _cmd_plot(args):
    with open(args.csv) as handle:
        records = read_csv(handle.read())
    _emit(plot_fig1(records), args.output)
    return 0


def _build_parser():
    parser = _Parser(prog="gftdual",
                     description="Dualness of graph pairs under the graph "
                                 "Fourier transform.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a graph file")
    gen.add_argument("--er", nargs=2, metavar=("N", "P"),
                     help="Erdos-Renyi G(N, P)")
    gen.add_argument("--circulant", nargs=2, metavar=("N", "OFFSETS"),
                     help="circulant on N vertices, OFFSETS like 1:1.0,2:0.5")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(handler=_cmd_gen, configure=_generated_graph)

    dualness = commands.add_parser("dualness",
                                   help="multistart dualness of a pair")
    dualness.add_argument("graph1")
    dualness.add_argument("graph2")
    dualness.add_argument("--method", choices=("cd", "cdpm"), default="cd")
    _add_solver_flags(dualness)
    dualness.set_defaults(handler=_cmd_dualness, configure=_solver_config)

    bound = commands.add_parser("bound", help="certified upper bound")
    bound.add_argument("graph1")
    bound.add_argument("graph2")
    bound.set_defaults(handler=_cmd_bound)

    construct = commands.add_parser("dual-construct",
                                    help="dual-graph feasibility")
    construct.add_argument("graph")
    construct.set_defaults(handler=_cmd_dual_construct)

    check = commands.add_parser("circulant-check",
                                help="dualness-0 certificate for circulants")
    check.add_argument("graph1")
    check.add_argument("graph2")
    check.set_defaults(handler=_cmd_circulant_check)

    experiment = commands.add_parser("experiment",
                                     help="Erdos-Renyi sweep to CSV/SVG")
    experiment.add_argument("--n", default="10,15,20,25,30",
                            help="comma-separated sizes")
    experiment.add_argument("--p", type=float, default=0.4)
    experiment.add_argument("--trials", type=int, default=20)
    experiment.add_argument("--restarts", type=int, default=50)
    experiment.add_argument("--epsilon", type=float, default=1e-8)
    experiment.add_argument("--max-iter", type=int, default=500)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--methods", default="cd,cdpm,dup")
    experiment.add_argument("-o", "--output", default=None)
    experiment.add_argument("--plot", default=None)
    experiment.set_defaults(handler=_cmd_experiment,
                            configure=_experiment_config)

    plot = commands.add_parser("plot", help="SVG chart from an experiment CSV")
    plot.add_argument("csv")
    plot.add_argument("-o", "--output", default=None)
    plot.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    configure = getattr(args, "configure", None)
    if configure is not None:
        # out-of-range option values are usage errors, not solver errors
        try:
            args.config = configure(args)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.handler(args)
    except (OSError, ParseError) as exc:
        # a missing or malformed input file is a file error, not a
        # solver error
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except GftDualError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
