"""The public surface: every exported name resolves, every exported
error class is raised somewhere in the library, and every entry point
meets each class of bad input with its documented error."""

import ast
from pathlib import Path

import numpy as np
import pytest

import gftdual
from gftdual.errors import GftDualError

SOURCE = Path(gftdual.__file__).resolve().parent


def _raised_names():
    """Names X of every `raise X` and `raise X(...)` in the package."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_exported_name_resolves():
    assert len(set(gftdual.__all__)) == len(gftdual.__all__)
    for name in gftdual.__all__:
        assert hasattr(gftdual, name), name


def test_every_exported_error_class_is_raised():
    errors = {name for name in gftdual.__all__
              if isinstance(getattr(gftdual, name), type)
              and issubclass(getattr(gftdual, name), GftDualError)
              and getattr(gftdual, name) is not GftDualError}
    assert errors, "no error classes exported"
    assert errors - _raised_names() == set()


# ------------------------------------------------------------ input rules

_GRAPH = gftdual.new_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
_V = gftdual.eigendecompose(_GRAPH).vectors
_ONES = np.ones(3)
_IDENTITY = np.arange(3)
_SOLUTION = gftdual.cdpm_align(_V, _V)

# one bad scalar per input class; 2 + 0j would cast to a valid 2
_SCALARS = {"bool": True, "float": 2.5, "string": "2", "complex": 2 + 0j,
            "nan": np.nan}
# permutations of 0..2 that a cast to intp would accept
_PERMUTATIONS = {"bool": [True, False, True], "float": [0.5, 1.0, 2.0],
                 "string": ["0", "1", "2"], "complex": [0j, 1 + 0j, 2 + 0j],
                 "nan": [np.nan, 1.0, 2.0]}


def _matrices(valid):
    """valid as the real-matrix rule's bad classes: text, complex with
    zero imaginary parts, and one NaN entry."""
    nan = np.array(valid, dtype=float)
    nan.flat[0] = np.nan
    return {"string": np.asarray(valid).astype(str),
            "complex": np.asarray(valid, dtype=complex), "nan": nan}


# (entry point, call, error) for the count and index rules
_SCALAR_ENTRIES = (
    ("new_graph", lambda n: gftdual.new_graph(n, []),
     gftdual.IndexOutOfRangeError),
    ("erdos_renyi", lambda n: gftdual.erdos_renyi(n, 0.5, 0),
     gftdual.IndexOutOfRangeError),
    ("circulant", lambda n: gftdual.circulant(n, [(1, 1.0)]),
     gftdual.IndexOutOfRangeError),
    ("dft_matrix", gftdual.dft_matrix, gftdual.SizeMismatchError),
    ("SolverConfig.restarts",
     lambda n: gftdual.SolverConfig(restarts=n), ValueError),
    ("SolverConfig.max_iterations",
     lambda n: gftdual.SolverConfig(max_iterations=n), ValueError),
    ("ExperimentConfig.trials",
     lambda n: gftdual.ExperimentConfig(trials=n), ValueError),
    ("ExperimentConfig.n_values",
     lambda n: gftdual.ExperimentConfig(n_values=(n,)), ValueError),
    ("new_graph endpoint", lambda i: gftdual.new_graph(3, [(i, 0, 1.0)]),
     gftdual.IndexOutOfRangeError),
    ("circulant offset", lambda k: gftdual.circulant(6, [(k, 1.0)]),
     gftdual.OffsetOutOfRangeError),
    ("SplitMix64 seed", gftdual.SplitMix64, TypeError),
    ("derive_stream index", lambda k: gftdual.derive_stream(0, k), TypeError),
    ("erdos_renyi seed", lambda s: gftdual.erdos_renyi(3, 0.5, s), TypeError),
    ("SolverConfig.seed", lambda s: gftdual.SolverConfig(seed=s), ValueError),
    ("ExperimentConfig.seed",
     lambda s: gftdual.ExperimentConfig(seed=s), ValueError),
)
# one bad real setting per input class; "1e-8" would parse, True read as 1
_REALS = {"bool": True, "string": "1e-8", "complex": 0.5 + 0j,
          "nan": np.nan, "inf": np.inf, "negative": -0.5}
# (entry point, call, error) for the real-setting rule; 0.5 is valid
_REAL_ENTRIES = (
    ("SolverConfig.epsilon",
     lambda x: gftdual.SolverConfig(epsilon=x), ValueError),
    ("ExperimentConfig.epsilon",
     lambda x: gftdual.ExperimentConfig(epsilon=x), ValueError),
    ("ExperimentConfig.p", lambda x: gftdual.ExperimentConfig(p=x),
     ValueError),
    ("erdos_renyi p", lambda x: gftdual.erdos_renyi(3, x, 0),
     gftdual.NonPositiveWeightError),
    ("dup_bound tol", lambda x: gftdual.dup_bound(
        gftdual.build_coupling(_V, _V), x), ValueError),
)
# (entry point, call) for the permutation rule, IndexOutOfRangeError
_PERMUTATION_ENTRIES = (
    ("check_permutation", gftdual.check_permutation),
    ("invert_permutation", gftdual.invert_permutation),
    ("permute_graph", lambda p: gftdual.permute_graph(_GRAPH, p)),
    ("trace_objective", lambda p: gftdual.trace_objective(
        _V, _ONES, p, _V, _ONES, _IDENTITY)),
    ("cdpm_align init p2", lambda p: gftdual.cdpm_align(
        _V, _V, init=(_ONES, _IDENTITY, _ONES, p))),
    ("isomorphism_transport",
     lambda p: gftdual.isomorphism_transport(_SOLUTION, p, 1)),
)
# (entry point, call, a valid input, error for NaN) for the real-matrix
# rule, SizeMismatchError for every other class
_MATRIX_ENTRIES = (
    ("Graph", gftdual.Graph, _GRAPH.adjacency,
     gftdual.NonPositiveWeightError),
    ("jacobi_eigh", gftdual.jacobi_eigh, _GRAPH.adjacency,
     gftdual.NonFiniteEntryError),
    ("CouplingMatrix", gftdual.CouplingMatrix, _V,
     gftdual.NonFiniteEntryError),
    ("solve_assignment_max", gftdual.solve_assignment_max, _V,
     gftdual.NonFiniteEntryError),
    ("construct_dual_from_vectors", gftdual.construct_dual_from_vectors,
     _V, gftdual.NonFiniteEntryError),
    ("verify_dual_witness",
     lambda lam: gftdual.verify_dual_witness(_GRAPH, lam),
     [1.0, 0.0, -1.0], gftdual.NonFiniteEntryError),
)
# (entry point, call, a valid input) for arrays that may be complex, bases
# and phases: text and object entries raise SizeMismatchError
_NUMERIC_ENTRIES = (
    ("cd_align V1", lambda v: gftdual.cd_align(v, _V), _V),
    ("multistart V2", lambda v: gftdual.multistart(
        gftdual.CDPM, _V, v, gftdual.SolverConfig(restarts=2)), _V),
    ("cdpm_align init d1", lambda d: gftdual.cdpm_align(
        _V, _V, init=(d, _IDENTITY, _ONES, _IDENTITY)), _ONES),
    ("cd_align init d2", lambda d: gftdual.cd_align(_V, _V,
                                                    init=(_ONES, d)), _ONES),
)
# (entry point, call) for the phases of the start rule, NonUnitPhaseError
_PHASE_ENTRIES = (
    ("cd_align init d1", lambda d: gftdual.cd_align(_V, _V,
                                                    init=(d, _ONES))),
    ("cdpm_align init d1", lambda d: gftdual.cdpm_align(
        _V, _V, init=(d, _IDENTITY, _ONES, _IDENTITY))),
)


def _rows():
    """(entry point, input class, bad input, call, error type)."""
    for name, call, error in _SCALAR_ENTRIES:
        for kind, bad in _SCALARS.items():
            yield name, kind, bad, call, error
    for name, call, error in _REAL_ENTRIES:
        for kind, bad in _REALS.items():
            yield name, kind, bad, call, error
    for name, call in _PERMUTATION_ENTRIES:
        for kind, bad in _PERMUTATIONS.items():
            yield name, kind, bad, call, gftdual.IndexOutOfRangeError
    for name, call, valid, nonfinite in _MATRIX_ENTRIES:
        for kind, bad in _matrices(valid).items():
            error = nonfinite if kind == "nan" else gftdual.SizeMismatchError
            yield name, kind, bad, call, error
    for name, call, valid in _NUMERIC_ENTRIES:
        for kind, dtype in (("string", str), ("object", object)):
            yield (name, kind, np.asarray(valid).astype(dtype), call,
                   gftdual.SizeMismatchError)
    for name, call in _PHASE_ENTRIES:
        yield name, "nan", [np.nan, 1.0, 1.0], call, gftdual.NonUnitPhaseError


_ROWS = list(_rows())


@pytest.mark.parametrize("bad, call, error", [row[2:] for row in _ROWS],
                         ids=["%s-%s" % row[:2] for row in _ROWS])
def test_bad_inputs_raise_the_documented_error(bad, call, error):
    with pytest.raises(error):
        call(bad)


def test_the_valid_inputs_of_the_table_are_accepted():
    # so that each row above fails on its bad input alone
    for _, call, _ in _SCALAR_ENTRIES:
        call(2)
    for _, call, _ in _REAL_ENTRIES:
        call(0.5)
    for _, call in _PERMUTATION_ENTRIES:
        call([2, 0, 1])
    for _, call, valid, _ in _MATRIX_ENTRIES:
        call(valid)
    for _, call, valid in _NUMERIC_ENTRIES:
        call(valid)
        call(np.asarray(valid, dtype=complex))
    for _, call in _PHASE_ENTRIES:
        call([1.0, -1.0, 1j])
