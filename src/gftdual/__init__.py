"""Dualness of graph pairs under the graph Fourier transform.

Alternating phase/permutation optimizers (CD, CDPM), a certified
semidefinite upper bound, a dual-graph feasibility construction, and an
Erdos-Renyi experiment harness with CSV/SVG output.
"""

__version__ = "1.0.0"

from .errors import (GftDualError, IndexOutOfRangeError, SelfLoopError,
                     DuplicateEdgeError, NonPositiveWeightError,
                     OffsetOutOfRangeError, ParseError, SizeMismatchError,
                     ConvergenceFailure, NonFiniteEntryError,
                     NumericalBreakdown, NonOrthogonalInputError,
                     NonUnitPhaseError,
                     RepeatedEigenvaluesError, NotCirculantError,
                     ResampleCapExceeded, EmptyInputError)
from .rng import SplitMix64, derive_stream
from .graphs import (Graph, new_graph, erdos_renyi, circulant, is_circulant,
                     check_permutation, invert_permutation, permute_graph,
                     write_graph, read_graph, read_graph_file,
                     write_graph_file)
from .spectral import (SpectralDecomposition, jacobi_eigh, eigendecompose,
                       has_distinct_eigenvalues, minimum_eigenvalue_gap,
                       gft, igft, dft_matrix)
from .assignment import solve_assignment_max
from .alignment import (CD, CDPM, SolverConfig, AlignmentSolution,
                        trace_objective, cd_align, cdpm_align, multistart,
                        run_pair, verify_circulant_duality,
                        isomorphism_transport)
from .dup import CouplingMatrix, BoundResult, build_coupling, dup_bound
from .dual_construct import (FEASIBLE, INFEASIBLE, DualConstructionResult,
                             construct_dual, construct_dual_from_vectors,
                             verify_dual_witness)
from .experiment import (DUP, METHODS, ExperimentConfig, ExperimentRecord,
                         run_experiment, write_csv, read_csv, plot_fig1)

__all__ = [
    "__version__",
    "GftDualError", "IndexOutOfRangeError", "SelfLoopError",
    "DuplicateEdgeError", "NonPositiveWeightError", "OffsetOutOfRangeError",
    "ParseError", "SizeMismatchError", "ConvergenceFailure",
    "NonFiniteEntryError", "NumericalBreakdown", "NonOrthogonalInputError",
    "NonUnitPhaseError", "RepeatedEigenvaluesError", "NotCirculantError",
    "ResampleCapExceeded", "EmptyInputError",
    "SplitMix64", "derive_stream",
    "Graph", "new_graph", "erdos_renyi", "circulant", "is_circulant",
    "check_permutation", "invert_permutation", "permute_graph",
    "write_graph", "read_graph", "read_graph_file", "write_graph_file",
    "SpectralDecomposition", "jacobi_eigh", "eigendecompose",
    "has_distinct_eigenvalues", "minimum_eigenvalue_gap", "gft", "igft",
    "dft_matrix", "solve_assignment_max",
    "CD", "CDPM", "SolverConfig", "AlignmentSolution", "trace_objective",
    "cd_align", "cdpm_align", "multistart", "run_pair",
    "verify_circulant_duality", "isomorphism_transport",
    "CouplingMatrix", "BoundResult", "build_coupling", "dup_bound",
    "FEASIBLE", "INFEASIBLE", "DualConstructionResult",
    "construct_dual", "construct_dual_from_vectors", "verify_dual_witness",
    "DUP", "METHODS", "ExperimentConfig", "ExperimentRecord",
    "run_experiment", "write_csv", "read_csv", "plot_fig1",
]
