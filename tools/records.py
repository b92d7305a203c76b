"""Print the sha256 of the seeded records, so that a change can show that
it keeps the library's results, or declare which ones it changes.

The records are the four-trial sweeps ExperimentConfig(trials=4, seed=s)
of seeds 0, 1, 5 and 1009, joined in that order with every wall time
zero, and written by one write_csv.  Three hashes are printed: one over
all rows, one over the CD and DUP rows alone, which a change to CDPM
leaves as they are, and one over the CDPM rows alone, so that a change
shows which method's records it moved.

A fourth hash covers the dual construction: the status and the repr of
every lambda_ entry that construct_dual gives on a fixed batch, the
G(n, 0.5) graphs of seeds 0-4 for each n = 6-25 and then the cycles
circulant(n, [(1, 1)]) for n = 2-16.  A fifth covers every field of
the DUP bounds behind the sweeps' DUP rows, which the CSV shows only
through objective (bound) and iterations (cuts): the bytes of nu, then
the reprs of bound, min_eig_residual, cuts, master_history, sweeps and
gap.  The bounds are recorded as the sweeps compute them, so none is
computed twice.  A sixth covers the SVG that plot_fig1 draws from all
rows, so that a change to the figure shows too.  A seventh, dup-scale,
covers the same fields of the DUP bounds of the tests' scaled coupling
blocks (tests/oracles.py scaled_blocks, Gaussian blocks at scales 1 to
1e12), so that a change to how DUP certifies large couplings shows.
An eighth, construct-status, covers the construct batch's statuses
alone, one per line, so that a change which moves witness bits shows
on its own whether any status moved.
BLAS runs on one thread, since a threaded reduction may round
differently; the numpy and scipy versions are printed with the hashes,
since another build may round the eigensolver differently too.

Run from anywhere; it imports the package from this checkout's src, and
scaled_blocks from its tests:

    python tools/records.py
"""

import hashlib
import os
import platform
import sys
from pathlib import Path

# before numpy is imported, so that its BLAS starts with one thread
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import numpy  # noqa: E402
import scipy  # noqa: E402

from gftdual import experiment  # noqa: E402
from gftdual.dual_construct import construct_dual  # noqa: E402
from gftdual.dup import CouplingMatrix  # noqa: E402
from gftdual.experiment import (CD, CDPM, DUP,  # noqa: E402
                                ExperimentConfig, plot_fig1, run_experiment,
                                write_csv)
from gftdual.graphs import circulant, erdos_renyi  # noqa: E402
from oracles import scaled_blocks  # noqa: E402

SEEDS = (0, 1, 5, 1009)
TRIALS = 4
CONSTRUCT_SEEDS = range(5)


def _sha256(records):
    return hashlib.sha256(write_csv(records).encode()).hexdigest()


def _lines_sha256(lines):
    return hashlib.sha256(
        "".join(line + "\n" for line in lines).encode()).hexdigest()


def _construct_lines():
    """One line per graph of the construct batch: the status, then the
    repr of every lambda_ entry."""
    graphs = [erdos_renyi(n, 0.5, seed) for n in range(6, 26)
              for seed in CONSTRUCT_SEEDS]
    graphs += [circulant(n, [(1, 1)]) for n in range(2, 17)]
    lines = []
    for graph in graphs:
        result = construct_dual(graph)
        lam = () if result.lambda_ is None else result.lambda_.tolist()
        lines.append(" ".join([result.status] + [repr(x) for x in lam]))
    return lines


def _bounds_sha256(bounds):
    digest = hashlib.sha256()
    for b in bounds:
        digest.update(b.nu.tobytes())
        digest.update(repr((b.bound, b.min_eig_residual, b.cuts,
                            b.master_history, b.sweeps, b.gap)).encode())
    return digest.hexdigest()


def main():
    bounds = []
    dup_bound = experiment.dup_bound

    def recording(coupling):
        bounds.append(dup_bound(coupling))
        return bounds[-1]

    experiment.dup_bound = recording
    records = [record for seed in SEEDS
               for record in run_experiment(
                   ExperimentConfig(trials=TRIALS, seed=seed),
                   clock=lambda: 0.0)]
    cd_dup = [record for record in records if record.method in (CD, DUP)]
    cdpm = [record for record in records if record.method == CDPM]
    print("python %s numpy %s scipy %s %s" % (
        platform.python_version(), numpy.__version__, scipy.__version__,
        platform.machine()))
    print("all %s %d rows" % (_sha256(records), len(records)))
    print("cd+dup %s %d rows" % (_sha256(cd_dup), len(cd_dup)))
    print("cdpm %s %d rows" % (_sha256(cdpm), len(cdpm)))
    lines = _construct_lines()
    print("construct %s %d graphs" % (_lines_sha256(lines), len(lines)))
    print("dup %s %d bounds" % (_bounds_sha256(bounds), len(bounds)))
    print("plot %s" % hashlib.sha256(plot_fig1(records).encode()).hexdigest())
    scaled = [dup_bound(CouplingMatrix(b)) for _, b in scaled_blocks()]
    print("dup-scale %s %d bounds" % (_bounds_sha256(scaled), len(scaled)))
    statuses = [line.split(" ", 1)[0] for line in lines]
    print("construct-status %s %d graphs" % (_lines_sha256(statuses),
                                             len(statuses)))


if __name__ == "__main__":
    main()
