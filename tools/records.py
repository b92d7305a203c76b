"""Print the sha256 of the seeded records, so that a change can show that
it keeps the library's results, or declare which ones it changes.

The records are the four-trial sweeps ExperimentConfig(trials=4, seed=s)
of seeds 0, 1, 5 and 1009, joined in that order with every wall time
zero, and written by one write_csv.  Three hashes are printed: one over
all rows, one over the CD and DUP rows alone, which a change to CDPM
leaves as they are, and one over the CDPM rows alone, so that a change
shows which method's records it moved.  BLAS runs on one thread, since
a threaded reduction may round differently; the numpy and scipy
versions are printed with the hashes, since another build may round the
eigensolver differently too.

Run from anywhere; it imports the package from this checkout's src:

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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from gftdual.experiment import (CD, CDPM, DUP,  # noqa: E402
                                ExperimentConfig, run_experiment, write_csv)

SEEDS = (0, 1, 5, 1009)
TRIALS = 4


def _sha256(records):
    return hashlib.sha256(write_csv(records).encode()).hexdigest()


def main():
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


if __name__ == "__main__":
    main()
