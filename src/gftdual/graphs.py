"""Undirected weighted graphs, their constructors, and the input rules.

The input rules are the library's one check each for counts
(check_count), real settings and edge weights (check_real), indices
(as_indices), permutations (check_permutations), real matrices
(as_real), arrays that may be complex, bases and phases
(as_numeric), and numbers read from text (parse_number); every entry
point that takes such an input calls them with its own documented
error class.  Every integer, a count or a seed included, follows
rng.check_integer, kept in rng since rng imports nothing from the
package.

A graph on n vertices is stored as a dense symmetric adjacency matrix with
an exactly zero diagonal and non-negative weights. Graphs are immutable
after construction: the adjacency array is copied and marked read-only.

File format
-----------
Line 1 holds the vertex count N. Each following non-empty line is
``i j w`` with 0-indexed endpoints and a positive weight, all plain ASCII
numbers (parse_number). Lines starting with ``#`` are comments. The writer
emits edges sorted by (i, j) with shortest round-trip decimal weights, so
write(read(s)) is a canonical form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
    NonPositiveWeightError,
    OffsetOutOfRangeError,
    ParseError,
    SelfLoopError,
    SizeMismatchError,
)
from .rng import SplitMix64, check_integer


# ------------------------------------------------------------ input rules


def check_count(value, name, error=ValueError) -> int:
    """value as an int, which must be an integer (rng.check_integer) >= 1;
    error, the caller's documented class, otherwise."""
    count = check_integer(value, name, error)
    if count < 1:
        raise error(f"{name} must be >= 1, got {count}")
    return count


def is_real(value) -> bool:
    """True for a real number (numbers.Real, numpy floats included) that
    is not a bool: check_real's type test, which experiment's records
    share."""
    return (isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_)))


def check_real(value, name, error=ValueError, upper=None) -> float:
    """value as a float, which must be a real number (is_real), and
    finite: positive, or within [0, upper] when upper is given; error,
    the caller's documented class, otherwise."""
    if not is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    real = float(value)
    # written so that NaN fails both tests
    if upper is None and not 0.0 < real < np.inf:
        raise error(f"{name} must be positive and finite, got {real!r}")
    if upper is not None and not 0.0 <= real <= upper:
        raise error(f"{name} must lie in [0, {upper}], got {real!r}")
    return real


def as_indices(values, error=IndexOutOfRangeError) -> np.ndarray:
    """values as an intp array.  Entries must be of an integer dtype or
    floats that already are integers (arange(6.0) is fine); anything
    else raises error.  A cast would truncate 0.5, NaN or inf to a
    valid-looking index, and read bool, string or complex entries
    (dropping an imaginary part) as numbers."""
    a = np.asarray(values)
    integral = a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.all(
        (np.floor(a) == a) & (np.abs(a) < np.iinfo(np.intp).max)))
    if not integral:
        raise error(f"indices must be integers, got dtype {a.dtype}")
    return a.astype(np.intp, copy=False)


def check_permutations(perms, n, name="permutation") -> np.ndarray:
    """perms as an (R, n) intp array: one permutation of 0..n-1, shape
    (n,), or a stack of R >= 1 of them, shape (R, n).  Entries follow
    as_indices; a wrong shape raises SizeMismatchError and a row that is
    not a bijection of 0..n-1 (n = 0 included) IndexOutOfRangeError."""
    p = as_indices(perms)
    stack = p[None] if p.ndim == 1 else p
    if stack.ndim != 2 or stack.shape[0] < 1 or stack.shape[1] != n:
        raise SizeMismatchError(f"{name} must have shape ({n},) or "
                                f"(R, {n}), got {p.shape}")
    if n == 0 or not (np.sort(stack, axis=1) == np.arange(n)).all():
        raise IndexOutOfRangeError(f"{name} rows must be bijections of "
                                   f"0..{n - 1}")
    return stack


def as_numeric(values, name) -> np.ndarray:
    """values as an array (values itself if it is one) of bool, integer,
    float or complex entries; string and object entries raise
    SizeMismatchError, since a cast would parse text."""
    a = np.asarray(values)
    if a.dtype.kind not in "biufc":
        raise SizeMismatchError(f"{name} must be numeric, got dtype {a.dtype}")
    return a


def as_real(values, name, nonfinite=NonFiniteEntryError) -> np.ndarray:
    """values as a float64 array (values itself if it is one).  Bool,
    integer and float entries are cast; complex, string and object
    entries raise SizeMismatchError (a cast would drop an imaginary part
    or parse text), and a NaN or infinite entry raises nonfinite."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise SizeMismatchError(f"{name} must be real, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise nonfinite(f"{name} has non-finite entries")
    return a


# ----------------------------------------------------------------- graphs


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected weighted graph.

    Attributes
    ----------
    adjacency:
        (n, n) float array with n >= 1; symmetric, zero diagonal,
        entries >= 0.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        a = as_real(self.adjacency, "adjacency",
                    NonPositiveWeightError).copy()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SizeMismatchError("adjacency must be a square matrix")
        if a.shape[0] < 1:
            raise IndexOutOfRangeError(
                f"vertex count must be >= 1, got {a.shape[0]}")
        if not np.array_equal(a, a.T):
            raise SizeMismatchError("adjacency must be exactly symmetric")
        if np.any(np.diagonal(a) != 0.0):
            raise SelfLoopError("adjacency diagonal must be exactly zero")
        if np.any(a < 0.0):
            raise NonPositiveWeightError("adjacency entries must be >= 0")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edge_count(self) -> int:
        """Number of unordered weighted edges."""
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))


def new_graph(n: int, edges) -> Graph:
    """Build a graph from an edge list.

    Parameters
    ----------
    n:
        Vertex count, n >= 1.
    edges:
        Iterable of (i, j, w) with 0 <= i, j < n, i != j and w a
        positive finite real number (check_real).
        Endpoint order is immaterial; a pair may appear at most once.
    """
    n = check_count(n, "vertex count", IndexOutOfRangeError)
    a = np.zeros((n, n))
    for i, j, w in edges:
        _add_edge(a, i, j, w)
    return Graph(a)


def _add_edge(a, i, j, w) -> None:
    """Join i and j with weight w in the adjacency a, in place.

    Raises IndexOutOfRangeError, SelfLoopError, NonPositiveWeightError
    (also for a weight that is not finite) or DuplicateEdgeError.
    """
    n = a.shape[0]
    i, j = as_indices(i).item(), as_indices(j).item()
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"edge ({i}, {j}) outside 0..{n - 1}")
    if i == j:
        raise SelfLoopError(f"self loop at vertex {i}")
    w = _check_weight(w, f"edge ({i}, {j})")
    # every stored weight is positive, so a non-zero entry is an edge
    if a[i, j] != 0.0:
        raise DuplicateEdgeError(f"duplicate edge {(min(i, j), max(i, j))}")
    a[i, j] = a[j, i] = w


def _check_weight(w, where) -> float:
    """w as a float by the real-setting rule (check_real): a real number,
    not a bool or text, positive and finite; NonPositiveWeightError
    naming where otherwise."""
    try:
        return check_real(w, "weight", NonPositiveWeightError)
    except NonPositiveWeightError as exc:
        raise NonPositiveWeightError(f"{where} has weight {w!r}") from exc


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sample with unit weights.

    The pair (i, j) with i < j receives one uniform draw in row-major
    order (i ascending, then j); the edge is present when the draw is < p.
    Identical seeds give identical graphs on every platform.
    """
    n = check_count(n, "vertex count", IndexOutOfRangeError)
    p = check_real(p, "edge probability", NonPositiveWeightError, upper=1)
    # triu_indices lists the pairs in the documented row-major order
    i, j = np.triu_indices(n, 1)
    upper = np.zeros((n, n))
    upper[i, j] = SplitMix64(seed).randoms(i.size) < p
    return Graph(upper + upper.T)


def circulant(n: int, offsets) -> Graph:
    """Circulant graph: vertex i is joined to i +- k (mod n) with weight w.

    ``offsets`` is an iterable of (k, w) with 1 <= k <= n//2 and w a
    positive finite real number (check_real).
    A repeated offset overwrites the earlier weight.
    """
    n = check_count(n, "vertex count", IndexOutOfRangeError)
    a = np.zeros((n, n))
    vertices = np.arange(n)
    for k, w in offsets:
        k = as_indices(k, OffsetOutOfRangeError).item()
        if not (1 <= k <= n // 2):
            raise OffsetOutOfRangeError(f"offset {k} outside 1..{n // 2}")
        w = _check_weight(w, f"offset {k}")
        j = (vertices + k) % n
        a[vertices, j] = a[j, vertices] = w
    return Graph(a)


def is_circulant(graph: Graph) -> bool:
    """True when adjacency[i][j] depends only on (j - i) mod n (exactly)."""
    a = graph.adjacency
    i = np.arange(graph.n)
    # row i of a circulant is its first row rolled by i
    return np.array_equal(a, a[0, (i - i[:, None]) % graph.n])


# ------------------------------------------------------------ permutations


def check_permutation(perm, n: int | None = None) -> np.ndarray:
    """perm, which must be one permutation of 0..n-1 (0..len-1 when n is
    None), as an intp array: the one-row case of check_permutations."""
    if np.ndim(perm) != 1:
        raise SizeMismatchError("permutation must be one-dimensional")
    return check_permutations(perm, len(perm) if n is None else n)[0]


def invert_permutation(perm) -> np.ndarray:
    """Inverse permutation: out[perm[i]] = i."""
    return np.argsort(check_permutation(perm))


def permute_graph(graph: Graph, perm) -> Graph:
    """Relabel vertices: vertex i becomes perm[i].

    The result satisfies adjacency'[perm[i], perm[j]] == adjacency[i, j].
    """
    p = check_permutation(perm, graph.n)
    inv = invert_permutation(p)
    return Graph(graph.adjacency[np.ix_(inv, inv)])


# ---------------------------------------------------------------- file io


def write_graph(graph: Graph) -> str:
    """Serialize to the text format (canonical: edges sorted by (i, j))."""
    a = graph.adjacency
    # nonzero lists the upper-triangle edges in row-major (i, j) order
    rows, cols = np.nonzero(np.triu(a, 1))
    lines = [str(graph.n)] + [
        f"{i} {j} {w!r}" for i, j, w in
        zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())]
    return "\n".join(lines) + "\n"


def parse_number(token: str, kind):
    """token read by kind, int or float, which must be plain ASCII with no
    digit separator and no surrounding whitespace; ValueError otherwise.
    int() and float() alone would read "1_0" as 10, an Arabic-Indic three
    as 3 and " 6" as 6, which no writer here emits."""
    if not token.isascii() or "_" in token or token.strip() != token:
        raise ValueError(f"{token!r} is not a plain ASCII number")
    return kind(token)


def read_graph(text: str) -> Graph:
    """Parse the text format.

    Numbers are read by parse_number.  Raises ParseError for a line
    that does not parse, and new_graph's errors for an edge it rejects;
    either error's line_number is the offending line, and its message
    starts with it.
    """
    a = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if a is None:
            if len(tokens) != 1:
                raise ParseError("expected a single vertex count", line_number)
            try:
                n = parse_number(tokens[0], int)
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[0]!r}", line_number) from None
            if n < 1:
                raise ParseError(f"vertex count must be >= 1, got {n}", line_number)
            try:
                a = np.zeros((n, n))
            except (ValueError, MemoryError):
                raise ParseError(f"vertex count {n} is too large", line_number) from None
            continue
        if len(tokens) != 3:
            raise ParseError("expected 'i j w'", line_number)
        try:
            i, j = parse_number(tokens[0], int), parse_number(tokens[1], int)
            w = parse_number(tokens[2], float)
        except ValueError:
            raise ParseError(f"bad edge line {line!r}", line_number) from None
        try:
            _add_edge(a, i, j, w)
        except (IndexOutOfRangeError, SelfLoopError, NonPositiveWeightError,
                DuplicateEdgeError) as exc:
            error = type(exc)(f"line {line_number}: {exc}")
            error.line_number = line_number
            raise error from None
    if a is None:
        raise ParseError("missing vertex count", 1)
    return Graph(a)


def read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return read_graph(handle.read())


def write_graph_file(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(write_graph(graph))
