"""Graph construction, permutation algebra and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftdual.errors import (DuplicateEdgeError, IndexOutOfRangeError,
                            NonPositiveWeightError, OffsetOutOfRangeError,
                            ParseError, SelfLoopError, SizeMismatchError)
from gftdual.graphs import (Graph, check_permutation, circulant, erdos_renyi,
                            invert_permutation, is_circulant, new_graph,
                            parse_number, permute_graph, read_graph,
                            read_graph_file, write_graph, write_graph_file)
from gftdual.rng import SplitMix64
from oracles import permutation_matrix


def test_new_graph_basic():
    g = new_graph(4, [(0, 1, 1.0), (2, 3, 0.5), (1, 3, 2.0)])
    a = g.adjacency
    assert g.n == 4
    assert g.edge_count() == 3
    assert np.array_equal(a, a.T)
    assert np.all(np.diagonal(a) == 0.0)
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0
    assert a[3, 2] == 0.5
    assert not a.flags.writeable


def test_new_graph_endpoint_order_immaterial():
    g1 = new_graph(3, [(0, 2, 1.5)])
    g2 = new_graph(3, [(2, 0, 1.5)])
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_new_graph_errors():
    with pytest.raises(SelfLoopError):
        new_graph(3, [(1, 1, 1.0)])
    with pytest.raises(DuplicateEdgeError):
        new_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(IndexOutOfRangeError):
        new_graph(3, [(0, 3, 1.0)])
    with pytest.raises(IndexOutOfRangeError):
        new_graph(3, [(-1, 2, 1.0)])
    with pytest.raises(NonPositiveWeightError):
        new_graph(3, [(0, 1, 0.0)])
    with pytest.raises(NonPositiveWeightError):
        new_graph(3, [(0, 1, -2.0)])
    with pytest.raises(IndexOutOfRangeError):
        new_graph(0, [])
    # an endpoint is an integer, not cast: int() would read 0.7 as 0,
    # '0' as 0 and True as 1
    for endpoint in (0.7, "0", True, np.nan):
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            new_graph(3, [(endpoint, 2, 1.0)])
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            new_graph(3, [(2, endpoint, 1.0)])
    assert new_graph(3, [(np.int64(0), 2.0, 1.0)]).adjacency[0, 2] == 1.0


def test_graph_validates_adjacency():
    with pytest.raises(SizeMismatchError):
        Graph(np.zeros((2, 3)))
    with pytest.raises(SizeMismatchError):
        Graph(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(SelfLoopError):
        Graph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NonPositiveWeightError):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    # a graph has at least one vertex, so every graph function may index
    # row 0 (is_circulant does)
    with pytest.raises(IndexOutOfRangeError,
                       match="vertex count must be >= 1, got 0"):
        Graph(np.zeros((0, 0)))


@pytest.mark.parametrize("adjacency", [
    np.array([[0, 1j], [1j, 0]]),
    np.array([[0, 1], [1, 0]], dtype=complex),
    [["0", "1"], ["1", "0"]],
    np.array([[0, 1], [1, 0]], dtype=object),
], ids=["complex", "complex-real", "string", "object"])
def test_graph_rejects_adjacency_that_is_not_real(adjacency):
    # the float cast dropped 1j, giving an edgeless graph, and parsed text
    with pytest.raises(SizeMismatchError, match="real"):
        Graph(adjacency)
    # bool and integer adjacencies are real
    assert Graph(np.array([[0, 1], [1, 0]], dtype=bool)).edge_count() == 1


def test_is_circulant_on_one_vertex():
    assert is_circulant(Graph(np.zeros((1, 1))))


def test_erdos_renyi_determinism_and_extremes():
    g1 = erdos_renyi(15, 0.4, seed=5)
    g2 = erdos_renyi(15, 0.4, seed=5)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    g3 = erdos_renyi(15, 0.4, seed=6)
    assert not np.array_equal(g1.adjacency, g3.adjacency)
    assert erdos_renyi(10, 0.0, seed=1).edge_count() == 0
    assert erdos_renyi(10, 1.0, seed=1).edge_count() == 45
    nz = g1.adjacency[g1.adjacency != 0.0]
    assert np.all(nz == 1.0)


def test_erdos_renyi_follows_the_documented_draw_order():
    # one SplitMix64 draw per pair (i, j), i < j, in row-major order
    for n, p, seed in ((1, 0.5, 0), (2, 0.5, 3), (17, 0.4, 2**64 - 7)):
        stream = SplitMix64(seed)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if stream.random() < p:
                    expected[i, j] = expected[j, i] = 1.0
        assert np.array_equal(erdos_renyi(n, p, seed).adjacency, expected)


def test_erdos_renyi_edge_frequency():
    total = 0
    pairs = 0
    for seed in range(200):
        g = erdos_renyi(12, 0.3, seed=seed)
        total += g.edge_count()
        pairs += 66
    rate = total / pairs
    # five sigma of a Bernoulli(0.3) mean over 13200 pairs is ~0.02
    assert abs(rate - 0.3) < 0.02


def test_circulant_structure():
    g = circulant(8, [(1, 1.0), (3, 0.25)])
    a = g.adjacency
    for i in range(8):
        assert a[i, (i + 1) % 8] == 1.0
        assert a[i, (i + 3) % 8] == 0.25
        assert a[i, (i + 2) % 8] == 0.0
    assert is_circulant(g)
    # duplicate offset: the later weight wins
    g2 = circulant(6, [(2, 1.0), (2, 3.0)])
    assert g2.adjacency[0, 2] == 3.0
    # n//2 offset on an even cycle pairs antipodal vertices once
    g3 = circulant(6, [(3, 2.0)])
    assert g3.adjacency[0, 3] == 2.0 and g3.edge_count() == 3


def test_circulant_errors():
    with pytest.raises(OffsetOutOfRangeError):
        circulant(8, [(0, 1.0)])
    with pytest.raises(OffsetOutOfRangeError):
        circulant(8, [(5, 1.0)])
    with pytest.raises(NonPositiveWeightError):
        circulant(8, [(1, 0.0)])
    # int() would read 2.9 as offset 2, and NaN raised an untyped error
    for offset in (2.9, np.nan, "2", True):
        with pytest.raises(OffsetOutOfRangeError, match="integers"):
            circulant(6, [(offset, 1.0)])
    assert circulant(6, [(2.0, 1.0)]).adjacency[0, 2] == 1.0


@pytest.mark.parametrize("build", [
    lambda n: new_graph(n, []),
    lambda n: erdos_renyi(n, 0.5, 0),
    lambda n: circulant(n, [(1, 1.0)]),
], ids=["new_graph", "erdos_renyi", "circulant"])
def test_non_integer_vertex_counts_are_rejected(build):
    for n in (2.5, 4.0, "4", None, True, np.True_):
        with pytest.raises(IndexOutOfRangeError, match="integer"):
            build(n)
    assert build(np.int64(4)).n == 4


def test_is_circulant_negative():
    g = new_graph(4, [(0, 1, 1.0), (1, 2, 1.0)])
    assert not is_circulant(g)


def _circulant_by_vertex(n, offsets):
    """The per-vertex form of circulant's fill, for every input."""
    a = np.zeros((n, n))
    for k, w in offsets:
        for i in range(n):
            a[i, (i + k) % n] = a[(i + k) % n, i] = float(w)
    return a


def _is_circulant_by_roll(graph):
    """The per-row np.roll form of is_circulant, for every input."""
    a = graph.adjacency
    return all(np.array_equal(a[i], np.roll(a[0], i))
               for i in range(1, graph.n))


def test_circulant_and_is_circulant_equal_per_row_forms():
    rng = np.random.default_rng(4)
    for n in range(1, 14):
        for _ in range(4):
            ks = (rng.integers(1, n // 2 + 1, size=rng.integers(0, 4))
                  if n > 1 else [])
            offsets = [(int(k), float(rng.uniform(0.1, 3.0))) for k in ks]
            g = circulant(n, offsets)
            assert np.array_equal(g.adjacency,
                                  _circulant_by_vertex(n, offsets))
            assert is_circulant(g) and _is_circulant_by_roll(g)
            if n < 3:
                continue
            # one symmetric pair moved off the circulant pattern
            i, j = rng.choice(n, size=2, replace=False)
            a = g.adjacency.copy()
            a[i, j] = a[j, i] = a[i, j] + 0.5
            h = Graph(a)
            assert is_circulant(h) == _is_circulant_by_roll(h)
            assert not is_circulant(h)
    tree = new_graph(4, [(0, 1, 1.0), (1, 2, 1.0)])
    assert is_circulant(tree) == _is_circulant_by_roll(tree)


def test_check_permutation():
    p = check_permutation([2, 0, 1])
    assert p.dtype == np.intp
    # integral floats are indices
    p = check_permutation(np.array([2.0, 0.0, 1.0]))
    assert p.dtype == np.intp
    assert np.array_equal(p, [2, 0, 1])
    with pytest.raises(IndexOutOfRangeError):
        check_permutation([0, 0, 2])
    with pytest.raises(IndexOutOfRangeError):
        check_permutation([0, 1, 3])
    with pytest.raises(SizeMismatchError):
        check_permutation([0, 1], n=3)
    with pytest.raises(SizeMismatchError):
        check_permutation([[0, 1]])
    with pytest.raises(IndexOutOfRangeError):
        check_permutation([])


@pytest.mark.parametrize("bad", [
    [0.7, 1.2, 2.9],
    [0.0, 1.5, 2.0],
    [0.0, np.nan, 2.0],
    [0.0, np.inf, 2.0],
    [0.0, 1.0, 1e300],
])
def test_non_integral_permutations_are_rejected(bad):
    # a cast to intp would truncate [0.7, 1.2, 2.9] to the identity
    with pytest.raises(IndexOutOfRangeError, match="integers"):
        check_permutation(bad)
    g = new_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    with pytest.raises(IndexOutOfRangeError, match="integers"):
        permute_graph(g, bad)


@pytest.mark.parametrize("bad", [
    [True, False],
    ["1", "0"],
    [1 + 0.5j, 0j],
    [1 + 0j, 0j],
], ids=["bool", "string", "complex", "complex-real"])
def test_non_numeric_permutations_are_rejected(bad):
    # a cast to intp would read each of these as [1, 0], dropping the
    # imaginary part of 1 + 0.5j
    with pytest.raises(IndexOutOfRangeError, match="integers"):
        check_permutation(bad)
    with pytest.raises(IndexOutOfRangeError, match="integers"):
        permute_graph(new_graph(2, [(0, 1, 1.0)]), bad)


def test_invert_permutation():
    p = np.array([2, 0, 3, 1], dtype=np.intp)
    inv = invert_permutation(p)
    assert np.array_equal(p[inv], np.arange(4))
    assert np.array_equal(inv[p], np.arange(4))


def _invert_by_scatter(p):
    """The scatter form of invert_permutation, for every input."""
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0], dtype=np.intp)
    return inv


def test_invert_permutation_equals_scatter_form():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 30, 200):
        for _ in range(5):
            p = rng.permutation(n).astype(np.intp)
            inv = invert_permutation(p)
            assert inv.dtype == np.intp
            assert np.array_equal(inv, _invert_by_scatter(p))


def test_permutation_matrix_algebra():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sigma = np.array(rng.permutation(n), dtype=np.intp)
        mat = permutation_matrix(sigma)
        m = rng.normal(size=(n, n))
        assert np.array_equal(mat @ m, m[sigma])
        assert np.array_equal(m @ mat, m[:, invert_permutation(sigma)])
        assert np.array_equal(mat.T, permutation_matrix(invert_permutation(sigma)))


def test_permute_graph_relation():
    rng = np.random.default_rng(8)
    g = erdos_renyi(9, 0.5, seed=2)
    p = np.array(rng.permutation(9), dtype=np.intp)
    h = permute_graph(g, p)
    assert h.edge_count() == g.edge_count()
    for i in range(9):
        for j in range(9):
            assert h.adjacency[p[i], p[j]] == g.adjacency[i, j]


@st.composite
def _weighted_graphs(draw):
    """Graphs on up to 8 vertices with any positive finite weights:
    subnormal, huge, and decimals with no short binary form."""
    n = draw(st.integers(min_value=1, max_value=8))
    weight = st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
                         1.7976931348623157e308]))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = draw(st.one_of(st.none(), weight))
            if w is not None:
                # either endpoint order names the same edge
                edges.append((j, i, w) if draw(st.booleans()) else (i, j, w))
    return new_graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(g=_weighted_graphs())
def test_write_read_round_trip(g):
    text = write_graph(g)
    back = read_graph(text)
    assert back.n == g.n
    assert np.array_equal(back.adjacency, g.adjacency)
    assert write_graph(back) == text


def _write_graph_by_pair(graph):
    """The double-loop form of write_graph, for every input."""
    lines = [str(graph.n)]
    a = graph.adjacency
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if a[i, j] != 0.0:
                lines.append(f"{i} {j} {float(a[i, j])!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(g=_weighted_graphs())
def test_write_graph_equals_double_loop_form(g):
    assert write_graph(g) == _write_graph_by_pair(g)


def test_read_graph_comments_and_blanks():
    text = "# a comment\n\n3\n# another\n0 1 2.5\n\n1 2 1.0\n"
    g = read_graph(text)
    assert g.n == 3 and g.edge_count() == 2
    assert g.adjacency[0, 1] == 2.5


def test_read_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        read_graph("3\n0 1\n")
    assert info.value.line_number == 2
    with pytest.raises(ParseError) as info:
        read_graph("x\n")
    assert info.value.line_number == 1
    with pytest.raises(ParseError) as info:
        read_graph("3 4\n")
    assert info.value.line_number == 1
    assert "expected a single vertex count" in str(info.value)
    with pytest.raises(ParseError) as info:
        read_graph("3\n0 1 1.0\n0 2 oops\n")
    assert info.value.line_number == 3
    with pytest.raises(ParseError):
        read_graph("")
    with pytest.raises(ParseError):
        read_graph("0\n")
    # a count numpy refuses before allocating anything
    with pytest.raises(ParseError) as info:
        read_graph("1000000000000\n")
    assert info.value.line_number == 1
    assert "too large" in str(info.value)
    with pytest.raises(DuplicateEdgeError):
        read_graph("3\n0 1 1.0\n1 0 1.0\n")


@pytest.mark.parametrize("text, line_number", [
    ("1_0\n", 1),
    ("\u0663\n", 1),
    ("12\n0 1_1 1.0\n", 2),
    ("12\n0 \u0661 1.0\n", 2),
    ("12\n0 1 1_0.5\n", 2),
    ("12\n0 1 \uff12.5\n", 2),
])
def test_read_graph_refuses_digit_separators_and_non_ascii_digits(
        text, line_number):
    # int() and float() would read each of these as a valid number
    with pytest.raises(ParseError) as info:
        read_graph(text)
    assert info.value.line_number == line_number


def test_parse_number_refuses_surrounding_whitespace():
    assert parse_number("6", int) == 6
    assert parse_number("-0.5", float) == -0.5
    for token in (" 6", "6 ", "6\n", "\t0.4"):
        with pytest.raises(ValueError, match="plain ASCII"):
            parse_number(token, float)
    # read_graph splits its lines, so padded lines still read
    graph = read_graph("  3 \n\t0  1   2.5 \n")
    assert graph.adjacency[0, 1] == 2.5


@pytest.mark.parametrize("text, error, line_number", [
    ("8\n0 9 1.0\n", IndexOutOfRangeError, 2),
    ("# header\n8\n\n3 3 1.0\n", SelfLoopError, 4),
    ("8\n0 1 0.0\n", NonPositiveWeightError, 2),
    ("8\n0 1 inf\n", NonPositiveWeightError, 2),
    ("8\n0 1 1.0\n1 0 1.0\n", DuplicateEdgeError, 3),
])
def test_read_graph_bad_edges_keep_their_type_and_line(text, error,
                                                       line_number):
    with pytest.raises(error) as info:
        read_graph(text)
    assert info.value.line_number == line_number
    assert str(info.value).startswith("line %d: " % line_number)


def test_file_round_trip(tmp_path):
    g = erdos_renyi(7, 0.6, seed=13)
    path = str(tmp_path / "g.txt")
    write_graph_file(g, path)
    back = read_graph_file(path)
    assert np.array_equal(back.adjacency, g.adjacency)
