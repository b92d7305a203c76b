"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Each test prints "ACCEPTANCE <k> PASS|FAIL: <detail>" before asserting,
so the verdict survives in captured output either way.
"""

import time

import numpy as np

from gftdual.alignment import (CD, CDPM, SolverConfig, cd_align, cdpm_align,
                               isomorphism_transport, multistart,
                               trace_objective, verify_circulant_duality)
from gftdual.assignment import solve_assignment_max
from gftdual.dual_construct import INFEASIBLE, construct_dual
from gftdual.dup import build_coupling, dup_bound
from gftdual.experiment import ExperimentConfig, run_experiment
from gftdual.graphs import circulant, erdos_renyi, invert_permutation
from gftdual.rng import SplitMix64, derive_stream
from gftdual.spectral import eigendecompose, has_distinct_eigenvalues
from oracles import assignment_bruteforce, permutation_matrix


def _report(criterion, ok, detail):
    print("ACCEPTANCE %d %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (criterion, detail)


def _distinct_pair(n, p, case_seed):
    """Deterministic G(n, p) pair with distinct spectra on both sides."""
    stream = SplitMix64(case_seed)
    while True:
        g1 = erdos_renyi(n, p, stream.next_uint64())
        g2 = erdos_renyi(n, p, stream.next_uint64())
        dec1 = eigendecompose(g1)
        dec2 = eigendecompose(g2)
        if has_distinct_eigenvalues(dec1) and has_distinct_eigenvalues(dec2):
            return dec1.vectors, dec2.vectors


def _random_orthogonal(rng, n, complex_valued):
    a = rng.standard_normal((n, n))
    if complex_valued:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_criterion_01_frobenius_trace_identity():
    start = time.monotonic()
    rng = np.random.default_rng(0xC1)
    worst = 0.0
    for case in range(500):
        n = (5, 10, 20)[case % 3]
        complex_valued = case % 2 == 1
        v1 = _random_orthogonal(rng, n, complex_valued)
        v2 = _random_orthogonal(rng, n, complex_valued)
        d1 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        d2 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        p1 = rng.permutation(n)
        p2 = rng.permutation(n)
        m = (v1 @ np.diag(d1) @ permutation_matrix(p1)
             @ v2 @ np.diag(d2) @ permutation_matrix(p2))
        frobenius_sq = float(np.linalg.norm(m - np.eye(n)) ** 2)
        objective = trace_objective(v1, d1, p1, v2, d2, p2)
        gap = abs(frobenius_sq - (2.0 * n - 2.0 * objective))
        worst = max(worst, gap / (1e-9 * n))
        if gap > 1e-9 * n:
            _report(1, False, "identity off by %.3e at n=%d" % (gap, n))
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    _report(1, ok, "500 instances, worst gap %.3g of budget, %.2fs"
            % (worst, elapsed))


def test_criterion_02_assignment_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(0xC2)
    checked = 0
    for n in range(3, 8):
        for _ in range(200):
            s = rng.standard_normal((n, n))
            _, fast = solve_assignment_max(s)
            _, exact = assignment_bruteforce(s)
            if fast != exact:
                _report(2, False, "mismatch %.17g vs %.17g at n=%d"
                        % (fast, exact, n))
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 1000 and elapsed < 5.0
    _report(2, ok, "%d instances exactly equal, %.2fs" % (checked, elapsed))


def test_criterion_03_monotone_descent_and_seed_dominance():
    start = time.monotonic()
    worst_step = 0.0
    worst_gain = np.inf
    for k in range(100):
        v1, v2 = _distinct_pair(20, 0.4, 3000 + k)
        stream = derive_stream(0xC3, k)
        d1 = stream.unit_phases(20)
        d2 = stream.unit_phases(20)
        p1 = stream.permutation(20)
        p2 = stream.permutation(20)
        for method, solution_of in (("CD", lambda: cd_align(
                v1, v2, init=(d1, d2), trace=trace)),
                                    ("CDPM", lambda: cdpm_align(
                v1, v2, init=(d1, p1, d2, p2), trace=trace))):
            trace = []
            solution = solution_of()
            for a, b in zip(trace, trace[1:]):
                worst_step = max(worst_step, a - b)
                if b < a - 1e-12:
                    _report(3, False, "%s run %d decreased by %.3e"
                            % (method, k, a - b))
            worst_gain = min(worst_gain, solution.objective - trace[0])
            if solution.objective < trace[0] - 1e-12:
                _report(3, False, "%s run %d final %.17g below init %.17g"
                        % (method, k, solution.objective, trace[0]))
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _report(3, ok, "200 runs monotone (worst step drop %.3g, worst final-init "
            "%.3g), %.2fs" % (worst_step, worst_gain, elapsed))


def test_criterion_04_weak_duality():
    start = time.monotonic()
    worst_margin = np.inf
    for k in range(50):
        v1, v2 = _distinct_pair(20, 0.4, 4000 + k)
        best = multistart(CD, v1, v2, SolverConfig(restarts=50, seed=k))
        bound = dup_bound(build_coupling(v1, v2)).bound
        worst_margin = min(worst_margin, bound - best.objective)
        if best.objective > bound + 1e-6:
            _report(4, False, "pair %d: CD %.12g exceeds bound %.12g"
                    % (k, best.objective, bound))
    elapsed = time.monotonic() - start
    ok = elapsed < 300.0
    _report(4, ok, "50 pairs, smallest bound margin %.3g, %.1fs"
            % (worst_margin, elapsed))


def test_criterion_05_convergence_speed():
    start = time.monotonic()
    iterations_cd = []
    iterations_cdpm = []
    for k in range(100):
        v1, v2 = _distinct_pair(20, 0.4, 5000 + k)
        stream = derive_stream(0xC5, k)
        # real sign initializations; random complex phases are known to
        # converge an order of magnitude slower for CD
        s1 = np.where(np.array([stream.random() for _ in range(20)]) < 0.5,
                      -1.0, 1.0).astype(complex)
        s2 = np.where(np.array([stream.random() for _ in range(20)]) < 0.5,
                      -1.0, 1.0).astype(complex)
        p1 = stream.permutation(20)
        p2 = stream.permutation(20)
        iterations_cd.append(cd_align(v1, v2, init=(s1, s2)).iterations)
        iterations_cdpm.append(
            cdpm_align(v1, v2, init=(s1, p1, s2, p2)).iterations)
    median_cd = float(np.median(iterations_cd))
    median_cdpm = float(np.median(iterations_cdpm))
    elapsed = time.monotonic() - start
    ok = median_cd <= 10.0 and median_cdpm <= 30.0
    _report(5, ok, "median iterations CD %.1f (<= 10), CDPM %.1f (<= 30), "
            "%.1fs" % (median_cd, median_cdpm, elapsed))


def test_criterion_06_circulant_lemma():
    start = time.monotonic()
    stream = SplitMix64(0xC6)
    worst = 0.0
    for k in range(20):
        n = (4, 6, 8, 12)[k % 4]
        graphs = []
        for _ in range(2):
            count = 1 + stream.integer_below(n // 2)
            offsets = []
            chosen = set()
            while len(offsets) < count:
                offset = 1 + stream.integer_below(n // 2)
                if offset in chosen:
                    continue
                chosen.add(offset)
                offsets.append((offset, 0.5 + 1.5 * stream.random()))
            graphs.append(circulant(n, offsets))
        residual = verify_circulant_duality(graphs[0], graphs[1])
        worst = max(worst, residual)
        if residual > 1e-9:
            _report(6, False, "pair %d residual %.3e" % (k, residual))
    elapsed = time.monotonic() - start
    _report(6, True, "20 circulant pairs, worst residual %.3g, %.2fs"
            % (worst, elapsed))


def test_criterion_07_infeasibility_rate():
    start = time.monotonic()
    infeasible = 0
    for seed in range(50):
        result = construct_dual(erdos_renyi(20, 0.5, 7000 + seed))
        if result.status == INFEASIBLE:
            infeasible += 1
    elapsed = time.monotonic() - start
    ok = infeasible >= 45 and elapsed < 120.0
    _report(7, ok, "%d of 50 infeasible (need >= 45), %.1fs"
            % (infeasible, elapsed))


def test_criterion_08_transport_preserves_objective():
    start = time.monotonic()
    rng = np.random.default_rng(0xC8)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(8, 16))
        v1, v2 = _distinct_pair(n, 0.4, 8000 + k)
        solution = cdpm_align(v1, v2)
        p = rng.permutation(n)
        side = 1 + k % 2
        moved = isomorphism_transport(solution, p, side)
        inv = invert_permutation(p)
        if side == 1:
            objective = trace_objective(v1[inv], moved.d1, moved.p1,
                                        v2, moved.d2, moved.p2)
        else:
            objective = trace_objective(v1, moved.d1, moved.p1,
                                        v2[inv], moved.d2, moved.p2)
        gap = abs(objective - solution.objective)
        worst = max(worst, gap)
        if gap > 1e-12:
            _report(8, False, "case %d objective moved by %.3e" % (k, gap))
    elapsed = time.monotonic() - start
    _report(8, True, "50 transports, worst objective change %.3g, %.2fs"
            % (worst, elapsed))


def test_criterion_09_desk_scale_sweep():
    start = time.monotonic()
    records = run_experiment(ExperimentConfig())
    table = {}
    for r in records:
        table.setdefault(r.method, {}).setdefault(r.n, []).append(r.objective)
    means = {method: {n: float(np.mean(v)) for n, v in by_n.items()}
             for method, by_n in table.items()}
    sizes = sorted(means["CD"])
    problems = []
    for n in sizes:
        if means["CDPM"][n] < means["CD"][n]:
            problems.append("CDPM < CD at n=%d" % n)
        if means["CD"][n] > means["DUP"][n]:
            problems.append("CD > DUP at n=%d" % n)
    for method in ("CD", "CDPM", "DUP"):
        series = [means[method][n] for n in sizes]
        if any(b <= a for a, b in zip(series, series[1:])):
            problems.append("%s series not increasing" % method)
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1200.0
    detail = "; ".join(problems) if problems else (
        "CDPM >= CD and CD <= DUP at every n, all series increasing")
    _report(9, ok, "%s, %.0fs" % (detail, elapsed))


def test_criterion_10_spectral_residuals():
    start = time.monotonic()
    rng = np.random.default_rng(0xCA)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 51))
        p = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
        g = erdos_renyi(n, p, int(rng.integers(0, 2 ** 63)))
        dec = eigendecompose(g)
        v, w = dec.vectors, dec.eigenvalues
        scale = max(1.0, float(np.linalg.norm(g.adjacency)))
        reconstruction = float(np.linalg.norm(
            v @ np.diag(w) @ v.T - g.adjacency))
        orthogonality = float(np.linalg.norm(v.T @ v - np.eye(n)))
        worst = max(worst, reconstruction / scale, orthogonality / scale)
        if reconstruction > 1e-10 * scale or orthogonality > 1e-10 * scale:
            _report(10, False, "residual %.3e / %.3e at n=%d (scale %.3g)"
                    % (reconstruction, orthogonality, n, scale))
    elapsed = time.monotonic() - start
    _report(10, True, "500 graphs, worst scaled residual %.3g, %.1fs"
            % (worst, elapsed))
