import gc
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qstego import info
from qstego.channels import compose, standard_channel, tensor_power
from qstego.fixtures import named_state, pgm_cc_cover
from qstego.info import (
    CqState,
    Pmf,
    inf_over_order,
    renyi_entropy,
    renyi_mi_down,
    renyi_mi_up,
    shannon_entropy,
    smooth_min_entropy_classical,
    smooth_min_entropy_quantum,
    sup_over_order,
)
from qstego.linalg import HERM_TOL, ZERO_CUT, DensityMatrix, as_matrix, basis_state, herm_defect
from qstego.protocols import side_states_from_degradation
from qstego.protocols.resolvability import output_cq
from qstego.protocols.verifiers import SAMPLE_CHUNK_BYTES, experiment_random_code_entropy

from .test_linalg import random_density


def random_cq(rng, nx, dim):
    pmf = rng.dirichlet(np.ones(nx))
    return CqState(Pmf(pmf), tuple(random_density(rng, dim) for _ in range(nx)))


def product_cq(rng, nx, dim):
    pmf = rng.dirichlet(np.ones(nx))
    rho = random_density(rng, dim)
    return CqState(Pmf(pmf), tuple(rho for _ in range(nx)))


def correlated_uniform(d):
    states = tuple(basis_state(x, d).to_density() for x in range(d))
    return CqState(Pmf(np.full(d, 1.0 / d)), states)


def mi_up_oracle(cq, a):
    """Second from-scratch evaluation of the sandwiched trace formula."""
    nx, d = cq.alphabet_size, cq.dim_b
    joint = np.zeros((nx * d, nx * d), dtype=complex)
    for x in range(nx):
        joint[x * d : (x + 1) * d, x * d : (x + 1) * d] = cq.pmf.probs[x] * cq.states[x].data
    rho_b = sum(cq.pmf.probs[x] * cq.states[x].data for x in range(nx))
    ref = np.kron(np.diag(cq.pmf.probs), rho_b)

    def power(mat, expo):
        w, v = np.linalg.eigh(mat)
        out = np.zeros_like(w)
        mask = w > 1e-12
        out[mask] = w[mask] ** expo
        return (v * out) @ v.conj().T

    inner = joint @ power(ref, a / 2) @ power(joint, -a) @ power(ref, a / 2)
    return -math.log2(np.trace(inner).real) / a


def mi_down_oracle(cq, a):
    rho_b = sum(cq.pmf.probs[x] * cq.states[x].data for x in range(cq.alphabet_size))

    def power(mat, expo):
        w, v = np.linalg.eigh(mat)
        out = np.zeros_like(w)
        mask = w > 1e-12
        out[mask] = w[mask] ** expo
        return (v * out) @ v.conj().T

    total = sum(
        cq.pmf.probs[x] * np.trace(power(cq.states[x].data, 1 - a) @ power(rho_b, a)).real
        for x in range(cq.alphabet_size)
    )
    return -math.log2(total) / a


def entropy_of(rho, orders):
    """H^a(rho) at each of the orders, through the batch of the one state."""
    return renyi_entropy([rho])(np.array([orders], dtype=float))[0]


class TestRenyiEntropy:
    def test_maximally_mixed(self):
        for d in range(2, 9):
            h = entropy_of(np.eye(d) / d, [0.1, 0.5, 0.9, -0.5, -2.0])
            assert h == pytest.approx([math.log2(d)] * 5, abs=1e-9)

    def test_pure_state(self):
        rho = basis_state(1, 3).to_density()
        assert entropy_of(rho, [0.2, 0.8, -0.5]) == pytest.approx([0.0] * 3, abs=1e-12)

    def test_direct_evaluation(self):
        rho = np.diag([0.75, 0.25])
        assert entropy_of(rho, [1.0])[0] == pytest.approx(-math.log2(0.625), abs=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="invalid order"):
            entropy_of(np.eye(2) / 2, [0.5, 0.0])

    def test_monotone_in_order(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.05, 2.0, 12)
        for dim in (2, 3, 4):
            for _ in range(100):
                vals = entropy_of(random_density(rng, dim), grid)
                assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))


class TestRenyiMutualInformation:
    def test_product_states_vanish(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cq = product_cq(rng, 3, 2)
            for a in (0.3, 0.7, -0.5, -2.0):
                assert renyi_mi_up(cq)(a) == pytest.approx(0.0, abs=1e-9)
                assert renyi_mi_down(cq)(a) == pytest.approx(0.0, abs=1e-9)

    def test_perfectly_correlated(self):
        for d in (2, 3, 4):
            cq = correlated_uniform(d)
            for a in (0.25, 0.75):
                assert renyi_mi_up(cq)(a) == pytest.approx(math.log2(d), abs=1e-9)
            for a in (-0.5, -2.0):
                assert renyi_mi_down(cq)(a) == pytest.approx(math.log2(d), abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cq = random_cq(rng, 2, 2)
            for a in (0.3, 0.6, -0.7):
                assert renyi_mi_up(cq)(a) == pytest.approx(mi_up_oracle(cq, a), abs=1e-9)
                assert renyi_mi_down(cq)(a) == pytest.approx(mi_down_oracle(cq, a), abs=1e-9)

    def test_mi_up_nonnegative_for_commuting_states(self):
        # Holder gives tr(rho^(1-a) sigma^a) <= 1 when everything commutes
        rng = np.random.default_rng(3)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(3))
            states = tuple(DensityMatrix(np.diag(rng.dirichlet(np.ones(2)))) for _ in range(3))
            cq = CqState(Pmf(pmf), states)
            for a in (0.1, 0.5, 0.9):
                assert renyi_mi_up(cq)(a) >= -1e-9


class TestSmoothMinEntropy:
    def test_uniform(self):
        for d in (2, 5, 8):
            assert smooth_min_entropy_classical(np.full(d, 1 / d), 0.0) == pytest.approx(
                math.log2(d), abs=1e-12
            )

    def test_deterministic(self):
        assert smooth_min_entropy_classical([1.0, 0.0], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_cap_and_spill_worked_example(self):
        assert smooth_min_entropy_classical([0.5, 0.25, 0.25], 0.25) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            vals = [smooth_min_entropy_classical(p, e) for e in (0.0, 0.1, 0.2, 0.4)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
            assert vals[0] == pytest.approx(-math.log2(p.max()), abs=1e-12)

    def test_quantum_reduces_to_spectrum(self):
        rho = np.diag([0.5, 0.25, 0.25])
        assert smooth_min_entropy_quantum(rho, 0.25) == pytest.approx(2.0, abs=1e-12)
        assert smooth_min_entropy_quantum(np.eye(4) / 4, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert smooth_min_entropy_quantum(basis_state(0, 3).to_density(), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestEntropyAndHolevo:
    def test_zero_entropy_is_positive_zero(self):
        # -sum would give -0.0, which a CSV cell renders as "-0.0"
        h = shannon_entropy([1.0, 0.0])
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


def each(fs):
    """The batch objective of the one-problem float-order functions ``fs``, as
    a reference: entry (p, j) of an order array of shape (P,) or (P, k) is
    ``fs[p]`` at that order as a Python float, NaN at a NaN order (no call),
    and -inf where ``fs[p]`` raises."""
    fs = tuple(fs)

    def one(f, x):
        if x != x:
            return math.nan
        try:
            return f(x)
        except (ValueError, ArithmeticError, FloatingPointError):
            return -math.inf

    # no closure refers to itself or stores an exception: a reference cycle
    # would keep the functions' cached eigenvectors until the next collection
    def values(a):
        if a.ndim == 1:
            return np.array([one(f, x) for f, x in zip(fs, a.tolist())])
        return np.array([[one(f, x) for x in row] for f, row in zip(fs, a.tolist())])

    return values


def one_problem(optimize, f):
    """The optimum of the lone problem f, through the batch objective of :func:`each`."""
    [opt] = optimize(each([f]), batch=1)
    return opt


class TestOrderOptimizer:
    def test_constant(self):
        res = one_problem(sup_over_order, lambda a: 3.25)
        assert res.value == pytest.approx(3.25, abs=1e-12)

    def test_monotone_boundary(self):
        res = one_problem(sup_over_order, lambda a: -1.0 / a)
        assert res.value == pytest.approx(-1.0, abs=1e-3)
        assert res.boundary

    def test_matches_dense_grid(self):
        # noiseless cypher-rate integrand for the maximally mixed cover state
        zeta = 1e-3

        def f(a):
            return 1.0 - (4.0 / a) * math.log2(2.0 / zeta)

        res = one_problem(sup_over_order, f)
        dense = np.linspace(1e-6, 1 - 1e-6, 100_000)
        oracle = max(f(a) for a in dense)
        assert abs(res.value - oracle) < 1e-6

    def test_result_dominates_grid(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=4)

        def f(a):
            return c[0] + c[1] * a + c[2] * a * a + c[3] * math.sin(3 * a)

        res = one_problem(sup_over_order, f)
        for a in np.linspace(0.005, 0.995, 199):
            assert res.value >= f(a) - 1e-12

    def test_no_finite_value(self):
        with pytest.raises(ValueError, match="no finite value"):
            one_problem(sup_over_order, lambda a: math.nan)

    def test_sup_at_lower_edge(self):
        res = one_problem(sup_over_order, lambda a: -a)
        assert res.a_star == pytest.approx(1e-6, abs=1e-9)
        assert res.value == pytest.approx(-1e-6, abs=1e-9)
        assert res.boundary

    def test_inf_over_order_interior(self):
        res = one_problem(inf_over_order, lambda a: (a + 2.0) ** 2)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.a_star == pytest.approx(-2.0, abs=1e-4)
        assert not res.boundary

    def test_inf_over_order_boundary_flag(self):
        res = one_problem(inf_over_order, lambda a: a)
        assert res.boundary
        assert res.value == pytest.approx(-8.0, abs=1e-9)

    def test_inf_over_order_upper_edge_flagged(self):
        res = one_problem(inf_over_order, lambda a: -a)
        assert res.a_star == pytest.approx(-0.01, abs=1e-9)
        assert res.value == pytest.approx(0.01, abs=1e-9)
        assert res.boundary


# The two-argument evaluations the order functions replace, kept verbatim as
# the reference: one diagonalization per order, powers from matrix_power.


def matrix_power(rho, a):
    """rho^a from its own eigendecomposition: the one-exponent power that the
    stacked power_function replaced.  Eigenvalues below the zero cut are exact
    zeros, and map to 0 for a < 0; raises ValueError where the power is not
    Hermitian within 1e-10."""
    w, v = np.linalg.eigh(as_matrix(rho))
    w = np.where(w < ZERO_CUT, 0.0, w)
    support = w > 0.0
    powered = np.where(support, np.where(support, w, 1.0) ** a, 0.0) if a < 0 else w**a
    power = (v * powered) @ v.conj().T
    if not herm_defect(power) <= HERM_TOL:
        raise ValueError("invalid operator: not Hermitian")
    return power


def reference_renyi_entropy(rho, a):
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    lam = np.linalg.eigvalsh(as_matrix(rho))
    lam = np.where(lam < ZERO_CUT, 0.0, lam)
    lam = lam[lam > 0.0]
    return float(-np.log2(np.sum(lam ** (1.0 + a))) / a)


def reference_mi_up(cq, a):
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    joint = cq.joint()
    ref = np.kron(np.diag(cq.pmf.probs).astype(complex), cq.marginal_b())
    ref_half = matrix_power(ref, a / 2.0)
    joint_neg = matrix_power(joint, -a)
    val = np.trace(joint @ ref_half @ joint_neg @ ref_half).real
    return float(-np.log2(max(val, 1e-300)) / a)


def reference_mi_down(cq, a):
    if a == 0:
        raise ValueError("invalid order: a must be nonzero")
    rho_b = cq.marginal_b()
    rb_a = matrix_power(rho_b, a)
    total = 0.0
    for px, s in zip(cq.pmf.probs, cq.states):
        if px <= 0.0:
            continue
        total += px * np.trace(matrix_power(s, 1.0 - a) @ rb_a).real
    return float(-np.log2(max(total, 1e-300)) / a)


def near_singular_density(rng, dim):
    """A random state whose smallest eigenvalues straddle the 1e-12 zero cut."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = rng.dirichlet(np.ones(dim))
    w[: dim // 2] = 10.0 ** rng.uniform(-14, -9, size=dim // 2)
    a = (u * (w / w.sum())) @ u.conj().T
    return DensityMatrix((a + a.conj().T) / 2)


def degraded_side_outputs():
    """The side cq states of the benchmark's rates-cc-noisy-n3 instance:
    dephasing p=0.1 degradation of |+++>, |---> behind dephasing p=0.2."""
    n_true = tensor_power(standard_channel("dephasing", 0.2), 3)
    m = tensor_power(standard_channel("dephasing", 0.1), 3)
    codewords = [DensityMatrix(reduce(np.kron, [named_state(s).data] * 3)) for s in ("plus", "minus")]
    cover = pgm_cc_cover(codewords, compose(n_true, m), 3)
    return [output_cq(s, n_true) for s in side_states_from_degradation(cover, m)]


SUP_GRID = np.linspace(info.SUP_PAD, 1.0 - info.SUP_PAD, info.GRID_POINTS)
INF_GRID = -np.logspace(math.log10(-info.INF_HI), math.log10(-info.INF_LO), info.GRID_POINTS)


def outcomes(f, grid):
    """f at every order of the grid, with None where it raises ValueError."""
    out = []
    for a in grid:
        try:
            out.append(f(a))
        except ValueError:
            out.append(None)
    return out


def as_array(values):
    """The outcomes as the order-array path gives them: NaN where the evaluation raised."""
    return np.array([math.nan if v is None else v for v in values])


def bit_patterns(values):
    """The float bits of each value, every NaN as one pattern."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), math.nan, values).view(np.uint64).tolist()


class TestOrderFunctionsBitForBit:
    """The order functions reproduce the per-order evaluations exactly (==)."""

    def cq_states(self):
        rng = np.random.default_rng(11)
        full = [random_cq(rng, nx, d) for nx, d in ((2, 2), (3, 2), (2, 4))]
        near = [
            CqState(Pmf(rng.dirichlet(np.ones(nx))), tuple(near_singular_density(rng, d) for _ in range(nx)))
            for nx, d in ((2, 2), (3, 4), (2, 4))
        ]
        return full + near

    @pytest.mark.parametrize("grid", [SUP_GRID, INF_GRID], ids=["sup", "inf"])
    def test_renyi_entropy(self, grid):
        rng = np.random.default_rng(12)
        states = [random_density(rng, d) for d in (2, 3, 8)] + [near_singular_density(rng, d) for d in (2, 4, 8)]
        for cq in self.cq_states():
            states += [cq.marginal_b(), cq.joint()]
        refs = [outcomes(lambda a: reference_renyi_entropy(rho, a), grid) for rho in states]
        assert renyi_entropy(states)(np.broadcast_to(grid, (len(states), grid.size))).tolist() == refs
        for rho, ref in zip(states, refs):
            assert entropy_of(rho, grid).tolist() == ref

    @pytest.mark.parametrize("grid", [SUP_GRID, INF_GRID], ids=["sup", "inf"])
    def test_mutual_informations(self, grid):
        for cq in self.cq_states():
            for factory, reference in ((renyi_mi_up, reference_mi_up), (renyi_mi_down, reference_mi_down)):
                f = factory(cq)
                ref = outcomes(lambda a: reference(cq, a), grid)
                assert bit_patterns(f(grid)) == bit_patterns(as_array(ref))
                # a scalar order is a 0-d array on the same path
                assert bit_patterns([f(a) for a in grid.tolist()]) == bit_patterns(as_array(ref))
                # a (P, k) array with NaN orders: NaN there, the same bits elsewhere
                orders = np.stack([grid, np.where(np.arange(grid.size) % 3, grid, math.nan)])
                expected = np.stack([as_array(ref), np.where(np.isnan(orders[1]), math.nan, as_array(ref))])
                assert bit_patterns(f(orders)) == bit_patterns(expected)

    @pytest.mark.parametrize("support", ["mixed", "one-size"])
    def test_renyi_batch_pair_equals_its_columns(self, support):
        # the optimizer evaluates (c, d) and (lo, hi) as one (P, 2) call
        rng = np.random.default_rng(13)
        states = mixed_support_states() if support == "mixed" else [random_density(rng, 4) for _ in range(6)]
        h = renyi_entropy(states)
        for lo, hi in ((info.SUP_EDGE, 1.0 - info.SUP_EDGE), (info.INF_LO, info.INF_HI)):
            pair = rng.uniform(lo, hi, size=(len(states), 2))
            both = h(pair)
            for j in range(2):
                alone = h(np.ascontiguousarray(pair[:, j]))
                assert both[:, j].view(np.uint64).tolist() == alone.view(np.uint64).tolist()

    def test_key_rate_grid_skips_failed_hermiticity_checks(self):
        # the powers of the degraded dephasing states fail the 1e-10
        # Hermiticity check at some key-rate orders; the reference raises
        # there, the order function gives NaN at exactly those orders, and
        # the optimizer reads -inf
        skipped = 0
        for cq in degraded_side_outputs():
            f = renyi_mi_down(cq)
            ref = outcomes(lambda a: reference_mi_down(cq, a), INF_GRID)
            assert bit_patterns(f(INF_GRID)) == bit_patterns(as_array(ref))
            skipped += ref.count(None)
        assert skipped == 23 * 2

    @pytest.mark.parametrize("factory", [renyi_mi_up, renyi_mi_down])
    def test_order_array_holds_one_block_of_powers(self, factory):
        # D = 64: the (199, 64, 64) stack of powers (13 MB) is formed a block
        # of POWER_BLOCK_BYTES at a time
        rng = np.random.default_rng(14)
        cq = random_cq(rng, 2, 32) if factory is renyi_mi_up else random_cq(rng, 2, 64)
        f = factory(cq)
        grid = SUP_GRID if factory is renyi_mi_up else INF_GRID
        stack_bytes = grid.size * 16 * 64 * 64
        f(grid[:2])
        tracemalloc.start()
        try:
            f(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * info.POWER_BLOCK_BYTES < stack_bytes / 4

    def test_one_spectrum_per_random_code_sample(self, monkeypatch):
        # one stacked eigvalsh call per chunk of samples, one spectrum per sample
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)[:-2]) or eigvalsh(a))
        samples = 20
        experiment_random_code_entropy(2, 3, 2, standard_channel("dephasing", 0.5), samples=samples, delta=0.5, seed=0)
        step = SAMPLE_CHUNK_BYTES // (16 * 8 * 8**2)  # 8 Kraus operators of dimension 8
        assert calls == [(step,)] * (samples // step) + [(samples % step,)]

    def test_renyi_entropy_of_stacks_equals_states(self):
        # a stack, or an iterator of stacks and states, gives the bits of the states one by one
        states = [s.data for s in mixed_support_states() if s.dim == 5]
        stack = np.array(states)
        grid = np.broadcast_to(SUP_GRID, (len(states), SUP_GRID.size))
        expected = renyi_entropy(states)(grid)
        assert renyi_entropy(stack)(grid).tolist() == expected.tolist()
        assert renyi_entropy(iter([stack[:2], states[2], stack[3:]]))(grid).tolist() == expected.tolist()


# The one-problem optimizer that the lockstep core replaced, kept verbatim as
# the reference: grid in one call, then a golden-section loop of its own.


def reference_safe(f):
    def one(a):
        try:
            v = f(a)
        except (ValueError, ArithmeticError, FloatingPointError):
            return -math.inf
        return v if math.isfinite(v) else -math.inf

    def g(a):
        if not isinstance(a, np.ndarray):
            return one(a)
        try:
            v = np.asarray(f(a), dtype=float)
        except (TypeError, ValueError, ArithmeticError, FloatingPointError):
            v = None
        if v is None or v.shape != a.shape:
            return np.array([one(x) for x in a])
        return np.where(np.isfinite(v), v, -math.inf)

    return g


def reference_golden_max(f, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= info.GOLDEN_TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    cands = [(f(lo), lo), (f(hi), hi), (fc, c), (fd, d)]
    val, arg = max(cands, key=lambda t: t[0])
    return arg, val


def reference_grid_then_golden(g, grid, before_first, after_last):
    vals = g(grid)
    if not np.any(np.isfinite(vals)):
        raise ValueError("no finite value")
    i = int(np.argmax(vals))
    prev = grid[i - 1] if i > 0 else before_first
    nxt = grid[i + 1] if i < grid.size - 1 else after_last
    arg, val = reference_golden_max(g, float(min(prev, nxt)), float(max(prev, nxt)))
    if vals[i] > val:
        arg, val = float(grid[i]), float(vals[i])
    return arg, val


def reference_sup(f):
    arg, val = reference_grid_then_golden(reference_safe(f), SUP_GRID, info.SUP_EDGE, 1.0 - info.SUP_EDGE)
    boundary = arg <= 2 * info.SUP_EDGE or arg >= 1.0 - 2 * info.SUP_EDGE
    return info.OrderOptimum(a_star=float(arg), value=float(val), boundary=boundary)


def reference_inf(f):
    arg, val = reference_grid_then_golden(reference_safe(lambda a: -f(a)), INF_GRID, info.INF_HI, info.INF_LO)
    boundary = arg <= info.INF_LO * (1 - 1e-9) + 1e-12 or arg >= info.INF_HI * (1 + 1e-9) - 1e-12
    return info.OrderOptimum(a_star=float(arg), value=float(-val), boundary=boundary)


def mixed_support_states():
    """Random, rank-deficient and pure states with support sizes 1 to 17."""
    rng = np.random.default_rng(31)
    states = []
    for d in (1, 2, 3, 5, 8, 9, 12, 17):
        for rank in sorted({1, max(1, d // 2), d}):
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            a = g @ g.conj().T
            states.append(DensityMatrix((a + a.conj().T) / (2 * np.trace(a).real)))
    return states


def column(values, a):
    """Per-problem constants shaped to broadcast against an order array a."""
    return values.reshape((-1,) + (1,) * (a.ndim - 1))


WINDOWS = {"sup": (sup_over_order, reference_sup), "inf": (inf_over_order, reference_inf)}


class TestLockstepBitForBit:
    """A batch of optima equals the one-problem reference optimizer (==)."""

    @pytest.mark.parametrize("window", WINDOWS)
    def test_renyi_batch(self, window):
        optimize, reference = WINDOWS[window]
        states = mixed_support_states()
        expected = [reference(lambda a, s=s: reference_renyi_entropy(s, a)) for s in states]
        assert [optimize(renyi_entropy([s]), batch=1)[0] for s in states] == expected
        assert optimize(renyi_entropy(states), batch=len(states)) == expected
        assert optimize(renyi_entropy(iter(states)), batch=len(states)) == expected

    def test_noiseless_rate_objective(self):
        states = mixed_support_states()
        penalty = math.log2(2.0 / 0.3)
        expected = [reference_sup(lambda a, s=s: reference_renyi_entropy(s, a) - (4.0 / a) * penalty) for s in states]
        h = renyi_entropy(states)
        assert sup_over_order(lambda a: h(a) - (4.0 / a) * penalty, batch=len(states)) == expected

    @pytest.mark.parametrize("window", WINDOWS)
    def test_optima_at_both_window_edges(self, window):
        optimize, reference = WINDOWS[window]
        slopes = np.array([1.0, -1.0, 0.5, -2.0, 3.0])
        expected = [reference(lambda a, s=s: s * a + 0.25) for s in slopes]
        assert {o.boundary for o in expected} == {True}
        assert len({o.a_star for o in expected}) == 2
        assert [one_problem(optimize, lambda a, s=s: s * a + 0.25) for s in slopes] == expected
        assert optimize(lambda a: column(slopes, a) * a + 0.25, batch=slopes.size) == expected

    @pytest.mark.parametrize("window", WINDOWS)
    def test_raising_and_nonfinite_orders(self, window):
        optimize, reference = WINDOWS[window]
        sign = 1.0 if window == "sup" else -1.0
        # problem p peaks at centers[p]; orders inside holes[p] raise (give
        # nan in the vectorized batch), orders past cuts[p] (in |a|) give nan
        # and orders below floors[p] give inf
        centers = sign * np.array([0.4, 0.65, 0.2, 0.9, 0.5])
        holes = sign * np.array([[0.35, 0.45], [2.0, 2.0], [0.05, 0.1], [0.5, 0.95], [2.0, 2.0]])
        holes.sort(axis=1)
        cuts = np.array([2.0, 0.6, 2.0, 2.0, 0.55])
        floors = np.array([0.0, 0.1, 0.0, 0.0, 0.3])

        def one(p):
            def f(a):
                if holes[p, 0] <= a <= holes[p, 1]:
                    raise ValueError("hole")
                if abs(a) > cuts[p]:
                    return math.nan
                if abs(a) < floors[p]:
                    return math.inf
                return sign * -((a - centers[p]) * (a - centers[p]))

            return f

        def batch(a):
            v = sign * -((a - column(centers, a)) * (a - column(centers, a)))
            v = np.where((column(holes[:, 0], a) <= a) & (a <= column(holes[:, 1], a)), math.nan, v)
            v = np.where(np.abs(a) > column(cuts, a), math.nan, v)
            return np.where(np.abs(a) < column(floors, a), math.inf, v)

        expected = [reference(one(p)) for p in range(centers.size)]
        assert [one_problem(optimize, one(p)) for p in range(centers.size)] == expected
        assert optimize(each([one(p) for p in range(centers.size)]), batch=centers.size) == expected
        assert optimize(batch, batch=centers.size) == expected

    @pytest.mark.parametrize("window", WINDOWS)
    def test_ties_on_a_plateau(self, window):
        # flat tops narrower than the grid step, centred in their golden
        # bracket: the first two inner points tie, and a tie keeps [a, d]
        optimize, reference = WINDOWS[window]
        sign, grid = (1.0, SUP_GRID) if window == "sup" else (-1.0, INF_GRID)
        i = np.array([40, 100, 160])
        centers, halves = (grid[i - 1] + grid[i + 1]) / 2, 0.15 * np.abs(grid[i + 1] - grid[i - 1])

        def one(p):
            return lambda a: sign * -max(abs(a - centers[p]) - halves[p], 0.0)

        expected = [reference(one(p)) for p in range(i.size)]
        assert optimize(each([one(p) for p in range(i.size)]), batch=i.size) == expected
        batch = lambda a: sign * -np.maximum(np.abs(a - column(centers, a)) - column(halves, a), 0.0)
        assert optimize(batch, batch=i.size) == expected

    def test_problems_finishing_at_different_steps(self):
        # minima spread over the log grid give brackets of widths ~800x apart,
        # so the problems close their brackets at different golden steps
        centers = np.array([-0.02, -0.3, -1.5, -6.0])
        expected, evaluated = [], []
        for c in centers:
            orders = []

            def f(a, c=c, orders=orders):
                orders.extend(a.tolist() if isinstance(a, np.ndarray) else [a])
                return (a - c) * (a - c)

            expected.append(reference_inf(f))
            evaluated.append(orders)
        calls = []

        def batch(a):
            calls.append(a.copy())
            return (a - column(centers, a)) * (a - column(centers, a))

        assert inf_over_order(batch, batch=centers.size) == expected
        for p, orders in enumerate(evaluated):
            row = [x for a in calls for x in np.atleast_1d(a[p]).tolist()]
            assert [x for x in row if x == x] == orders  # the reference's orders, in order
        steps = np.array([a for a in calls if a.ndim == 1])
        finished = np.isnan(steps)
        # once a row is sent NaN it is sent only NaN until the bracket ends
        assert (finished[1:] >= finished[:-1]).all()
        assert len(set(finished.sum(axis=0).tolist())) == centers.size

    def test_batch_without_finite_value_raises(self):
        with pytest.raises(ValueError, match="no finite value"):
            sup_over_order(lambda a: np.where(column(np.array([0.0, 1.0]), a) > 0, math.nan, a), batch=2)

    def test_batch_calls_the_objective_about_as_often_as_one_problem(self):
        rng = np.random.default_rng(32)
        states = [random_density(rng, d) for d in rng.integers(1, 9, size=200)]
        calls = []

        def counted(h):
            def f(a):
                calls.append(1)
                return h(a)

            return f

        single = []
        for s in states:
            calls.clear()
            sup_over_order(counted(renyi_entropy([s])), batch=1)
            single.append(len(calls))
        calls.clear()
        sup_over_order(counted(renyi_entropy(states)), batch=len(states))
        assert len(calls) <= 2 * max(single) < len(states)

    def test_objective_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="bad objective"):
            sup_over_order(lambda a: a[:1], batch=2)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="bad parameter"):
            sup_over_order(lambda a: a, batch=0)
        with pytest.raises(ValueError, match="bad parameter"):
            renyi_entropy([])


class TestEach:
    """The reference batch objective of one-problem float-order functions."""

    @staticmethod
    def recorded(calls, f):
        def g(a):
            calls.append(a)
            return f(a)

        return g

    def test_entries_are_float_calls(self):
        calls = []
        fs = [self.recorded(calls, lambda a: 2.0 * a), self.recorded(calls, lambda a: -a)]
        out = each(fs)(np.array([0.25, 0.5]))
        assert out.shape == (2,) and out.tolist() == [0.5, -0.5]
        out = each(fs)(np.array([[0.25, 0.5, 0.75], [0.125, 0.25, 0.375]]))
        assert out.shape == (2, 3) and out.tolist() == [[0.5, 1.0, 1.5], [-0.125, -0.25, -0.375]]
        assert {type(a) for a in calls} == {float}

    def test_nan_order_gives_nan_without_a_call(self):
        calls = []
        out = each([self.recorded(calls, lambda a: a)] * 2)(np.array([[0.5, math.nan], [math.nan, math.nan]]))
        assert out[0, 0] == 0.5 and np.isnan(out[0, 1]) and np.isnan(out[1]).all()
        assert calls == [0.5]

    def test_raise_gives_minus_inf_in_that_entry_only(self):
        def f(a):
            if a == 0.5:
                raise ValueError("no value")
            return a

        out = each([f, f])(np.array([[0.5, 0.25], [0.75, 0.5]]))
        assert out.tolist() == [[-math.inf, 0.25], [0.75, -math.inf]]
        assert each([f, lambda a: 1 / (a - a)])(np.array([0.5, 0.25])).tolist() == [-math.inf, -math.inf]

    def test_no_reference_cycle(self):
        # a raising order must not leave a cycle that keeps the functions alive
        def f(a):
            if a > 0.5:
                raise ArithmeticError("no value")
            return a

        gc.collect()
        gc.disable()
        try:
            values = each([f, renyi_mi_down(correlated_uniform(2))])
            values(np.array([[0.75, 0.25], [0.75, 0.25]]))
            one_problem(sup_over_order, f)
            del values
            assert gc.collect() == 0
        finally:
            gc.enable()
