import re
import tracemalloc

import numpy as np
import pytest

from qstego.channels import Isometry, QuantumChannel, check_kraus, identity_channel
from qstego.channels import tensor as channel_tensor
from qstego.info import Pmf
from qstego.linalg import (
    EIG_TOL,
    ZERO_CUT,
    DensityMatrix,
    HermitianOperator,
    Povm,
    PureState,
    basis_state,
    check_povms,
    check_states,
    distinct_eigenvalue_counts,
    fidelity,
    maximally_entangled,
    partial_trace_matrix,
    power_function,
    purify,
    schmidt_decompose,
    trace_norm,
)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    return DensityMatrix(a / np.trace(a))


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


class TestTypes:
    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="invalid state"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="invalid state"):
            PureState(np.array([1.0, 1.0]))

    def test_povm_completeness(self):
        Povm(np.array([0.5 * np.eye(2), 0.5 * np.eye(2)]))
        with pytest.raises(ValueError, match="invalid POVM"):
            Povm(np.array([0.5 * np.eye(2), 0.4 * np.eye(2)]))

    @pytest.mark.parametrize(
        "elements,message",
        [
            ([np.diag([1.0, 0.5]), np.diag([0.2, 0.5]), np.diag([-0.2, 0.0])], "invalid POVM: element outside [0, 1]"),
            ([np.diag([1.5, 0.0]), np.diag([0.0, 1.0])], "invalid POVM: element outside [0, 1]"),
            ([0.5 * np.eye(2), 0.4 * np.eye(2)], "invalid POVM: elements do not sum to identity"),
            ([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])], "invalid operator: not Hermitian"),
            ([np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([[0.5, -0.1], [0.0, 0.5]])], "invalid operator: not Hermitian"),
            ([np.ones((2, 3))], "shape error: not a square matrix"),
            (np.zeros((0, 2, 2)), "invalid POVM: no elements"),
            (np.eye(2), "shape error: not an (n, d, d) stack"),
        ],
        ids=["negative", "above-one", "not-complete", "nan", "not-hermitian", "not-square", "empty", "not-a-stack"],
    )
    def test_povm_rejects(self, elements, message):
        # the messages of the per-element checks, on one (n, d, d) stack
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Povm(np.array(elements, dtype=complex))

    def test_povm_check_holds_no_second_stack(self):
        # eight d = 256 elements (8 MiB): the checks run on 1 MiB blocks, so
        # they add less than another stacked copy
        elements = np.zeros((8, 256, 256), dtype=complex)
        elements[:, np.arange(256), np.arange(256)] = 1.0 / 8
        tracemalloc.start()
        try:
            Povm(elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= elements.nbytes

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix(np.diag([np.nan, 1.0])),
            lambda: DensityMatrix(np.full((2, 2), np.nan)),
            lambda: HermitianOperator(np.diag([np.nan, 1.0])),
            lambda: Pmf([np.nan, 1.0]),
            lambda: QuantumChannel((np.diag([np.nan, 1.0]),)),
            lambda: Isometry(np.array([[np.nan], [0.0]])),
            lambda: Povm(np.array([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])),
            lambda: PureState(np.array([np.nan, 1.0])),
        ],
        ids=["density-diag", "density-all", "hermitian", "pmf", "channel", "isometry", "povm", "pure"],
    )
    def test_nan_rejected(self, build):
        # every bound check is written so that a NaN compares as a failure
        with pytest.raises(ValueError, match="invalid"):
            build()

    def test_random_states_valid(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            for _ in range(20):
                rho = random_density(rng, dim)
                assert abs(np.trace(rho.data) - 1) < 1e-10
                assert np.linalg.eigvalsh(rho.data).min() > -1e-10


def one_bad(good, bad, at, batch=(2, 3)):
    """A stack of ``good`` matrices of the given batch shape with ``bad`` at index ``at``."""
    stack = np.broadcast_to(np.asarray(good, dtype=complex), batch + np.shape(good)).copy()
    stack[at] = bad
    return stack


class TestStackedChecks:
    """One check per kind over any batch shape: one bad item raises its message."""

    STATE = np.diag([0.75, 0.25])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "invalid state: not Hermitian"),
            (np.diag([0.75, 0.3]), "invalid state: trace not 1"),
            (np.diag([1.5, -0.5]), "invalid state: negative eigenvalue"),
            (np.diag([np.nan, 1.0]), "invalid state: not Hermitian"),
        ],
        ids=["not-hermitian", "trace", "negative", "nan"],
    )
    def test_states(self, bad, message):
        assert check_states(one_bad(self.STATE, self.STATE, (0, 0))).shape == (2, 3, 2, 2)
        for at in ((0, 0), (1, 2)):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                check_states(one_bad(self.STATE, bad, at))
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                DensityMatrix(bad)

    HALVES = np.array([np.eye(2) / 2, np.eye(2) / 2])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[[0.5, 0.1], [0.0, 0.5]], [[0.5, -0.1], [0.0, 0.5]]]), "invalid operator: not Hermitian"),
            (np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]), "invalid POVM: element outside [0, 1]"),
            (np.array([np.eye(2) / 2, np.eye(2) / 4]), "invalid POVM: elements do not sum to identity"),
        ],
        ids=["not-hermitian", "outside", "not-complete"],
    )
    def test_povms(self, bad, message):
        assert check_povms(one_bad(self.HALVES, self.HALVES, (0, 0))).shape == (2, 3, 2, 2, 2)
        for at in ((0, 0), (1, 2)):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                check_povms(one_bad(self.HALVES, bad, at))
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                Povm.batch(one_bad(self.HALVES, bad, at[1], batch=(3,)))
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                Povm(bad)

    def test_kraus(self):
        family = np.array([np.sqrt(0.25) * np.eye(2), np.sqrt(0.75) * np.eye(2)])
        check_kraus(np.moveaxis(one_bad(family, family, (0, 0)), 2, 0))
        for at in ((0, 0), (1, 2)):
            with pytest.raises(ValueError, match="^invalid channel: Kraus completeness fails$"):
                check_kraus(np.moveaxis(one_bad(family, 1.01 * family, at), 2, 0))
        with pytest.raises(ValueError, match="^invalid channel: Kraus completeness fails$"):
            QuantumChannel(tuple(1.01 * family))

    def test_povm_batch_shares_one_check(self, monkeypatch):
        import qstego.linalg as linalg

        calls = []
        check = linalg.check_povms
        monkeypatch.setattr(linalg, "check_povms", lambda els: calls.append(np.shape(els)) or check(els))
        stack = one_bad(self.HALVES, self.HALVES, 0, batch=(5,))
        povms = Povm.batch(stack)
        assert calls == [stack.shape]
        assert len(povms) == 5 and all(isinstance(p, Povm) for p in povms)
        assert all(np.shares_memory(p.elements, stack) for p in povms)
        assert [p.elements.tolist() for p in povms] == [Povm(e).elements.tolist() for e in stack]


def accepts(check, a) -> bool:
    """Whether ``check`` accepts ``a``; any ValueError is a rejection."""
    try:
        check(a)
    except ValueError:
        return False
    return True


def eig_states_ok(a) -> bool:
    """The eigenvalue bound of check_states as an eigvalsh reference."""
    return bool(np.linalg.eigvalsh(a).min() >= -EIG_TOL)


def eig_povms_ok(els) -> bool:
    """The eigenvalue bounds of check_povms as an eigvalsh reference."""
    w = np.linalg.eigvalsh(els)
    return bool(w.min() >= -EIG_TOL and w.max() <= 1.0 + EIG_TOL)


def rotated(rng, w):
    """Q diag(w) Q† for each spectrum w of the (..., d) array ``w``, all on
    one Haar-random unitary Q, made exactly Hermitian."""
    w = np.asarray(w)
    d = w.shape[-1]
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    a = (q * w[..., None, :]) @ q.conj().T
    return (a + a.conj().swapaxes(-1, -2)) / 2


class TestEigenvalueBounds:
    """The eigenvalue bounds sit at 1e-10 past [0, 1], in every form."""

    STATE = np.diag([0.75, 0.25])
    HALVES = np.array([np.eye(2) / 2, np.eye(2) / 2])

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize("low, ok", [(-2e-10, False), (-5e-11, True)], ids=["-2e-10", "-5e-11"])
    def test_state_lowest_eigenvalue(self, low, ok, rotate):
        w = [1.0 - low, low]
        bad = rotated(np.random.default_rng(1), w) if rotate else np.diag(w).astype(complex)
        forms = [(DensityMatrix, bad), (check_states, one_bad(self.STATE, bad, (1, 2)))]
        for check, a in forms:
            if ok:
                check(a)
            else:
                with pytest.raises(ValueError, match="^invalid state: negative eigenvalue$"):
                    check(a)

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize(
        "w, ok",
        [([1.0 + 2e-10, 0.0], False), ([1.0 + 5e-11, 0.0], True), ([-2e-10, 1.0], False), ([-5e-11, 1.0], True)],
        ids=["max-1+2e-10", "max-1+5e-11", "min-2e-10", "min-5e-11"],
    )
    def test_povm_element_bounds(self, w, ok, rotate):
        # the other element is 1 - w with the extreme entry rounded to 0 or 1
        # first, so the sum stays within 1e-9 of I
        spectra = np.array([w, [1.0 - round(w[0]), 1.0 - w[1]]])
        bad = rotated(np.random.default_rng(2), spectra) if rotate else spectra[:, :, None] * np.eye(2, dtype=complex)
        forms = [
            (Povm, bad),
            (check_povms, one_bad(self.HALVES, bad, (1, 2))),
            (Povm.batch, one_bad(self.HALVES, bad, 1, batch=(3,))),
        ]
        for check, a in forms:
            if ok:
                check(a)
            else:
                with pytest.raises(ValueError, match="^" + re.escape("invalid POVM: element outside [0, 1]") + "$"):
                    check(a)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 17, 32, 64])
    def test_matches_eigvalsh_reference(self, d):
        # extreme eigenvalues 0.5, 0.99, 1.01 and 2 times 1e-10 past the bound
        rng = np.random.default_rng(d)
        for c in (0.5, 0.99, 1.01, 2.0):
            past = c * EIG_TOL
            inner = rng.uniform(0.1, 0.9, size=d - 1)
            state = rotated(rng, np.concatenate([[-past], inner * (1.0 + past) / inner.sum()]))
            assert eig_states_ok(state) == (c < 1)
            assert accepts(check_states, state) == eig_states_ok(state)
            for extreme, fill in ((1.0 + past, 0.0), (-past, 1.0)):
                # element 0 has the extreme eigenvalue; element 1 completes
                # the others to I and puts ``fill`` against the extreme one
                els = rotated(rng, [np.r_[extreme, inner], np.r_[fill, 1.0 - inner]])
                assert eig_povms_ok(els) == (c < 1)
                assert accepts(check_povms, els) == eig_povms_ok(els)

    def test_checks_run_no_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an eigensolver ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        DensityMatrix(self.STATE)
        check_states(one_bad(self.STATE, self.STATE, (0, 0)))
        Povm(self.HALVES)
        Povm.batch(one_bad(self.HALVES, self.HALVES, 0, batch=(3,)))
        with pytest.raises(ValueError, match="^invalid state: negative eigenvalue$"):
            DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="^" + re.escape("invalid POVM: element outside [0, 1]") + "$"):
            Povm(np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]))


class TestTensorAndPartialTrace:
    def test_tensor_dimension_limit(self):
        # the cap on composite dimensions, where products are formed: channels
        big = channel_tensor(identity_channel(128), identity_channel(4))
        with pytest.raises(ValueError, match="dimension limit"):
            channel_tensor(big, identity_channel(16))

    def test_partial_trace_maximally_entangled(self):
        phi = maximally_entangled(2).to_density()
        out = partial_trace_matrix(phi.data, [2, 2], keep=[0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_keep_all(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 6)
        out = partial_trace_matrix(rho.data, [2, 3], keep=[0, 1])
        assert np.allclose(out, rho.data)

    def test_partial_trace_product_oracle(self):
        rng = np.random.default_rng(3)
        a, b = random_density(rng, 2), random_density(rng, 3)
        joint = np.kron(a.data, b.data)
        # independent index-summation oracle
        d_a, d_b = 2, 3
        oracle = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                oracle[i, j] = sum(joint[k * d_b + i, k * d_b + j] for k in range(d_a))
        out = partial_trace_matrix(joint, [2, 3], keep=[1])
        assert np.allclose(out, oracle, atol=1e-12)
        assert np.allclose(out, b.data, atol=1e-10)

    def test_partial_trace_shape_error(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="shape error"):
            partial_trace_matrix(rho.data, [2, 3], keep=[0])


def support_projector(rho) -> np.ndarray:
    """Projector onto the eigenspaces with eigenvalue above the zero cutoff:
    the independent reference for the support of power_function's powers."""
    w, v = np.linalg.eigh(rho.data)
    keep = w >= ZERO_CUT
    return v[:, keep] @ v[:, keep].conj().T


class TestSpectralOps:
    def test_trace_norm_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        assert trace_norm(rho.data - rho.data) == pytest.approx(0.0, abs=1e-12)

    def test_trace_norm_orthogonal_pure(self):
        z = basis_state(0, 2).to_density().data - basis_state(1, 2).to_density().data
        assert trace_norm(z) == pytest.approx(2.0, abs=1e-12)

    def test_trace_norm_pure_vs_mixed(self):
        z = basis_state(0, 2).to_density().data - np.eye(2) / 2
        assert trace_norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_orthogonal(self):
        a = basis_state(0, 2).to_density()
        b = basis_state(1, 2).to_density()
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_vs_maximally_mixed(self):
        a = basis_state(0, 2).to_density()
        b = DensityMatrix(np.eye(2) / 2)
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-10)

    def test_fidelity_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b = random_density(rng, 3), random_density(rng, 3)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            for _ in range(100):
                a, b = random_density(rng, dim), random_density(rng, dim)
                t = trace_norm(a.data - b.data)
                f = fidelity(a, b)
                assert t >= 2 * (1 - np.sqrt(f)) - 1e-8
                assert t <= 2 * np.sqrt(1 - min(f, 1.0)) + 1e-8

    def test_distinct_eigenvalue_count(self):
        for d in (2, 3, 5):
            assert distinct_eigenvalue_counts(np.eye(d) / d, [1e-8]) == [1]
        assert distinct_eigenvalue_counts(np.diag([0.5, 0.3, 0.2]), [1e-8]) == [3]
        spread = np.diag([0.5, 0.5 - 1e-12, 1e-12])
        assert distinct_eigenvalue_counts(spread, [1e-8]) == [2]
        # one spectrum, counted at each tolerance in turn
        assert distinct_eigenvalue_counts(spread, [1e-13, 1e-8, 1.0]) == [3, 2, 1]
        with pytest.raises(ValueError, match="bad parameter"):
            distinct_eigenvalue_counts(spread, [1e-8, 0.0])

    def test_matrix_power_trivial(self):
        half = np.eye(2) / 2
        assert np.allclose(power_function(half)(np.array([2.0]))[0], np.eye(2) / 4)
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        assert np.allclose(power_function(rho)(np.array([1.0]))[0], rho.data, atol=1e-12)

    def test_matrix_power_pseudo_inverse(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        out = power_function(rho)(np.array([-1.0, 0.0]))
        assert np.allclose(out, [np.diag([2.0, 2.0, 0.0]), np.eye(3)], atol=1e-12)

    def test_matrix_power_support_projector(self):
        rng = np.random.default_rng(9)
        v = random_pure(rng, 3)
        w = random_pure(rng, 3)
        a = 0.6 * np.outer(v.data, v.data.conj()) + 0.4 * np.outer(w.data, w.data.conj())
        rho = DensityMatrix((a + a.conj().T) / 2 / np.trace(a).real)
        up, down = power_function(rho)(np.array([0.7, -0.7]))
        assert np.allclose(up @ down, support_projector(rho), atol=1e-8)


class TestPurifyAndSchmidt:
    def test_purify_maximally_mixed(self):
        vec = purify(DensityMatrix(np.eye(2) / 2))
        rho = partial_trace_matrix(vec.to_density().data, [2, 2], keep=[1])
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-9)

    def test_purify_pure_state(self):
        rng = np.random.default_rng(10)
        v = random_pure(rng, 3)
        vec = purify(v.to_density())
        # rank-1 input: purification is |r> (x) |v> for some unit |r>
        mat = vec.data.reshape(3, 3)
        u, s, vh = np.linalg.svd(mat)
        assert s[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(vh[0], v.data)) == pytest.approx(1.0, abs=1e-9)

    def test_purify_round_trip(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        vec = purify(rho)
        back = partial_trace_matrix(vec.to_density().data, [3, 3], keep=[1])
        assert np.max(np.abs(back - rho.data)) < 1e-9

    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 2), (4, 1), (5, 3), (8, 4), (8, 8)])
    def test_purify_matches_kron_sum_bitwise(self, dim, rank):
        # reference: the purification as a sum of kron(e_i, sqrt(lam_i) v_i)
        # terms, one fresh d^2 vector per eigenvalue
        rng = np.random.default_rng(100 + dim + rank)
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        a = g @ g.conj().T
        p = rng.random(dim)
        p[rng.permutation(dim)[: dim - rank]] = 0.0
        for rho in (DensityMatrix(a / np.trace(a)), DensityMatrix(np.diag(p / p.sum()).astype(complex))):
            w, v = np.linalg.eigh(rho.data)
            order = np.argsort(w)[::-1]
            w, v = np.maximum(w[order], 0.0), v[:, order]
            ref = np.zeros(dim * dim, dtype=complex)
            for i in range(dim):
                if w[i] > 0.0:
                    ref += np.sqrt(w[i]) * np.kron(np.eye(dim)[:, i], v[:, i])
            ref /= np.linalg.norm(ref)
            assert np.array_equal(purify(rho).data.view(np.uint64), ref.view(np.uint64))

    def test_schmidt_maximally_entangled(self):
        probs, _, _ = schmidt_decompose(maximally_entangled(2), 2, 2)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_schmidt_product_vector(self):
        rng = np.random.default_rng(12)
        a, b = random_pure(rng, 2), random_pure(rng, 3)
        v = PureState(np.kron(a.data, b.data))
        probs, _, _ = schmidt_decompose(v, 2, 3)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_reconstruction(self):
        rng = np.random.default_rng(13)
        v = random_pure(rng, 6)
        probs, va, vb = schmidt_decompose(v, 2, 3)
        rebuilt = sum(
            np.sqrt(probs[k]) * np.kron(va[:, k], vb[:, k]) for k in range(len(probs))
        )
        assert np.linalg.norm(rebuilt - v.data) < 1e-9
