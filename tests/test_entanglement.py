import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from medent.entanglement import (
    concurrence,
    concurrence_stack,
    ground_level_concurrence,
    ground_level_density,
    ground_level_density_stack,
    ground_state_ac_concurrence,
    ground_state_pair_concurrence,
)
from medent import entanglement, linalg
from medent.dicke import DickeConfig, build_dicke, dicke_mediator_form
from medent.linalg import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    _sector_ground_level,
    eigh,
    eigh_stack,
    reduced_density,
)
from medent.tripartite import IsingParams, build_ising

SY = np.array([[0, -1j], [1j, 0]])
YY = np.kron(SY, SY)


def dm(matrix):
    return DensityMatrix(np.asarray(matrix, dtype=complex))


def pure_dm(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return dm(np.outer(v, v.conj()))


def wootters_reference(rho):
    """Independent oracle: eigenvalues of the non-Hermitian product."""
    m = np.asarray(rho, dtype=complex)
    lam = np.linalg.eigvals(m @ YY @ m.conj() @ YY)
    lam = np.sqrt(np.clip(np.sort(lam.real)[::-1], 0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def random_pure_state(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_unitary_2(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bell_is_maximally_entangled():
    bell = [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
    assert concurrence(pure_dm(bell)).value == pytest.approx(1.0, abs=1e-12)


def test_product_state_is_zero():
    assert concurrence(pure_dm([1, 0, 0, 0])).value == pytest.approx(0.0, abs=1e-12)


def test_partially_entangled_pure_state():
    # pure-state oracle: C = 2|ad - bc| = 2 sqrt(0.9 * 0.1) = 0.6
    v = [np.sqrt(0.9), 0, 0, np.sqrt(0.1)]
    assert concurrence(pure_dm(v)).value == pytest.approx(0.6, abs=1e-12)


def test_tilde_lambdas_sorted_and_value_formula():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    res = concurrence(dm(rho / np.trace(rho)))
    lam = res.tilde_lambdas
    assert np.all(np.diff(lam) <= 1e-12)
    assert res.value == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), abs=1e-12)
    assert 0.0 <= res.value <= 1.0


def test_dimension_guard():
    with pytest.raises(DimensionError):
        concurrence(dm(np.eye(2) / 2))


def test_pure_state_oracle_many():
    rng = np.random.default_rng(42)
    for _ in range(200):
        v = random_pure_state(rng)
        a, b, c, d = v
        expected = 2 * abs(a * d - b * c)
        got = concurrence(pure_dm(v)).value
        assert abs(got - expected) <= 1e-10


def test_matches_nonhermitian_reference_on_mixed_states():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho)
        assert concurrence(dm(rho)).value == pytest.approx(
            wootters_reference(rho), abs=1e-9
        )


def test_local_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho)
        u = np.kron(random_unitary_2(rng), random_unitary_2(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence(dm(rotated)).value == pytest.approx(
            concurrence(dm(rho)).value, abs=1e-9
        )


def test_separable_product_is_zero():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ra = a @ a.conj().T
        rb = b @ b.conj().T
        rho = np.kron(ra / np.trace(ra), rb / np.trace(rb))
        assert concurrence(dm(rho)).value <= 1e-10


# ---------------------------------------------------------------- ground state queries

def test_degenerate_ground_reports_zero_with_flag():
    h = build_ising(IsingParams(delta=0.0, lam=1.0))
    res = ground_state_ac_concurrence(h, (2, 2, 2))
    assert res.degenerate_ground is True
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_small_delta_ground_concurrence_closed_form():
    # exact dense-diagonalization value; the delta -> 0 closed form is
    # lam / sqrt(lam^2 + 16) = 1/sqrt(17)
    h = build_ising(IsingParams(delta=0.01, lam=1.0))
    res = ground_state_ac_concurrence(h, (2, 2, 2))
    assert res.degenerate_ground is False
    assert res.value == pytest.approx(1 / np.sqrt(17), abs=2e-4)
    # independent oracle route on the same reduced state
    dec_vec = np.linalg.eigh(h.matrix)[1][:, 0]
    rho = reduced_density(dec_vec, (2, 2, 2), (0, 2))
    assert res.value == pytest.approx(wootters_reference(rho.matrix), abs=1e-9)


def test_large_delta_ground_concurrence_small():
    h = build_ising(IsingParams(delta=10.0, lam=1.0))
    assert ground_state_ac_concurrence(h, (2, 2, 2)).value < 0.05


def test_monotone_landscape_slice():
    values = [
        ground_state_ac_concurrence(
            build_ising(IsingParams(delta=d, lam=1.0)), (2, 2, 2)
        ).value
        for d in (0.01, 0.1, 1.0, 5.0)
    ]
    assert values[0] > values[1] > values[2] > values[3]


def test_closed_form_limit_scales_with_lambda():
    # delta small enough to sit near the limit, large enough that the
    # second-order splitting stays clear of the degeneracy tolerance
    for lam in (0.5, 1.0, 2.0, 3.0):
        h = build_ising(IsingParams(delta=1e-3, lam=lam))
        got = ground_state_ac_concurrence(h, (2, 2, 2)).value
        assert got == pytest.approx(lam / np.sqrt(lam**2 + 16), abs=1e-3)


def chain_concurrence(delta, lam):
    """C of the chain's non-degenerate ground state at J = 1."""
    res = ground_state_ac_concurrence(build_ising(IsingParams(delta=delta, lam=lam)), (2, 2, 2))
    assert not res.degenerate_ground
    return res.value


@pytest.mark.parametrize("delta", [1e-2, 3e-3, 1e-3, 1e-4])
def test_the_control_frontier_closes_on_full_entanglement(delta):
    # at lam = sqrt(8 / delta), 1 - C = 2 delta - 3 delta^2 + c3 delta^3 (J = 1):
    # 1 - C reads 0.01970 at delta = 1e-2, and the excess over 2 delta - 3 delta^2
    # reads 4.191, 4.232, 4.244 and 4.43 delta^3 down the four deltas, so c3 is
    # about 4.25.  The 1e-11 is the solver noise: relative changes of lam of up
    # to 1e-11 move the excess by up to 3e-12 at delta = 1e-4 and 3e-13 at 1e-3
    lam = np.sqrt(8 / delta)
    c = chain_concurrence(delta, lam)
    excess = (1 - c) - (2 * delta - 3 * delta**2)
    assert abs(excess - 4.25 * delta**3) <= 0.1 * delta**3 + 1e-11
    # and the optimum is near: 5% off that lam either way entangles less
    assert chain_concurrence(delta, 0.95 * lam) < c and chain_concurrence(delta, 1.05 * lam) < c


def test_pair_concurrence_respects_pair_argument():
    h = build_ising(IsingParams(delta=0.01, lam=1.0))
    outer = ground_state_pair_concurrence(h, (2, 2, 2), (0, 2))
    nearest = ground_state_pair_concurrence(h, (2, 2, 2), (0, 1))
    assert outer.value > 0.2
    # outer-to-middle entanglement of the near-degenerate ground state is tiny
    assert nearest.value < 0.05


def test_pair_concurrence_dimension_guards():
    h = build_ising(IsingParams(delta=0.1, lam=1.0))
    with pytest.raises(DimensionError):
        ground_state_pair_concurrence(h, (2, 4), (0, 1))
    with pytest.raises(DimensionError):
        ground_state_ac_concurrence(h, (2, 2, 2, 2))


@pytest.mark.parametrize("pair", [(0, 0), (2, 2), (0, 5), (-1, 2), (3, 0)])
def test_a_repeated_or_out_of_range_pair_is_a_dimension_error(pair):
    dec = eigh(build_ising(IsingParams(delta=0.1, lam=1.0)))
    message = rf"^pair={re.escape(str(pair))} does not name two distinct subsystems of dims=\(2, 2, 2\)$"
    with pytest.raises(DimensionError, match=message):
        ground_level_concurrence(dec.eigenvectors, 1, (2, 2, 2), pair)


# ---------------------------------------------------------------- properties (hypothesis)

UNIT_FLOATS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)
# sqrt amplifies eigenvalue noise near zero to ~1e-8 (see concurrence_stack)
PROPERTY_ATOL = 1e-6


def complex_entries(n):
    return arrays(np.float64, (2, n), elements=UNIT_FLOATS).map(lambda a: a[0] + 1j * a[1])


def unitary_from(entries):
    q, r = np.linalg.qr(entries.reshape(2, 2) + 2 * np.eye(2))
    return q


def stacked_and_scalar(rhos):
    """Concurrences of the stack in one call, checked bit for bit against one call each."""
    values, _ = concurrence_stack(np.array([rho.matrix for rho in rhos]))
    assert [float(v) for v in values] == [concurrence(rho).value for rho in rhos]
    return values


@PROPERTY_SETTINGS
@given(complex_entries(16), complex_entries(4), complex_entries(4))
def test_concurrence_invariant_under_local_unitaries(g, ua, uc):
    g = g.reshape(4, 4) + 0.1 * np.eye(4)
    rho = g @ g.conj().T
    rho = dm(rho / np.trace(rho).real)
    u = np.kron(unitary_from(ua), unitary_from(uc))
    rotated = dm(u @ rho.matrix @ u.conj().T)
    c, c_rotated = stacked_and_scalar([rho, rotated])
    assert c_rotated == pytest.approx(c, abs=PROPERTY_ATOL)
    assert 0.0 <= c <= 1.0


@PROPERTY_SETTINGS
@given(complex_entries(4).filter(lambda v: np.linalg.norm(v) > 1e-3))
def test_pure_state_concurrence_is_spin_flip_overlap(v):
    psi = v / np.linalg.norm(v)
    rho = pure_dm(psi)
    (c,) = stacked_and_scalar([rho])
    assert c == pytest.approx(abs(np.vdot(psi, YY @ psi.conj())), abs=PROPERTY_ATOL)


def test_concurrence_stack_raises_when_lapack_fails(monkeypatch):
    rng = np.random.default_rng(8)
    rhos = [pure_dm(random_pure_state(rng)) for _ in range(4)]
    stack = np.array([rho.matrix for rho in rhos])
    expected = [concurrence(rho).value for rho in rhos]

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"^Eigenvalues did not converge$"):
        concurrence_stack(stack)
    with pytest.raises(np.linalg.LinAlgError, match=r"^Eigenvalues did not converge$"):
        concurrence(rhos[2])
    monkeypatch.undo()
    assert concurrence_stack(stack)[0].tolist() == expected


def test_ground_level_density_stack_matches_member_by_member_mixture():
    # eigenbases with ground groups of different sizes in one stack, on a qubit x qutrit x qubit
    assert_member_by_member_mixture([1, 3, 2, 1, 4])


@pytest.mark.parametrize("sizes", [[2, 3], [1, 1], [3], [1]])
def test_ground_level_density_stack_of_one_kind_of_ground_level(sizes):
    # all degenerate, none, and stacks of one
    assert_member_by_member_mixture(sizes)


def assert_member_by_member_mixture(sizes):
    rng = np.random.default_rng(12)
    dims, keep, sizes = (2, 3, 2), (0, 2), np.array(sizes)
    a = rng.standard_normal((len(sizes), 12, 12)) + 1j * rng.standard_normal((len(sizes), 12, 12))
    bases = np.linalg.qr(a)[0]
    rho = ground_level_density_stack(bases, sizes, dims, keep)
    for basis, size, got in zip(bases, sizes, rho):
        members = [reduced_density(basis[:, k], dims, keep).matrix for k in range(size)]
        expected = members[0] if size == 1 else DensityMatrix(sum(members) / size).matrix
        assert got.tobytes() == expected.tobytes()


def test_ground_level_density_stack_checks_only_ground_group_members():
    # the columns past a group's size are never checked
    rng = np.random.default_rng(13)
    dims, keep, sizes = (2, 3, 2), (0, 2), np.array([1, 2])
    a = rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))
    bases = np.linalg.qr(a)[0]
    expected = ground_level_density_stack(bases, sizes, dims, keep)
    bases[0, :, 1] *= 2  # outside basis 0's ground group; its reduction has trace 4
    assert ground_level_density_stack(bases, sizes, dims, keep).tobytes() == expected.tobytes()
    bases[1, :, 1] *= 2  # inside basis 1's ground group
    with pytest.raises(ValueError, match=r"^trace = \S+, expected 1 within 1e-10$"):
        ground_level_density_stack(bases, sizes, dims, keep)


def record_reductions(monkeypatch) -> list:
    """Record, per ground-level einsum, the number of states it reduces and,
    per density check, the number of matrices and whether it checks positivity."""
    calls = []
    trace_out, density_stack = entanglement._trace_out, entanglement._density_stack

    def tracing(dims, keep, separator, *tensors):
        calls.append(("einsum", tensors[0].size // np.prod(dims)))
        return trace_out(dims, keep, separator, *tensors)

    def checking(m, psd=True):
        calls.append(("density", len(m), psd))
        return density_stack(m, psd)

    monkeypatch.setattr(entanglement, "_trace_out", tracing)
    monkeypatch.setattr(entanglement, "_density_stack", checking)
    return calls


@pytest.mark.parametrize(
    "delta, expected",
    [
        # one state reduced and checked but for positivity
        (0.3, [("einsum", 1), ("density", 1, False)]),
        # a ground pair: both members reduced and checked, then their mixture
        (0.0, [("einsum", 2), ("density", 2, True), ("density", 1, False)]),
    ],
)
def test_a_stack_of_one_basis_makes_one_reduction(delta, expected, monkeypatch):
    dec = eigh(build_ising(IsingParams(delta=delta, lam=1.3)))
    calls = record_reductions(monkeypatch)
    ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), (2, 2, 2), (0, 2))
    assert calls == expected


@pytest.mark.parametrize(
    "h, dims, pair",
    [
        (build_ising(IsingParams(delta=0.05, lam=1.0)), (2, 2, 2), (0, 2)),
        (build_ising(IsingParams(delta=0.0, lam=0.0)), (2, 2, 2), (0, 2)),  # degenerate
        (build_dicke(DickeConfig("h2", 0.6, n_max=12)), (2, 2, 13), (0, 1)),
        (build_dicke(DickeConfig("h1", 1 / np.sqrt(2), n_max=12)), (2, 2, 13), (0, 1)),  # degenerate
    ],
)
def test_ground_concurrence_is_checked_once_and_unchanged(h, dims, pair):
    # the stack kernels give the bits of concurrence(ground_level_density(...)),
    # which checks the reduction a second time as a DensityMatrix
    dec = eigh(h)
    got = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), dims, pair)
    expected = concurrence(ground_level_density(dec, dims, pair))
    assert got.value.hex() == expected.value.hex()
    assert got.tilde_lambdas.tobytes() == expected.tilde_lambdas.tobytes()
    assert got.degenerate_ground == (len(dec.ground_group) > 1)


# ------------------------------------------------- the ground level on the declared blocks of H


def full_path(h, dims, pair):
    """Ground energy and ground-level concurrence from one full ``eigh`` of h."""
    dec = eigh(h)
    conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), dims, pair)
    return dec.ground_energy, conc


def assert_block_path_matches_full(h, dims, pair):
    energy, expected = full_path(h, dims, pair)
    energies, _ = _sector_ground_level(h.matrix, h.sectors)
    got = ground_state_pair_concurrence(h, dims, pair)
    assert abs(energies[0] - energy) <= 1e-12 * max(1.0, abs(energy))
    assert got.degenerate_ground == expected.degenerate_ground
    # below 1e-6 the square root of the solvers' noise differs by up to ~1e-8
    assert abs(got.value - expected.value) <= (1e-12 if expected.value >= 1e-6 else 1e-6)


def random_hermitian(rng, size, complex_):
    a = rng.standard_normal((size, size))
    if complex_:
        a = a + 1j * rng.standard_normal((size, size))
    return (a + a.conj().T) / 2


@st.composite
def permuted_block_hermitians(draw):
    """A random Hermitian matrix on (2, m, 2), block diagonal in a randomly
    permuted basis, with its block sizes; 1 x 1 blocks included, and the
    ground level optionally planted twofold across two blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 5))
    d = 4 * m
    cuts = np.sort(rng.choice(np.arange(1, d), size=draw(st.integers(0, d - 1)), replace=False))
    sizes = np.diff([0, *cuts, d])
    blocks = [random_hermitian(rng, s, draw(st.booleans())) for s in sizes]
    if len(blocks) > 1 and draw(st.booleans()):
        floor = min(np.linalg.eigvalsh(b)[0] for b in blocks) - 1.0
        for i in rng.choice(len(blocks), size=2, replace=False):
            w, q = np.linalg.eigh(blocks[i])
            w[0] = floor
            blocks[i] = (q * w) @ q.conj().T
    h = np.zeros((d, d), dtype=np.complex128)
    for start, block in zip(np.cumsum([0, *sizes[:-1]]), blocks):
        h[start : start + len(block), start : start + len(block)] = block
    p = rng.permutation(d)
    return HermitianOperator(h[np.ix_(p, p)]), (2, m, 2), sorted(sizes.tolist())


def stacked_path(h, dims, pair):
    """``eigh_stack`` of h's matrix, real where its imaginary part is zero, as a
    stack of one, then ``ground_level_concurrence`` of its vectors as complex."""
    m = h.matrix if h.matrix.imag.any() else h.matrix.real
    dec = eigh_stack(m[np.newaxis])
    vectors = dec.eigenvectors[0].astype(np.complex128)
    return ground_level_concurrence(vectors, dec.ground_sizes[0], dims, pair)


def assert_same_bits(got, expected):
    assert got.value.hex() == expected.value.hex()
    assert got.tilde_lambdas.tobytes() == expected.tilde_lambdas.tobytes()
    assert got.degenerate_ground == expected.degenerate_ground


@PROPERTY_SETTINGS
@given(permuted_block_hermitians())
def test_block_path_matches_the_full_solve_on_permuted_block_matrices(case):
    # an operator its builder declares no sectors of is solved whole, in real
    # arithmetic when it is real: the bits of eigh_stack and the ground level
    h, dims, _ = case
    assert h.sectors == ()
    assert_same_bits(ground_state_pair_concurrence(h, dims, (0, 2)), stacked_path(h, dims, (0, 2)))


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["h1", "h2", "h3"]),
    # both h1 crossings (1/sqrt(2) and 1/(sqrt(6) - sqrt(2)) at resonance) and beyond
    st.floats(0.0, 1.2),
    st.floats(0.0, 1.5),
    st.integers(1, 40),
)
@example("h1", 1 / np.sqrt(2), 1.0, 40)
@example("h1", 1 / (np.sqrt(6) - np.sqrt(2)), 1.0, 40)
def test_block_path_matches_the_full_solve_on_the_dicke_mediator_forms(variant, kappa, lam_tilde, n_max):
    h, dims = dicke_mediator_form(DickeConfig(variant, kappa, lam_tilde=lam_tilde, n_max=n_max))
    assert_block_path_matches_full(h, dims, (0, 2))


@PROPERTY_SETTINGS
@given(
    # the chain declares no sectors: it is solved whole, also where delta = 0
    # or lambda = 0 splits its pattern into blocks of 2 or 4
    st.sampled_from(["delta", "lambda", None]),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(0.5, 2.0),
)
def test_block_path_matches_the_full_solve_on_the_chain(zero, delta, lam, j):
    delta = 0.0 if zero == "delta" else delta
    lam = 0.0 if zero == "lambda" else lam
    h = build_ising(IsingParams(j_coupling=j, delta=delta, lam=lam))
    assert_block_path_matches_full(h, (2, 2, 2), (0, 2))


# ------------------------------------------------- an operator without sectors, solved whole


def merged_reference(m):
    """The ground level of a matrix solved whole as the merge gives it: the
    matrix gathered as a stack of one, solved, then passed through
    ``_merged_ground_level``."""
    index = np.arange(len(m))[np.newaxis]
    w, v = linalg._eigh_hermitian(m[index[:, :, np.newaxis], index[:, np.newaxis, :]])
    return linalg._merged_ground_level(len(m), [(index, w, v)])[:2]


def assert_one_component_keeps_the_merged_bits(m):
    energies, members = _sector_ground_level(m, ())
    expected_energies, expected_members = merged_reference(m)
    assert energies.tobytes() == expected_energies.tobytes()
    assert members.dtype == expected_members.dtype == np.complex128
    assert members.shape == expected_members.shape
    assert members.tobytes() == expected_members.tobytes()
    return len(energies)


@PROPERTY_SETTINGS
@given(st.floats(1e-3, 3.0), st.floats(1e-3, 3.0), st.floats(-2.0, 2.0).filter(lambda j: abs(j) >= 1e-3))
def test_a_chain_point_of_one_component_keeps_the_merged_bits(delta, lam, j):
    # the real strided view is what ground_state_pair_concurrence hands in
    h = build_ising(IsingParams(j_coupling=j, delta=delta, lam=lam))
    assert_one_component_keeps_the_merged_bits(h.matrix.real)
    assert_one_component_keeps_the_merged_bits(h.matrix)


@st.composite
def dense_hermitians(draw):
    """A dense exactly Hermitian matrix of size 1 to 12, real or complex, and
    whether its ground level was planted twofold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 12))
    complex_ = draw(st.booleans())
    h = random_hermitian(rng, size, complex_)
    planted = size > 1 and draw(st.booleans())
    if planted:
        w, q = np.linalg.eigh(h)
        w[1] = w[0]
        h = (q * w) @ q.conj().T
    # the Hermitian part, as the callers hand it in
    return linalg._hermitian_stack(h[np.newaxis])[0], planted


@PROPERTY_SETTINGS
@given(dense_hermitians())
def test_a_dense_matrix_of_one_component_keeps_the_merged_bits(case):
    h, planted = case
    size = assert_one_component_keeps_the_merged_bits(h)
    if planted:
        assert size == 2


def declared_sectors(blocks):
    """The index groups of ``blocks`` laid out as ``HermitianOperator.sectors``."""
    rows = sorted((sorted(int(i) for i in b) for b in blocks), key=lambda r: r[0])
    return tuple(np.array([r for r in rows if len(r) == s]) for s in sorted({len(r) for r in rows}))


def orthogonal(rng, size):
    return np.linalg.qr(rng.standard_normal((size, size)))[0]


def test_the_degeneracy_tolerance_is_taken_from_the_merged_spectrum():
    # no block spans more than 3, the merged spectrum spans 1001: 0 and 5e-7
    # are one level (tolerance 1.001e-6), as on the full path
    rng = np.random.default_rng(3)
    spectra = [[0.0], [5e-7, 1.0], [1000.0, 1000.5, 1001.0], [2.0, 3.0]]
    h = np.zeros((8, 8))
    start = 0
    for w in spectra:
        q = orthogonal(rng, len(w))
        h[start : start + len(w), start : start + len(w)] = (q * w) @ q.T
        start += len(w)
    p = rng.permutation(8)
    h = HermitianOperator(h[np.ix_(p, p)])
    # the blocks' indices after the permutation
    where = np.argsort(p)
    sectors = declared_sectors([where[[0]], where[[1, 2]], where[[3, 4, 5]], where[[6, 7]]])
    energies, _ = _sector_ground_level(h.matrix.real, sectors)
    assert energies == pytest.approx([0.0, 5e-7], abs=1e-13)
    assert ground_state_ac_concurrence(h, (2, 2, 2)).degenerate_ground
    assert full_path(h, (2, 2, 2), (0, 2))[1].degenerate_ground


def test_ground_members_are_embedded_in_ascending_energy_order():
    # the ground level's upper member is the 1 x 1 block at index 0, its lower
    # member the lower state of the 2 x 2 block at indices 1 and 2
    h = HermitianOperator(
        np.array([[3e-10, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 9.0]])
    )
    energies, vectors = _sector_ground_level(h.matrix, declared_sectors([[0], [1, 2], [3]]))
    dec = eigh(h)
    assert energies == pytest.approx(dec.eigenvalues[:2], abs=1e-15)
    assert energies[0] < energies[1]
    overlaps = np.abs(vectors.conj().T @ dec.eigenvectors[:, :2])
    assert np.abs(overlaps - np.eye(2)).max() <= 1e-12


def test_a_dicke_mediator_form_is_solved_on_its_declared_real_blocks(monkeypatch):
    h, dims = dicke_mediator_form(DickeConfig("h2", 0.6, n_max=40))
    solved = []
    lapack_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append((a.shape, a.dtype)) or lapack_eigh(a))
    first = ground_state_ac_concurrence(h, dims)
    # the two parity blocks as one real stack; the rest are 4 x 4 density matrices
    assert ((2, 82, 82), np.float64) in solved
    assert max(shape[-1] for shape, _ in solved) == 82
    again = ground_state_ac_concurrence(h, dims)
    assert_same_bits(again, first)
    # h1 conserves the excitation number: 43 blocks of at most 4 states
    h1, _ = dicke_mediator_form(DickeConfig("h1", 0.6, n_max=40))
    assert {g.shape[1]: len(g) for g in h1.sectors} == {1: 2, 3: 2, 4: 39}
