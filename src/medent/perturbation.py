"""Degenerate Rayleigh-Schrodinger perturbation theory to second order.

The generic routine works on any finite-dimensional Hermitian pair (h0, v);
the transverse-field ground state of the sigma3-sigma3 chain is a thin
wrapper over it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import EigenDecomposition, HermitianOperator, NumericalError, _readonly, eigh
from .tripartite import (
    IsingParams,
    analytic_ising_spectrum,
    build_ising,
    ising_middle_field,
)

RESONANCE_RTOL = 1e-8
DELTA_SOFT_LIMIT = 0.2


@dataclass(frozen=True)
class DegeneratePT2:
    """Second-order effective spectrum inside one degenerate level.

    ``energies`` are ascending eigenvalues of the effective Hamiltonian
    E0 + P V P + P V (E0 - H0)^-1 V P restricted to the degenerate block;
    ``zeroth_order`` columns are the matching zeroth-order states and
    ``first_order`` the standard first-order wavefunction corrections.
    """

    energies: np.ndarray
    zeroth_order: np.ndarray
    first_order: np.ndarray
    unperturbed_energy: float
    subspace: tuple[int, ...]


def degenerate_pt2(h0: HermitianOperator, v: HermitianOperator, subspace) -> DegeneratePT2:
    """Second-order spectrum of h0 + v inside the degenerate level ``subspace``
    of h0; h0 and the effective Hamiltonian are both solved by ``eigh``, with
    its contract checks and phase convention."""
    if h0.dim != v.dim:
        raise NumericalError(f"h0 and v dims differ: {h0.dim} vs {v.dim}")
    return _pt2_on(eigh(h0), v, subspace)


def _pt2_on(dec: EigenDecomposition, v: HermitianOperator, subspace) -> DegeneratePT2:
    """``degenerate_pt2`` given ``dec = eigh(h0)`` and a v of h0's dimension,
    for a caller that has already solved h0."""
    wanted = tuple(sorted(int(i) for i in subspace))
    if wanted not in dec.degeneracy_groups:
        raise ValueError(
            f"subspace {wanted} is not a degenerate group of the unperturbed "
            f"spectrum (groups: {dec.degeneracy_groups})"
        )
    d_idx = list(wanted)
    k_idx = [i for i in range(dec.dim) if i not in wanted]
    w = dec.eigenvalues
    e0 = float(np.mean(w[d_idx]))

    u = dec.eigenvectors
    vm = u.conj().T @ v.matrix @ u
    heff = e0 * np.eye(len(d_idx)) + vm[np.ix_(d_idx, d_idx)]
    first = np.zeros((dec.dim, len(d_idx)), dtype=np.complex128)

    if k_idx:
        denom = e0 - w[k_idx]
        scale = max(1.0, float(w[-1] - w[0]))
        if np.abs(denom).min() < RESONANCE_RTOL * scale:
            raise NumericalError(
                "vanishing energy denominator outside the degenerate subspace "
                f"(min |E0 - Ek| = {np.abs(denom).min():.3e}): accidental resonance"
            )
        vdk = vm[np.ix_(d_idx, k_idx)]
        heff = heff + (vdk / denom[np.newaxis, :]) @ vdk.conj().T

    eff = eigh(HermitianOperator(heff))
    c = eff.eigenvectors
    zeroth = u[:, d_idx] @ c
    if k_idx:
        amp = (vm[np.ix_(k_idx, d_idx)] @ c) / denom[:, np.newaxis]
        first = u[:, k_idx] @ amp

    return DegeneratePT2(
        energies=eff.eigenvalues,
        zeroth_order=_readonly(zeroth),
        first_order=_readonly(first),
        unperturbed_energy=e0,
        subspace=wanted,
    )


@dataclass(frozen=True)
class PerturbativeGroundState:
    """First-order ground state of the weakly-perturbed chain.

    ``amplitudes`` are coefficients over the eight analytic product states
    (fixed phase convention, see tripartite.analytic_ising_spectrum); dividing
    by ``normalization`` yields a unit vector.  ``constants`` are the four
    first-order coefficients on the opposite-outer-bit product states, per
    unit of the perturbation strength.  ``energy`` carries the second-order
    effective ground energy.
    """

    amplitudes: np.ndarray
    constants: np.ndarray
    normalization: float
    order: int
    energy: float
    basis: np.ndarray
    degenerate: bool = False

    def state_vector(self) -> np.ndarray:
        return (self.basis @ self.amplitudes) / self.normalization


def ising_pt_ground_state(lam: float, delta: float) -> PerturbativeGroundState:
    """Perturbative ground state for small outer-site fields.

    Valid for 0 <= delta << 1; a warning is emitted above 0.2.  At delta = 0
    the ground level is exactly degenerate and the symmetric combination is
    returned with ``degenerate=True``.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta > DELTA_SOFT_LIMIT:
        warnings.warn(
            f"delta = {delta} is outside the perturbative regime (> {DELTA_SOFT_LIMIT})",
            stacklevel=2,
        )

    spectrum = analytic_ising_spectrum(ising_middle_field(IsingParams(lam=lam)))
    basis = spectrum.eigenvectors
    g1 = basis[:, 1]
    g2 = basis[:, 7]

    if delta == 0.0:
        amps = np.zeros(8, dtype=np.complex128)
        amps[1] = 1.0
        amps[7] = 1.0
        return PerturbativeGroundState(
            amplitudes=_readonly(amps),
            constants=_readonly(np.zeros(4, dtype=np.complex128)),
            normalization=float(np.sqrt(2.0)),
            order=1,
            energy=float(spectrum.eigenvalues[1]),
            basis=basis,
            degenerate=True,
        )

    h0 = build_ising(IsingParams(delta=0.0, lam=lam))
    v = HermitianOperator(
        build_ising(IsingParams(delta=delta, lam=lam)).matrix - h0.matrix
    )
    dec0 = eigh(h0)
    pt = _pt2_on(dec0, v, dec0.ground_group)

    psi = pt.zeroth_order[:, 0] + pt.first_order[:, 0]
    # phase convention: positive overlap with g1 + g2 (falling back to g1 - g2
    # when the ground combination is the antisymmetric one)
    for reference in (g1 + g2, g1 - g2):
        overlap = np.vdot(reference, psi)
        if abs(overlap) > 1e-8:
            psi = psi * (overlap.conjugate() / abs(overlap))
            break

    raw = basis.conj().T @ psi
    # presentation convention: unit coefficient on the first ground product state
    if abs(raw[1]) < 1e-12:
        raise NumericalError("ground combination has no weight on the first product state")
    raw = raw / raw[1]
    k_norm = float(np.linalg.norm(raw))
    constants = np.array([raw[4], raw[5], raw[2], raw[3]]) / delta

    return PerturbativeGroundState(
        amplitudes=_readonly(raw),
        constants=_readonly(constants),
        normalization=k_norm,
        order=1,
        energy=float(pt.energies[0]),
        basis=basis,
        degenerate=False,
    )
