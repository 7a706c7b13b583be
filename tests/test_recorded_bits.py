"""The shared ground-level kernels keep every bit they returned when these
digests were recorded: the chain's and the cavity's ground-level
concurrences point by point, one stacked chunk of the chain sweep, and the
complex solves of exactly real matrices: the cavity's start-cutoff solve,
the chain chunk's ``eigh_stack`` and the Dicke ``spectrum`` command."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from medent.dicke import VARIANTS, DickeConfig, build_dicke, mediator_concurrence
from medent.entanglement import (
    ground_level_concurrence,
    ground_level_density_stack,
    ground_state_ac_concurrence,
)
from medent.linalg import eigh, eigh_stack
from medent.sweeps import ISING_CHUNK, _ising_stack
from medent.tripartite import IsingParams, _ising_coefficients, build_ising, ising_hamiltonians

from conftest import medent_process, python_process

# delta = 0 gives degenerate ground levels, lambda = 0 or delta = 0 a pattern
# of several blocks
CHAIN_DELTAS = (0.0, 0.01, 0.1, 0.3, 1.0, 2.0)
CHAIN_LAMS = (0.0, 0.5, 1.0, 1.3, 3.0, -0.7)
# kappa = 0 and both h1 crossings (1/sqrt(2) and 1/(sqrt(6) - sqrt(2)) at resonance)
KAPPAS = (0.0, 0.3, 1 / np.sqrt(2), 1 / (np.sqrt(6) - np.sqrt(2)), 1.1)


def update_concurrence(h, r) -> None:
    h.update(r.value.hex().encode())
    h.update(r.tilde_lambdas.tobytes())
    h.update(b"1" if r.degenerate_ground else b"0")


def concurrence_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        update_concurrence(h, r)
    return h.hexdigest()


def chain_points():
    for delta in CHAIN_DELTAS:
        for lam in CHAIN_LAMS:
            yield ground_state_ac_concurrence(build_ising(IsingParams(delta=delta, lam=lam)), (2, 2, 2))


def cavity_points():
    for variant in ("h1", "h2", "h3"):
        for kappa in KAPPAS:
            for n_max in (12, 40):
                yield mediator_concurrence(DickeConfig(variant, kappa, n_max=n_max))


def chunk_params() -> list[IsingParams]:
    params = [
        IsingParams(delta=d, lam=lam) for d in np.linspace(0.0, 2.0, 8) for lam in np.linspace(0.0, 3.0, 16)
    ]
    assert len(params) == ISING_CHUNK
    return params


def sweep_chunk_digest() -> str:
    h = hashlib.sha256()
    # one (energy, gap, concurrence, degenerate) tuple of Python values per point
    for row in zip(*(column.tolist() for column in _ising_stack(_ising_coefficients(chunk_params())))):
        h.update(repr(row).encode())
    return h.hexdigest()


def evaluate_digest() -> str:
    """The start-cutoff solve, eigh(build_dicke(cfg)), of every variant at the
    KAPPAS and two points between the h1 crossings, each at two quadratic
    multipliers."""
    h = hashlib.sha256()
    for variant in VARIANTS:
        for kappa in (*KAPPAS, 0.6, 0.8):
            for tilde in (0.5, 1.5):
                cfg = DickeConfig(variant, kappa, lam_tilde=tilde, n_max=40)
                dec = eigh(build_dicke(cfg))
                conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), cfg.dims, (0, 1))
                h.update(f"{dec.ground_energy.hex()} {dec.gap().hex()} ".encode())
                update_concurrence(h, conc)
    return h.hexdigest()


# a chunk of the chain with no degenerate ground level, and stacks of one
# point whose ground level is degenerate (delta = 0) or not
CLEAN_CHUNK = [(d, lam) for d in np.linspace(0.1, 2.0, 8) for lam in np.linspace(0.2, 3.0, 16)]
DEGENERATE_POINT = [(0.0, 1.3)]
CLEAN_POINT = [(0.3, 1.3)]


def points_params(points) -> list[IsingParams]:
    return [IsingParams(delta=d, lam=lam) for d, lam in points]


def ground_density_stack(params):
    """The ground sizes and the ground-level rho_AC of the chain points' one
    stacked solve."""
    dec = eigh_stack(ising_hamiltonians(params))
    return dec.ground_sizes, ground_level_density_stack(dec.eigenvectors, dec.ground_sizes, (2, 2, 2), (0, 2))


def ground_density_digest(params) -> str:
    sizes, rho = ground_density_stack(params)
    h = hashlib.sha256(sizes.tobytes())
    h.update(rho.tobytes())
    return h.hexdigest()


def chunk_eigh_digest() -> str:
    """The eigenvalues and the eigenvectors' real parts of one chain chunk."""
    dec = eigh_stack(ising_hamiltonians(chunk_params()))
    h = hashlib.sha256(dec.eigenvalues.tobytes())
    h.update(dec.eigenvectors.real.tobytes())
    return h.hexdigest()


RECORDED = {
    "chain": (lambda: concurrence_digest(chain_points()),
              "11256bfc837616f49af484c80c2953ae5d3c88c1ea35b664897940db4971fafe"),
    "cavity": (lambda: concurrence_digest(cavity_points()),
               "6f16de9a6e27cdb507f8e73caf84eca28bc1cad15755238ea878afccb4069c0a"),
    "sweep_chunk": (sweep_chunk_digest,
                    "9b986c94961b446705c67c9d4fa90a40a42541025275ba21b70a3e304ce9893f"),
}


@pytest.mark.parametrize("name", RECORDED)
def test_the_ground_level_kernels_keep_the_recorded_bits(name):
    digest, recorded = RECORDED[name]
    assert digest() == recorded


# recorded in a process with BLAS pinned to one thread, as the benchmark runs
# them (a complex solve of 164 states may round differently with more), and
# equal in one with two
REAL_COMPLEX_SOLVES = {
    "evaluate": (evaluate_digest, "77da1f0b830e87408b634cf24f2f3218048fb49c18d088f4fecb069570f2b65b"),
    "chunk_eigh": (chunk_eigh_digest, "263bddd17b593134e330ff129712daffa9da8625b0d5ab192eba25ded0a8a833"),
}

SPECTRUM_H2 = (
    ["spectrum", "--model", "dicke", "--variant", "h2", "--kappa", "0.6"],
    "b2985d83a712ed3e14b207c84cd991fc7d587696d87dc2e2cfcbe83dbc2f8595",
)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", REAL_COMPLEX_SOLVES)
def test_the_complex_solves_of_real_matrices_keep_the_recorded_bits(name, threads):
    code = f"from test_recorded_bits import REAL_COMPLEX_SOLVES as d; print(d[{name!r}][0]())"
    proc = python_process(["-c", code], threads, Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == REAL_COMPLEX_SOLVES[name][1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_dicke_spectrum_keeps_the_recorded_bytes(threads, tmp_path):
    argv, recorded = SPECTRUM_H2
    proc = medent_process(argv, threads, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == recorded


# the ground-level rho_AC of the chain, recorded with BLAS pinned to one
# thread and equal with two: a chunk with 23 degenerate ground levels of 128,
# one with none, and stacks of one with a degenerate ground level and without
GROUND_DENSITIES = {
    "chunk": (chunk_params, "e537431a2bae3b869242b6d80dc8a5f232cfe2b99252c14b7c371d964c9c12e0"),
    "clean_chunk": (lambda: points_params(CLEAN_CHUNK),
                    "3da4c73906ffc893c619e3230e9b2395ba68080d8419672d2bdc409465a36007"),
    "degenerate_point": (lambda: points_params(DEGENERATE_POINT),
                         "75b7991b22aa2fe1abc99063daea9520a89fbd0b206f25e558f01f64e3d08698"),
    "clean_point": (lambda: points_params(CLEAN_POINT),
                    "87f01c7f6bd441e275a0d510c6c09aa8403ccd040b31b0fb37d254f944cf84ed"),
}


def test_the_ground_density_pins_cover_both_kinds_of_ground_level():
    degenerate = {name: int((ground_density_stack(params())[0] > 1).sum())
                  for name, (params, _) in GROUND_DENSITIES.items()}
    assert degenerate == {"chunk": 23, "clean_chunk": 0, "degenerate_point": 1, "clean_point": 0}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_ground_level_densities_keep_the_recorded_bits(threads):
    code = (
        "from test_recorded_bits import GROUND_DENSITIES as d, ground_density_digest as g; "
        "print(' '.join(g(params()) for params, _ in d.values()))"
    )
    proc = python_process(["-c", code], threads, Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == [recorded for _, recorded in GROUND_DENSITIES.values()]
