"""The shared ground-level kernels keep every bit they returned when these
digests were recorded: the chain's and the cavity's ground-level
concurrences point by point, and one stacked chunk of the chain sweep."""

import hashlib

import numpy as np
import pytest

from medent.dicke import DickeConfig, mediator_concurrence
from medent.entanglement import ground_state_ac_concurrence
from medent.sweeps import ISING_CHUNK, _ising_stack
from medent.tripartite import IsingParams, build_ising

# delta = 0 gives degenerate ground levels, lambda = 0 or delta = 0 a pattern
# of several blocks
CHAIN_DELTAS = (0.0, 0.01, 0.1, 0.3, 1.0, 2.0)
CHAIN_LAMS = (0.0, 0.5, 1.0, 1.3, 3.0, -0.7)
# kappa = 0 and both h1 crossings (1/sqrt(2) and 1/(sqrt(6) - sqrt(2)) at resonance)
KAPPAS = (0.0, 0.3, 1 / np.sqrt(2), 1 / (np.sqrt(6) - np.sqrt(2)), 1.1)


def concurrence_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.value.hex().encode())
        h.update(r.tilde_lambdas.tobytes())
        h.update(b"1" if r.degenerate_ground else b"0")
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


def sweep_chunk_digest() -> str:
    params = [
        IsingParams(delta=d, lam=lam) for d in np.linspace(0.0, 2.0, 8) for lam in np.linspace(0.0, 3.0, 16)
    ]
    assert len(params) == ISING_CHUNK
    h = hashlib.sha256()
    for row in _ising_stack(params):
        h.update(repr(tuple(row.values())).encode())
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
