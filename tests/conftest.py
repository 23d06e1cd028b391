import numpy as np
import pytest

from fermiflux import chain
from fermiflux import superop as so
from fermiflux.randgen import random_thermal_model


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def chain2():
    return chain.build(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0))


@pytest.fixture
def chain2_spec():
    return chain.ChainSpec(length=2, beta0=1.0, betaL=0.0)


def make_models(seed, count, **kw):
    """Deterministic batch of random ergodic thermal models."""
    r = np.random.default_rng(seed)
    return [random_thermal_model(r, **kw) for _ in range(count)]


def kernel_map(kernel, gammas):
    """Heisenberg map A -> (1/2) sum_kl kernel_kl g_k A g_l as a superoperator, term by term.

    The naive reference for the Kraus-operator construction of the Fock layer.
    """
    n = kernel.shape[0]
    dim = gammas[0].shape[0]
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(n):
        for l in range(n):
            if kernel[k, l] != 0:
                out += 0.5 * kernel[k, l] * so.sandwich(gammas[k], gammas[l])
    return out
