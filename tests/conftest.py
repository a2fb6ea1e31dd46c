"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.codes import QCLDPCCode, build_qc_base_matrix, get_code
from repro.decoder.backends import native
from repro.encoder import make_encoder

#: The fast backend's two fixed-point iteration bodies.
FIXED_BODIES = ("native", "numpy")


@contextlib.contextmanager
def fixed_body(name: str):
    """Decoders built inside run the named fast-backend fixed body.

    ``numpy`` patches the native loader to find no library — exactly
    what a host without a C compiler sees; ``native`` is skipped where
    the library cannot be built.
    """
    with pytest.MonkeyPatch.context() as patch:
        if name == "numpy":
            patch.setattr(native, "library", lambda: None)
        elif native.library() is None:
            pytest.skip("no C compiler here: the native body is not built")
        yield name


@pytest.fixture(params=FIXED_BODIES)
def body(request):
    """Run a test once per fast-backend fixed-point iteration body."""
    with fixed_body(request.param) as name:
        yield name


@pytest.fixture
def rng():
    """A deterministic RNG for every test that needs randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_code() -> QCLDPCCode:
    """A small synthetic QC code (j=3, k=6, z=8; N=48) for fast tests."""
    base = build_qc_base_matrix(j=3, k=6, z=8, name="tiny_j3_k6_z8", seed=7)
    return QCLDPCCode(base)


@pytest.fixture(scope="session")
def small_code() -> QCLDPCCode:
    """The smallest WiMax mode (N=576) — a realistic standard code."""
    return get_code("802.16e:1/2:z24")


@pytest.fixture(scope="session")
def wifi_code() -> QCLDPCCode:
    """The 802.11n N=648 mode with the embedded standard table."""
    return get_code("802.11n:1/2:z27")


@pytest.fixture(scope="session")
def small_encoder(small_code):
    return make_encoder(small_code)


@pytest.fixture(scope="session")
def tiny_encoder(tiny_code):
    return make_encoder(tiny_code)


def make_noisy_llrs(code, encoder, ebn0_db, frames, seed):
    """Helper used by several test modules: encode + AWGN + LLRs."""
    from repro.channel import AWGNChannel, BPSKModulator, ChannelFrontend

    rng = np.random.default_rng(seed)
    info, codewords = encoder.random_codewords(frames, rng)
    frontend = ChannelFrontend(
        BPSKModulator(), AWGNChannel.from_ebn0(ebn0_db, code.rate, rng=rng)
    )
    return info, codewords, frontend.run(codewords)
