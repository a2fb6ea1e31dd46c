"""The fast backend's native iteration body and its numpy fallback.

The guard-ROM fixed-point kernel on int16 state runs whole layered
iterations in compiled C (:mod:`repro.decoder.backends.native`).  These
tests pin what that must never change: the outputs equal the numpy
layer loop byte for byte, a host without a working compiler decodes
the same through numpy without an error, arrays the C side cannot take
as they are never reach it, and one decoder serves concurrent threads.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.decoder.backends import native
from repro.decoder.backends.base import DecoderBackend
from repro.decoder.backends.fast import FastBackend
from repro.decoder.plan import DecodePlan
from repro.fixedpoint import QFormat
from tests.conftest import make_noisy_llrs

REPO_ROOT = Path(__file__).resolve().parents[1]
Q82 = DecoderConfig(backend="fast", qformat=QFormat(8, 2))


@pytest.fixture
def native_library():
    function = native.library()
    if function is None:
        pytest.skip("no C compiler here: the native body is not built")
    return function


def _random_state(plan, batch, config, seed):
    rng = np.random.default_rng(seed)
    app_max = config.app_qformat.max_int
    msg_max = config.qformat.max_int
    l_mem = rng.integers(-app_max, app_max + 1, (batch, plan.n))
    lam = rng.integers(-msg_max, msg_max + 1, (batch, plan.total_blocks, plan.z))
    # Exact cancellations L == Λ, signed and zero, for the zero-break.
    first = plan.gather_indices[0]
    lam[:, 0, :3] = [msg_max, -7, 0]
    l_mem[:, first[0, :3]] = lam[:, 0, :3]
    return l_mem.astype(np.int16), lam.astype(np.int16)


def _layer_loop(backend, l_mem, lam, iterations):
    l_mem, lam = l_mem.copy(), lam.copy()
    for _ in range(iterations):
        DecoderBackend.iterate(backend, l_mem, lam)
    return l_mem, lam


class TestSelection:
    def test_stock_q82_runs_native(self, native_library):
        decoder = LayeredDecoder(get_code("802.16e:1/2:z24"), Q82)
        assert decoder.backend.native_body

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(qformat=None),
            dict(check_node="normalized-minsum"),
            dict(bp_impl="forward-backward"),
            dict(siso_guard_bits=0),
            dict(app_extra_bits=8),  # int32 storage
            dict(qformat=QFormat(13, 2)),  # guarded table fold
        ],
        ids=["float", "minsum", "fwd-bwd", "guard0", "int32", "table-fold"],
    )
    def test_other_kernels_keep_the_numpy_body(self, native_library, overrides):
        config = Q82.replace(**overrides)
        backend = LayeredDecoder(get_code("802.16e:1/2:z24"), config).backend
        assert isinstance(backend, FastBackend)
        assert not backend.native_body

    def test_reference_has_no_native_body(self):
        config = Q82.replace(backend="reference")
        backend = LayeredDecoder(get_code("802.16e:1/2:z24"), config).backend
        assert not getattr(backend, "native_body", False)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "mode", ["802.16e:1/2:z24", "802.11n:1/2:z27", "NR:bg1:z8", "NR:bg2:z5"]
    )
    @pytest.mark.parametrize("batch", [1, 5])
    # app_extra_bits=0 makes the APP clip bite (|λ + Λ'| can reach
    # twice the APP bound); 2 is the stock APP word, where it cannot.
    @pytest.mark.parametrize("app_extra_bits", [0, 2])
    def test_iteration_equals_the_layer_loop(
        self, native_library, mode, batch, app_extra_bits
    ):
        config = Q82.replace(app_extra_bits=app_extra_bits)
        plan = DecodePlan(get_code(mode))
        backend = FastBackend(plan, config)
        assert backend.native_body
        l_mem, lam = _random_state(plan, batch, config, seed=batch)
        want = _layer_loop(backend, l_mem, lam, iterations=3)
        got = (l_mem.copy(), lam.copy())
        for _ in range(3):
            backend.iterate(*got)
        assert not np.array_equal(got[1], lam)
        for have, expected in zip(got, want):
            assert have.dtype == np.int16
            assert have.tobytes() == expected.tobytes()

    def test_empty_batch_is_a_no_op(self, native_library):
        plan = DecodePlan(get_code("802.16e:1/2:z24"))
        backend = FastBackend(plan, Q82)
        l_mem = np.zeros((0, plan.n), np.int16)
        lam = np.zeros((0, plan.total_blocks, plan.z), np.int16)
        backend.iterate(l_mem, lam)


class TestFallback:
    def test_missing_compiler_returns_none(self, tmp_path):
        assert native.build_library(
            compiler="repro-no-such-compiler", directory=tmp_path
        ) is None
        assert list(tmp_path.iterdir()) == []

    def test_failed_build_returns_none_and_leaves_nothing(
        self, native_library, tmp_path
    ):
        broken = tmp_path / "broken.c"
        broken.write_text("void guard_rom_iterate(void) { this is not C }\n")
        cache = tmp_path / "cache"
        assert native.build_library(source=broken, directory=cache) is None
        assert list(cache.iterdir()) == []

    def test_cache_is_reused(self, native_library, tmp_path):
        assert native.build_library(directory=tmp_path) is not None
        [built] = tmp_path.iterdir()
        stamp = built.stat().st_mtime_ns
        assert native.build_library(directory=tmp_path) is not None
        assert list(tmp_path.iterdir()) == [built]
        assert built.stat().st_mtime_ns == stamp

    def test_unwritable_cache_builds_privately(self, native_library, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert native.build_library(directory=blocker / "cache") is not None
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("failure", ["no-compiler", "failed-build"])
    def test_fallback_decodes_identically(
        self, native_library, tmp_path, monkeypatch, small_code,
        small_encoder, failure,
    ):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 6, seed=3)
        expected = LayeredDecoder(small_code, Q82).decode(llr)
        if failure == "no-compiler":
            kwargs = dict(compiler="repro-no-such-compiler")
        else:
            broken = tmp_path / "broken.c"
            broken.write_text("#error deliberately broken\n")
            kwargs = dict(source=broken)
        monkeypatch.setattr(
            native, "library",
            lambda: native.build_library(directory=tmp_path / "cache", **kwargs),
        )
        decoder = LayeredDecoder(small_code, Q82)
        assert not decoder.backend.native_body
        result = decoder.decode(llr)
        for field in ("bits", "llr", "iterations", "et_stopped", "converged"):
            assert np.array_equal(getattr(result, field), getattr(expected, field))


class TestArrayGuard:
    """Only C-contiguous, aligned, writeable int16 arrays of the plan's
    shape reach the compiled body; anything else takes the numpy layer
    loop, which treats it as it always has."""

    @pytest.fixture
    def guarded(self, native_library):
        plan = DecodePlan(get_code("802.16e:1/2:z24"))
        backend = FastBackend(plan, Q82)
        calls = []
        real = backend._native
        backend._native = lambda *args: calls.append(args) or real(*args)
        return plan, backend, calls

    def test_contiguous_int16_reaches_c(self, guarded):
        plan, backend, calls = guarded
        l_mem, lam = _random_state(plan, 2, Q82, seed=1)
        backend.iterate(l_mem, lam)
        assert len(calls) == 1

    def test_strided_arrays_take_the_layer_loop(self, guarded):
        plan, backend, calls = guarded
        l_mem, lam = _random_state(plan, 3, Q82, seed=2)
        want = _layer_loop(backend, l_mem, lam, iterations=1)
        wide = np.zeros((3, 2 * plan.n), np.int16)
        strided_l = wide[:, ::2]
        strided_l[...] = l_mem
        fortran_lam = np.asfortranarray(lam)
        backend.iterate(strided_l, fortran_lam)
        assert calls == []
        assert np.array_equal(strided_l, want[0])
        assert np.array_equal(fortran_lam, want[1])

    def test_int32_state_takes_the_layer_loop(self, guarded):
        plan, backend, calls = guarded
        l_mem, lam = _random_state(plan, 2, Q82, seed=3)
        want = _layer_loop(backend, l_mem.astype(np.int32), lam.astype(np.int32), 1)
        got = (l_mem.astype(np.int32), lam.astype(np.int32))
        backend.iterate(*got)
        assert calls == []
        for have, expected in zip(got, want):
            assert have.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["read-only", "short-row", "lam-shape"])
    def test_unfit_arrays_raise_as_before(self, guarded, case):
        plan, backend, calls = guarded
        l_mem, lam = _random_state(plan, 2, Q82, seed=4)
        if case == "read-only":
            l_mem.flags.writeable = False
        elif case == "short-row":
            l_mem = np.ascontiguousarray(l_mem[:, :-1])
        else:
            lam = np.ascontiguousarray(lam[:1])
        with pytest.raises((ValueError, IndexError)):
            backend.iterate(l_mem, lam)
        assert calls == []


def test_threads_sharing_one_decoder_match_serial(body, small_code, small_encoder):
    """More threads than cores decode through one decoder (one plan,
    one backend) at once; every result equals the serial decode."""
    decoder = LayeredDecoder(small_code, Q82)
    assert decoder.backend.native_body == (body == "native")
    workers = 3
    batches = [
        make_noisy_llrs(small_code, small_encoder, 2.0, 4 + i, seed=10 + i)[2]
        for i in range(workers)
    ]
    serial = [decoder.decode(llr) for llr in batches]
    results: dict = {}
    barrier = threading.Barrier(workers)

    def worker(index):
        barrier.wait(timeout=30)
        for repeat in range(4):
            results[index, repeat] = decoder.decode(batches[index])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * workers
    for (index, _), result in results.items():
        assert np.array_equal(result.llr, serial[index].llr)
        assert np.array_equal(result.iterations, serial[index].iterations)


def test_package_data_ships_the_c_source(tmp_path):
    """An installed package carries the source the loader compiles."""
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(tmp_path)],
        cwd=REPO_ROOT, check=True, capture_output=True,
    )
    shipped = tmp_path / native.SOURCE.relative_to(REPO_ROOT / "src")
    assert shipped.read_bytes() == native.SOURCE.read_bytes()
