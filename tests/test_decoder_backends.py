"""Backend selection + cross-backend equivalence tests.

Contracts verified here:

- fixed-point outputs (hard bits, raw LLRs, iteration counts) are
  **bit-identical** across ``reference`` and ``fast`` on every
  registered standard;
- the fast float Φ-domain kernel (exclusive prefix/suffix Φ-sums, no
  cancelling subtraction) matches the reference kernel per call on the
  operating range |λ| <= 20: float64 ``fast_exact`` to atol 1e-6,
  default float32 to atol 1e-4 in the decision region (|Λ| <= 5) and
  1e-3 relative overall (measured ~2e-7; headroom for platform libm
  differences) — and tracks the reference hard decisions end to end on
  the test workloads.  At *saturated* checks (messages railed at the
  clip) the implementations intentionally differ: the reference's ⊟
  pole rails the weakest-edge extrinsic to the clip, while the Φ form
  returns the exact finite extrinsic (float32 additionally caps it near
  88, its representable Φ ceiling); signs always agree;
- non-BP check-node variants delegate to the identical reference
  kernels;
- backend selection: explicit names, ``auto`` + environment override,
  unknown-name errors.
"""

import numpy as np
import pytest

import repro
from repro.codes import get_code
from repro.decoder import (
    BPSumSubKernel,
    DecodePlan,
    DecoderConfig,
    FloodingDecoder,
    LayeredDecoder,
    prepare_channel_llrs,
    resolve_backend_name,
)
from repro.decoder.backends import BACKENDS, ENV_BACKEND
from repro.decoder.backends import fast as fast_module
from repro.decoder.backends.base import INT16_APP_MAX_BITS
from repro.decoder.backends.fast import (
    PHI_ACCUMULATE_MAX_BZ,
    TAKE_GATHER_MAX_BZ,
    FastBackend,
)
from repro.decoder.backends.reference import ReferenceBackend
from repro.decoder.siso import (
    FixedBPForwardBackwardKernel,
    GuardedFixedBPSumSubKernel,
)
from repro.encoder import make_encoder
from repro.errors import DecoderConfigError
from repro.fixedpoint import QFormat
from repro.nr import NRRateMatcher
from repro.service import service_default_config
from tests.conftest import make_noisy_llrs

#: One small mode per supported standard (DMB-T has a single z).
STANDARD_MODES = ["802.16e:1/2:z24", "802.11n:1/2:z27", "DMB-T:0.4:z127"]

#: Every check-node kernel built on the fused two-smallest reduction.
MINSUM_FAMILY = ("minsum", "normalized-minsum", "offset-minsum", "linear-approx")

#: Documented float tolerances of the fast Φ kernel per call, on the
#: operating range |λ| <= 20 (see module docstring).
ATOL_FAST_EXACT = 1e-6
ATOL_FAST_F32_DECISION = 1e-4
RTOL_FAST_F32 = 1e-3


def decode_pair(code, llr, config_kwargs):
    results = []
    for backend in ("reference", "fast"):
        config = DecoderConfig(backend=backend, **config_kwargs)
        results.append(LayeredDecoder(code, config).decode(llr))
    return results


class TestRegistry:
    def test_reference_and_fast_are_the_backends(self):
        assert BACKENDS == {"reference": ReferenceBackend, "fast": FastBackend}

    def test_auto_defaults_to_fast(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend_name("auto") == "fast"
        assert resolve_backend_name(None) == "fast"

    def test_env_reference_still_selects_the_oracle(
        self, small_code, monkeypatch
    ):
        monkeypatch.setenv(ENV_BACKEND, "reference")
        assert resolve_backend_name("auto") == "reference"
        decoder = LayeredDecoder(small_code, DecoderConfig())
        assert isinstance(decoder.backend, ReferenceBackend)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "fast")
        assert resolve_backend_name("auto") == "fast"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "fast")
        assert resolve_backend_name("reference") == "reference"

    def test_unknown_backend_raises(self):
        with pytest.raises(DecoderConfigError):
            resolve_backend_name("gpu")

    def test_unknown_backend_raises_at_decoder_construction(self, small_code):
        with pytest.raises(DecoderConfigError):
            LayeredDecoder(small_code, DecoderConfig(backend="gpu"))

    def test_retired_numba_backend_is_unknown(self, small_code):
        config = DecoderConfig(backend="numba")
        with pytest.raises(DecoderConfigError, match="unknown"):
            LayeredDecoder(small_code, config)

    def test_decoder_uses_selected_backend(self, small_code):
        ref = LayeredDecoder(small_code, DecoderConfig(backend="reference"))
        fast = LayeredDecoder(small_code, DecoderConfig(backend="fast"))
        assert isinstance(ref.backend, ReferenceBackend)
        assert isinstance(fast.backend, FastBackend)


class TestDefaultFrontDoors:
    """A decode that names no backend runs ``fast``, at every front door.

    ``repro.open``, ``DecodeService()`` and a ``DecodeServer`` round
    trip with no config must each be bit-identical to an explicit
    ``fast`` decode under the config that front door defaults to —
    ``service_default_config`` for the serving paths.
    """

    MODE = "802.16e:1/2:z24"

    @pytest.fixture(autouse=True)
    def auto_means_fast(self, monkeypatch):
        """No env override; the shared plan cache, keyed by the
        unresolved ``"auto"``, is rebuilt on both sides so no decoder
        built here serves a later test run under another override."""
        from repro.link import reset_default_plan_cache

        monkeypatch.delenv(ENV_BACKEND, raising=False)
        reset_default_plan_cache()
        yield
        reset_default_plan_cache()

    @pytest.fixture
    def llr(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 1.5, 6, seed=7)
        return llr

    @staticmethod
    def assert_same(got, expected):
        for field in ("bits", "llr", "iterations", "converged", "et_stopped"):
            assert np.array_equal(
                np.asarray(getattr(got, field)),
                np.asarray(getattr(expected, field)),
            ), field

    def test_link_default_decode_runs_fast(self, small_code, llr):
        import repro

        explicit = DecoderConfig(backend="fast")
        with repro.open(self.MODE) as link:
            assert isinstance(link.decoder.backend, FastBackend)
            self.assert_same(
                link.decode(llr),
                LayeredDecoder(small_code, explicit).decode(llr),
            )
            self.assert_same(
                link.submit(llr).result(timeout=60),
                LayeredDecoder(
                    small_code, service_default_config(explicit)
                ).decode(llr),
            )

    def test_service_and_server_defaults_run_fast(self, small_code, llr):
        import asyncio

        from repro.server import DecodeClient, DecodeServer
        from repro.service import DecodeService

        expected = LayeredDecoder(
            small_code, service_default_config(DecoderConfig(backend="fast"))
        ).decode(llr)
        with DecodeService() as service:
            served = service.submit(self.MODE, llr).result(timeout=60)
        self.assert_same(served, expected)

        async def round_trip():
            async with DecodeServer() as server:
                async with await DecodeClient.connect(*server.address) as c:
                    return await c.decode(self.MODE, llr)

        self.assert_same(asyncio.run(round_trip()), expected)


class TestConfigValidation:
    """Unknown algorithm strings die at DecoderConfig construction with
    DecoderConfigError on every backend path — never a KeyError or a
    silent fallback deep inside kernel selection."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_unknown_check_node_fails_at_construction(self, backend):
        with pytest.raises(DecoderConfigError, match="check_node"):
            DecoderConfig(backend=backend, check_node="min-sum")  # typo

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_unknown_bp_impl_fails_at_construction(self, backend):
        with pytest.raises(DecoderConfigError, match="bp_impl"):
            DecoderConfig(backend=backend, bp_impl="sumsub")  # typo

    def test_kernel_slot_guards_unvalidated_configs(self):
        # A config smuggled past __post_init__ (object.__setattr__ on the
        # frozen dataclass) still raises DecoderConfigError, not KeyError,
        # when a backend asks the kernel table for it.
        from repro.decoder import kernel_slot

        config = DecoderConfig()
        object.__setattr__(config, "check_node", "bogus")
        with pytest.raises(DecoderConfigError, match="no check-node kernel"):
            kernel_slot(config)

    def test_kernel_table_covers_every_valid_combination(self):
        from repro.decoder import CHECK_NODE_ALGORITHMS, kernel_slot
        from repro.decoder.backends.fast import FastBackend
        from repro.decoder.plan import DecodePlan

        code = get_code("802.16e:1/2:z24")
        for check_node in CHECK_NODE_ALGORITHMS:
            for bp_impl in ("sum-sub", "forward-backward"):
                for qformat in (None, QFormat(8, 2)):
                    config = DecoderConfig(
                        check_node=check_node, bp_impl=bp_impl, qformat=qformat
                    )
                    assert kernel_slot(config)
                    # and the fast backend can actually build the kernel
                    assert FastBackend(DecodePlan(code), config)._kernel

    def test_invalid_guard_bits_rejected(self):
        with pytest.raises(DecoderConfigError, match="siso_guard_bits"):
            DecoderConfig(siso_guard_bits=-1)
        with pytest.raises(DecoderConfigError, match="siso_guard_bits"):
            DecoderConfig(siso_guard_bits=9)


@pytest.mark.parametrize("mode", STANDARD_MODES)
class TestFixedPointBitExact:
    def _workload(self, mode, frames=8, seed=303):
        code = get_code(mode)
        encoder = make_encoder(code)
        _, _, llr = make_noisy_llrs(code, encoder, 3.0, frames, seed)
        return code, llr

    def _assert_identical(self, a, b):
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.llr, b.llr)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.et_stopped, b.et_stopped)

    def test_layered_bit_identical(self, mode):
        code, llr = self._workload(mode)
        ref, fast = decode_pair(
            code, llr, dict(qformat=QFormat(8, 2), max_iterations=4)
        )
        self._assert_identical(ref, fast)

    def test_layered_bit_identical_wide_format(self, mode):
        # Q12.4 exceeds PAIR_TABLE_MAX_BITS: exercises the flat-table fold.
        code, llr = self._workload(mode, frames=4)
        ref, fast = decode_pair(
            code, llr, dict(qformat=QFormat(12, 4), max_iterations=3)
        )
        self._assert_identical(ref, fast)

    def test_flooding_bit_identical(self, mode):
        code, llr = self._workload(mode, frames=4)
        results = []
        for backend in ("reference", "fast"):
            config = DecoderConfig(
                backend=backend, qformat=QFormat(8, 2), max_iterations=3
            )
            results.append(FloodingDecoder(code, config).decode(llr))
        self._assert_identical(*results)


class TestFloatEquivalence:
    def test_fast_exact_kernel_atol(self, rng):
        config = DecoderConfig(backend="fast", fast_exact=True)
        backend = FastBackend(DecodePlan(get_code("802.16e:1/2:z24")), config)
        reference = BPSumSubKernel(config.llr_clip)
        for degree in (2, 3, 7, 20):
            lam = rng.uniform(-20, 20, size=(4, degree, 24))
            delta = np.abs(reference(lam) - backend._kernel(lam))
            assert delta.max() < ATOL_FAST_EXACT

    def test_fast_f32_kernel_atol(self, rng):
        config = DecoderConfig(backend="fast")
        backend = FastBackend(DecodePlan(get_code("802.16e:1/2:z24")), config)
        reference = BPSumSubKernel(config.llr_clip)
        for degree in (2, 3, 7, 20):
            lam = rng.uniform(-20, 20, size=(4, degree, 24))
            out = backend._kernel(lam.astype(np.float32))
            assert out.dtype == np.float32
            expected = reference(lam)
            delta = np.abs(expected - out.astype(np.float64))
            decision_region = np.abs(expected) <= 5.0
            if decision_region.any():
                assert delta[decision_region].max() < ATOL_FAST_F32_DECISION
            assert (delta / (1.0 + np.abs(expected))).max() < RTOL_FAST_F32
            assert np.array_equal(np.sign(expected), np.sign(out))

    def test_fast_decodes_clean_exactly(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(5, rng)
        llr = 8.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        for kwargs in (dict(), dict(fast_exact=True)):
            result = LayeredDecoder(
                small_code, DecoderConfig(backend="fast", **kwargs)
            ).decode(llr)
            assert result.bit_errors(info) == 0
            assert result.convergence_rate == 1.0

    def test_fast_tracks_reference_decisions(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 60, 404)
        ref, fast = decode_pair(small_code, llr, dict())
        agreement = np.mean(ref.bits == fast.bits)
        assert agreement > 0.999
        assert abs(ref.frame_errors(info) - fast.frame_errors(info)) <= 2

    def test_fast_exact_tracks_reference_decisions(
        self, small_code, small_encoder
    ):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 40, 405)
        ref, fast = decode_pair(small_code, llr, dict(fast_exact=True))
        assert np.array_equal(ref.bits, fast.bits)
        assert np.array_equal(ref.iterations, fast.iterations)

    def test_zero_message_erasure_matches_reference(self, rng):
        # sign(0) = 0 propagates through the reference ⊞/⊟ recursion: one
        # exactly-zero message zeroes the whole check.  The Φ kernels
        # reproduce that.
        code = get_code("802.16e:1/2:z24")
        reference = BPSumSubKernel(256.0)
        for kwargs in (dict(), dict(fast_exact=True)):
            backend = FastBackend(
                DecodePlan(code), DecoderConfig(backend="fast", **kwargs)
            )
            lam = rng.uniform(-10, 10, size=(3, 5, 8))
            lam[0, 2, 4] = 0.0
            lam[2, :, 1] = 0.0
            out = backend._kernel(lam.astype(backend.work_dtype))
            expected = reference(lam)
            assert np.array_equal(out[0, :, 4], np.zeros(5))
            assert np.array_equal(out[2, :, 1], np.zeros(5))
            assert np.array_equal(
                np.sign(expected), np.sign(out.astype(np.float64))
            )

    def test_float_llr_output_is_float64(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 3, 406)
        result = LayeredDecoder(
            small_code, DecoderConfig(backend="fast")
        ).decode(llr)
        assert result.llr.dtype == np.float64

    @pytest.mark.parametrize(
        "check_node",
        ["minsum", "normalized-minsum", "offset-minsum", "linear-approx"],
    )
    def test_non_bp_kernels_identical(
        self, small_code, small_encoder, check_node
    ):
        # The fused fast kernels (two-smallest reduction instead of the
        # reference argsort) are *exactly* equal in float, not just close.
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 10, 407)
        ref, fast = decode_pair(
            small_code, llr, dict(check_node=check_node, max_iterations=4)
        )
        assert np.array_equal(ref.bits, fast.bits)
        assert np.array_equal(ref.llr, fast.llr)
        assert np.array_equal(ref.iterations, fast.iterations)

    def test_forward_backward_identical(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 6, 408)
        ref, fast = decode_pair(
            small_code, llr, dict(bp_impl="forward-backward", max_iterations=3)
        )
        assert np.array_equal(ref.bits, fast.bits)


class TestEdgeCases:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("qformat", [None, QFormat(8, 2)])
    def test_empty_batch_layered(self, small_code, backend, qformat):
        config = DecoderConfig(backend=backend, qformat=qformat)
        result = LayeredDecoder(small_code, config).decode(
            np.zeros((0, small_code.n))
        )
        assert result.batch_size == 0
        assert result.bits.shape == (0, small_code.n)
        assert result.iterations.shape == (0,)
        assert result.converged.shape == (0,)
        assert result.info_bits.shape == (0, small_code.n_info)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_empty_batch_flooding(self, small_code, backend):
        result = FloodingDecoder(
            small_code, DecoderConfig(backend=backend)
        ).decode(np.zeros((0, small_code.n)))
        assert result.batch_size == 0

    def test_single_frame_fast(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(1, rng)
        llr = 8.0 * (1.0 - 2.0 * codewords[0].astype(np.float64))
        result = LayeredDecoder(
            small_code, DecoderConfig(backend="fast")
        ).decode(llr)
        assert result.batch_size == 1
        assert bool(result.converged[0])

    def test_batch_equals_single_fast(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 4, 409)
        decoder = LayeredDecoder(small_code, DecoderConfig(backend="fast"))
        batch = decoder.decode(llr)
        for i in range(4):
            single = decoder.decode(llr[i])
            assert np.array_equal(single.bits[0], batch.bits[i])
            assert single.iterations[0] == batch.iterations[i]


class TestLayerUpdateArithmetic:
    """``FastBackend.update_layer`` against ``ReferenceBackend.update_layer``
    one layer at a time, from arbitrary (not decode-reachable) APP and Λ
    memories — the per-layer contract the decoders and per-layer traces
    build on, pinned below whole-decode identity."""

    def _replay(self, code, config, l_start, lam_start):
        plan = DecodePlan(code)
        pair = []
        for backend_cls in (ReferenceBackend, FastBackend):
            backend = backend_cls(plan, config)
            l_mem = l_start.astype(backend.work_dtype)
            lam = lam_start.astype(backend.work_dtype)
            for pos in range(plan.num_layers):
                backend.update_layer(l_mem, lam, pos)
            pair.append((l_mem, lam))
        # One pass rewrites every Λ block: the comparison is not vacuous.
        assert not np.array_equal(pair[0][1], lam_start)
        return plan, pair

    def _fixed_state(self, code, config, rng, batch=3):
        plan = DecodePlan(code)
        app_max = config.app_qformat.max_int
        msg_max = config.qformat.max_int
        l_start = rng.integers(-app_max, app_max + 1, size=(batch, code.n))
        lam_start = rng.integers(
            -msg_max, msg_max + 1, size=(batch, plan.total_blocks, code.z)
        )
        return l_start, lam_start

    @pytest.mark.parametrize("guard_bits", [0, 2], ids=["guard0", "guarded"])
    def test_fixed_bp_layer_bit_identical(self, tiny_code, rng, guard_bits):
        config = DecoderConfig(
            qformat=QFormat(8, 2), siso_guard_bits=guard_bits
        )
        l_start, lam_start = self._fixed_state(tiny_code, config, rng)
        _, [(l_ref, lam_ref), (l_fast, lam_fast)] = self._replay(
            tiny_code, config, l_start, lam_start
        )
        assert np.array_equal(l_ref, l_fast)
        assert np.array_equal(lam_ref, lam_fast)

    @pytest.mark.parametrize("check_node", MINSUM_FAMILY)
    def test_fixed_minsum_layer_bit_identical(self, tiny_code, rng, check_node):
        config = DecoderConfig(qformat=QFormat(8, 2), check_node=check_node)
        l_start, lam_start = self._fixed_state(tiny_code, config, rng)
        _, [(l_ref, lam_ref), (l_fast, lam_fast)] = self._replay(
            tiny_code, config, l_start, lam_start
        )
        assert np.array_equal(l_ref, l_fast)
        assert np.array_equal(lam_ref, lam_fast)

    @pytest.mark.parametrize("check_node", MINSUM_FAMILY)
    def test_float_minsum_layer_identical(self, tiny_code, rng, check_node):
        config = DecoderConfig(check_node=check_node)
        plan = DecodePlan(tiny_code)
        batch = 3
        l_start = rng.normal(0.0, 8.0, size=(batch, tiny_code.n))
        lam_start = rng.normal(
            0.0, 2.0, size=(batch, plan.total_blocks, tiny_code.z)
        )
        _, [(l_ref, lam_ref), (l_fast, lam_fast)] = self._replay(
            tiny_code, config, l_start, lam_start
        )
        assert np.array_equal(l_ref, l_fast)
        assert np.array_equal(lam_ref, lam_fast)

    # -- small-batch gather crossover ----------------------------------
    # Up to ``TAKE_GATHER_MAX_BZ`` the layer update gathers with one
    # ``take`` and writes back with one scatter; above it, with slice
    # copies.  Both must move exactly the same bytes, so every cell
    # replays the same NR rate-matched state with each path forced
    # (through the crossover constant) and with the shipped crossover,
    # and compares raw bytes — ``array_equal`` would let a -0.0/+0.0
    # swap through.
    CROSSOVER_MODE = "NR:bg2:z32"
    CROSSOVER_B = TAKE_GATHER_MAX_BZ // 32  # largest batch that takes
    CROSSOVER_BATCHES = (
        1, 2, 3, CROSSOVER_B - 1, CROSSOVER_B, CROSSOVER_B + 1, 64,
    )

    def _nr_layer_state(self, code, plan, config, batch, seed):
        """Channel LLRs of an rv0 rate-matched NR buffer (erasure
        placeholders at punctured and untransmitted positions) plus a
        Λ memory with exact cancellations ``L == Λ != 0`` and genuine
        zeros ``L == Λ == 0`` in the first layer."""
        rng = np.random.default_rng(seed)
        matcher = NRRateMatcher(code, n_filler=8)
        payload = rng.integers(0, 2, (batch, matcher.n_payload), dtype=np.uint8)
        codewords = make_encoder(code).encode(matcher.place_fillers(payload))
        e = matcher.ncb * 2 // 3
        sel = matcher.select(0, e)
        signs = 1.0 - 2.0 * codewords[:, sel].astype(np.float64)
        soft = matcher.derate_match(
            2.0 * (signs + 0.8 * rng.standard_normal((batch, e))), 0
        )
        llrs = matcher.decoder_llrs(
            soft, matcher.transmitted_mask(0, e), qformat=config.qformat
        )
        l_start, _ = prepare_channel_llrs(config, code.n, llrs)
        shape = (batch, plan.total_blocks, code.z)
        if config.is_fixed_point:
            msg_max = config.qformat.max_int
            lam_start = rng.integers(-msg_max, msg_max + 1, size=shape)
        else:
            lam_start = rng.normal(0.0, 2.0, size=shape).astype(np.float32)
            l_start = l_start.astype(np.float32)
        first = plan.gather_indices[0]
        cancelled = lam_start[:, 0, :4]
        cancelled[cancelled == 0] = 3
        l_start[:, first[0, :4]] = cancelled
        l_start[:, first[1, :2]] = 0
        lam_start[:, 1, :2] = 0
        return l_start, lam_start

    def _replay_layers(self, backend, l_start, lam_start, iterations=2,
                       whole=False):
        """Replay layer by layer (``update_layer``), or by whole
        iterations (``iterate``, the layered decoder's seam)."""
        l_mem = l_start.astype(backend.work_dtype)
        lam = lam_start.astype(backend.work_dtype)
        for _ in range(iterations):
            if whole:
                backend.iterate(l_mem, lam)
                continue
            for pos in range(backend.plan.num_layers):
                backend.update_layer(l_mem, lam, pos)
        return l_mem, lam

    @pytest.mark.parametrize("batch", CROSSOVER_BATCHES)
    @pytest.mark.parametrize(
        "qformat", [None, QFormat(8, 2)], ids=["float", "q8.2"]
    )
    def test_take_gather_matches_slice_copies(self, batch, qformat, monkeypatch):
        code = get_code(self.CROSSOVER_MODE)
        config = DecoderConfig(qformat=qformat)
        plan = DecodePlan(code)
        l_start, lam_start = self._nr_layer_state(
            code, plan, config, batch, seed=batch
        )
        shipped = self._replay_layers(
            FastBackend(plan, config), l_start, lam_start
        )
        forced = {}
        for path, crossover in (("take", batch * code.z), ("slice", 0)):
            with monkeypatch.context() as patch:
                patch.setattr(fast_module, "TAKE_GATHER_MAX_BZ", crossover)
                forced[path] = self._replay_layers(
                    FastBackend(plan, config), l_start, lam_start
                )
        # One replay rewrites every Λ block: the comparison is not vacuous.
        assert not np.array_equal(shipped[1], lam_start)
        expected = [forced["slice"], shipped]
        if qformat is not None:
            expected.append(
                self._replay_layers(
                    ReferenceBackend(plan, config), l_start, lam_start
                )
            )
        for other in expected:
            for got, want in zip(forced["take"], other):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    # -- Φ prefix/suffix sum crossover ---------------------------------
    # Up to ``PHI_ACCUMULATE_MAX_BZ`` the float Φ kernel forms its sums
    # with ``np.add.accumulate``; above it, row by row.  The two must
    # perform the same float additions in the same order, so each cell
    # forces both paths (and the shipped crossover) on NR buffers with
    # erasure placeholders and cancellations and compares raw bytes.
    PHI_B = PHI_ACCUMULATE_MAX_BZ // 32  # largest batch that accumulates
    PHI_BATCHES = (1, 2, PHI_B - 1, PHI_B, PHI_B + 1, 64)

    @pytest.mark.parametrize("batch", PHI_BATCHES)
    @pytest.mark.parametrize(
        "fast_exact", [False, True], ids=["float32", "float64"]
    )
    def test_phi_row_sums_match_accumulate(self, batch, fast_exact, monkeypatch):
        code = get_code(self.CROSSOVER_MODE)
        config = DecoderConfig(fast_exact=fast_exact)
        plan = DecodePlan(code)
        l_start, lam_start = self._nr_layer_state(
            code, plan, config, batch, seed=100 + batch
        )
        shipped = self._replay_layers(
            FastBackend(plan, config), l_start, lam_start
        )
        forced = {}
        for path, crossover in (("accumulate", batch * code.z), ("rows", 0)):
            with monkeypatch.context() as patch:
                patch.setattr(fast_module, "PHI_ACCUMULATE_MAX_BZ", crossover)
                forced[path] = self._replay_layers(
                    FastBackend(plan, config), l_start, lam_start
                )
        assert not np.array_equal(shipped[1], lam_start)
        assert shipped[0].dtype == (np.float64 if fast_exact else np.float32)
        for other in (forced["rows"], shipped):
            for got, want in zip(forced["accumulate"], other):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    # -- int16/int32 storage boundary ----------------------------------
    # Fixed state is stored in int16 up to a 15-bit APP word and in
    # int32 above.  Every fixed kernel family replays layer by layer,
    # fast against reference, from saturated extremes at the widest
    # int16 format and at the first int32 one.  Per family: the kernel
    # the fast backend must select, the config, and the (qformat,
    # app_extra_bits) of each width.
    BOUNDARY_FAMILIES = {
        "guard-rom": (
            "_bp_sumsub_fixed_guard_rom", dict(siso_guard_bits=2),
            ((QFormat(8, 2), 7), (QFormat(8, 2), 8)),
        ),
        "guard-fallback": (
            GuardedFixedBPSumSubKernel, dict(siso_guard_bits=2),
            ((QFormat(13, 2), 2), (QFormat(14, 2), 2)),
        ),
        "pair-rom": (
            "_bp_sumsub_fixed_rom", dict(siso_guard_bits=0),
            ((QFormat(10, 2), 5), (QFormat(10, 2), 6)),
        ),
        "flat-fold": (
            "_bp_sumsub_fixed_flat", dict(siso_guard_bits=0),
            ((QFormat(13, 2), 2), (QFormat(14, 2), 2)),
        ),
        "forward-backward": (
            FixedBPForwardBackwardKernel, dict(bp_impl="forward-backward"),
            ((QFormat(13, 2), 2), (QFormat(14, 2), 2)),
        ),
        **{
            check_node: (
                "_linear_approx_fixed" if check_node == "linear-approx"
                else "_minsum_fixed",
                dict(check_node=check_node),
                # Messages as wide as the APP word: the two-smallest
                # sentinel (max_int + 1) sits right at the int16 edge.
                ((QFormat(15, 2), 0), (QFormat(16, 2), 0)),
            )
            for check_node in MINSUM_FAMILY
        },
    }
    WIDTHS = {"int16": np.int16, "int32": np.int32}

    def _boundary_config(self, family, width, **overrides):
        _, kwargs, formats = self.BOUNDARY_FAMILIES[family]
        qformat, extra = formats[list(self.WIDTHS).index(width)]
        config = DecoderConfig(
            qformat=qformat, app_extra_bits=extra, **kwargs, **overrides
        )
        bits = config.app_qformat.total_bits
        assert (bits <= INT16_APP_MAX_BITS) == (width == "int16")
        return config

    def _extreme_values(self, rng, shape, extremes, bound):
        """Half saturated extremes, half uniform in ``[-bound, bound]``."""
        picked = rng.choice(np.asarray(extremes), size=shape)
        uniform = rng.integers(-bound, bound + 1, size=shape)
        return np.where(rng.random(shape) < 0.5, picked, uniform)

    @pytest.mark.parametrize("batch", [3, TAKE_GATHER_MAX_BZ // 8 + 2])
    @pytest.mark.parametrize("width", ["int16", "int32"])
    @pytest.mark.parametrize("family", list(BOUNDARY_FAMILIES))
    def test_storage_boundary_layer_bit_identical(
        self, tiny_code, family, width, batch, body
    ):
        config = self._boundary_config(family, width)
        plan = DecodePlan(tiny_code)
        rng = np.random.default_rng(batch)
        app_max = config.app_qformat.max_int
        msg_max = config.qformat.max_int
        l_start = self._extreme_values(
            rng, (batch, tiny_code.n),
            (app_max, -app_max, msg_max, -msg_max, 0, 1, -1), app_max,
        )
        lam_start = self._extreme_values(
            rng, (batch, plan.total_blocks, tiny_code.z),
            (msg_max, -msg_max, 0, 1, -1), msg_max,
        )
        # ``L == Λ`` cancellations, signed and zero, in the first layer.
        first = plan.gather_indices[0]
        lam_start[:, 0, :4] = [msg_max, -msg_max, 5, -5]
        l_start[:, first[0, :4]] = lam_start[:, 0, :4]
        l_start[:, first[1, :2]] = 0
        lam_start[:, 1, :2] = 0

        selector = self.BOUNDARY_FAMILIES[family][0]
        fast = FastBackend(plan, config)
        if isinstance(selector, str):
            assert fast._kernel == getattr(fast, selector)
        else:
            assert isinstance(fast._kernel, selector)
        # The guard ROM on int16 state is the one cell the native body
        # serves; whole-iteration replays reach it there.
        assert fast.native_body == (
            body == "native" and family == "guard-rom" and width == "int16"
        )
        replays = []
        for backend in (ReferenceBackend(plan, config), fast):
            assert backend.work_dtype == self.WIDTHS[width]
            replays.append(
                self._replay_layers(backend, l_start, lam_start, whole=True)
            )
        (l_ref, lam_ref), (l_fast, lam_fast) = replays
        assert not np.array_equal(lam_fast, lam_start)
        assert np.abs(l_fast).max() <= app_max
        for got, want in ((l_fast, l_ref), (lam_fast, lam_ref)):
            assert got.dtype == want.dtype == self.WIDTHS[width]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", ["int16", "int32"])
    @pytest.mark.parametrize("family", list(BOUNDARY_FAMILIES))
    def test_storage_boundary_flooding_identical(self, tiny_code, family, width):
        results = []
        for backend in ("reference", "fast"):
            config = self._boundary_config(
                family, width, backend=backend, max_iterations=3,
                early_termination="none",
            )
            msg_max = config.qformat.max_int
            llr = self._extreme_values(
                np.random.default_rng(7), (4, tiny_code.n),
                (msg_max, -msg_max, 1, -1), msg_max,
            )
            decoder = FloodingDecoder(tiny_code, config)
            assert decoder.backend.work_dtype == self.WIDTHS[width]
            results.append(decoder.decode(llr))
        ref, fast = results
        assert np.array_equal(ref.bits, fast.bits)
        assert ref.llr.tobytes() == fast.llr.tobytes()
        assert np.array_equal(ref.iterations, fast.iterations)


class TestStorageWidth:
    def test_width_follows_the_app_word(self):
        code = get_code("802.16e:1/2:z24")
        plan = DecodePlan(code)
        for extra, dtype in ((2, np.int16), (7, np.int16), (8, np.int32)):
            config = DecoderConfig(qformat=QFormat(8, 2), app_extra_bits=extra)
            for backend_cls in (ReferenceBackend, FastBackend):
                assert backend_cls(plan, config).work_dtype == dtype
        assert ReferenceBackend(plan, DecoderConfig()).work_dtype == np.float64

    def test_fixed_decoders_of_one_format_share_guard_roms(self):
        config = DecoderConfig(backend="fast", qformat=QFormat(8, 2))
        one = LayeredDecoder(get_code("802.16e:1/2:z24"), config).backend
        two = LayeredDecoder(get_code("802.11n:1/2:z27"), config).backend
        assert one._rom_plus is two._rom_plus
        assert one._rom_minus is two._rom_minus
        assert not one._rom_plus.flags.writeable
        assert not one._rom_minus.flags.writeable


class TestSweepIntegration:
    def test_sweep_runs_the_selected_backend(self, small_code):
        link = repro.open(small_code, DecoderConfig(backend="fast"), seed=1)
        assert isinstance(link.decoder.backend, FastBackend)
        [point] = link.sweep([3.0], max_frames=20, batch_size=10)
        assert point.frames == 20

    def test_fast_and_reference_statistics_close(self, small_code):
        from repro.runtime import SweepEngine

        points = {}
        for backend in ("reference", "fast"):
            engine = SweepEngine(
                small_code, DecoderConfig(backend=backend), seed=5
            )
            points[backend] = engine.run_point(
                3.0, max_frames=40, batch_size=20
            )
        delta = abs(
            points["reference"].frame_errors - points["fast"].frame_errors
        )
        assert delta <= 3
