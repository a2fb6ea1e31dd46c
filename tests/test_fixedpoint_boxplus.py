"""Tests for the ⊞ / ⊟ kernels — the heart of the paper's SISO decoder."""

import importlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fixedpoint.boxplus import (
    DEFAULT_LLR_CLIP,
    GUARD_TABLE_CACHE_SIZE,
    PAIR_ROM_CACHE_SIZE,
    FixedBoxOps,
    boxminus,
    boxplus,
    boxplus_reduce,
    make_guard_tables,
    make_pair_roms,
)
from repro.fixedpoint.quantize import QFormat

# ``repro.fixedpoint.boxplus`` the attribute is the function; the memo
# lives in the module.
boxplus_module = importlib.import_module("repro.fixedpoint.boxplus")

finite_llr = st.floats(-20, 20).filter(lambda x: abs(x) > 1e-6)


def reference_boxplus(a, b):
    """Direct evaluation of log((1 + e^(a+b)) / (e^a + e^b))."""
    return np.log1p(np.exp(a + b)) - np.log(np.exp(a) + np.exp(b))


class TestBoxplusExact:
    @given(finite_llr, finite_llr)
    @settings(max_examples=100, deadline=None)
    def test_matches_log_formula(self, a, b):
        assert boxplus(a, b) == pytest.approx(reference_boxplus(a, b), abs=1e-9)

    @given(finite_llr, finite_llr)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        assert boxplus(a, b) == pytest.approx(boxplus(b, a))

    @given(finite_llr, finite_llr, finite_llr)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        left = boxplus(boxplus(a, b, clip=1e9), c, clip=1e9)
        right = boxplus(a, boxplus(b, c, clip=1e9), clip=1e9)
        assert left == pytest.approx(right, abs=1e-8)

    @given(finite_llr)
    @settings(max_examples=50, deadline=None)
    def test_zero_annihilates(self, a):
        assert boxplus(a, 0.0) == pytest.approx(0.0, abs=1e-12)

    @given(finite_llr, finite_llr)
    @settings(max_examples=50, deadline=None)
    def test_magnitude_never_exceeds_inputs(self, a, b):
        assert abs(boxplus(a, b)) <= min(abs(a), abs(b)) + 1e-12

    @given(finite_llr, finite_llr)
    @settings(max_examples=50, deadline=None)
    def test_sign_is_product_of_signs(self, a, b):
        result = boxplus(a, b)
        if abs(result) > 1e-9:
            assert np.sign(result) == np.sign(a) * np.sign(b)

    def test_clip_applies(self):
        assert abs(boxplus(1e3, 1e3, clip=10.0)) <= 10.0


class TestBoxminusExact:
    @given(finite_llr, finite_llr)
    @settings(max_examples=100, deadline=None)
    def test_inverts_boxplus(self, a, b):
        combined = boxplus(a, b, clip=1e6)
        recovered = boxminus(combined, b, clip=1e6)
        # Ill-conditioned when |combined| ~ |b| (recovered saturates).
        if abs(abs(combined) - abs(b)) > 1e-6 and abs(recovered) < 1e5:
            assert recovered == pytest.approx(a, abs=1e-5)

    def test_magnitude_at_least_min_input(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 5, 500)
        b = rng.normal(0, 5, 500)
        s = boxplus(a, b)
        out = boxminus(s, b)
        assert (np.abs(out) >= np.minimum(np.abs(s), np.abs(b)) - 1e-9).all()

    def test_equal_inputs_saturate(self):
        assert abs(boxminus(5.0, 5.0)) == pytest.approx(DEFAULT_LLR_CLIP)

    def test_zero_zero_is_zero(self):
        assert boxminus(0.0, 0.0) == pytest.approx(0.0)


class TestReduce:
    def test_reduce_matches_pairwise(self):
        rng = np.random.default_rng(1)
        msgs = rng.normal(0, 3, 7)
        expected = msgs[0]
        for m in msgs[1:]:
            expected = boxplus(expected, m)
        assert boxplus_reduce(msgs) == pytest.approx(expected)

    def test_reduce_axis(self):
        rng = np.random.default_rng(2)
        msgs = rng.normal(0, 3, (4, 5, 6))
        out = boxplus_reduce(msgs, axis=1)
        assert out.shape == (4, 6)

    def test_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            boxplus_reduce(np.zeros((0, 3)), axis=0)


class TestFixedOps:
    @pytest.fixture
    def ops(self):
        return FixedBoxOps(QFormat(8, 2))

    def test_error_bounded_by_lut_resolution(self, ops):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 4, 2000)
        b = rng.normal(0, 4, 2000)
        ai, bi = ops.qformat.quantize(a), ops.qformat.quantize(b)
        fixed = ops.qformat.dequantize(ops.boxplus(ai, bi))
        exact = boxplus(
            ops.qformat.dequantize(ai), ops.qformat.dequantize(bi)
        )
        assert np.abs(fixed - exact).max() <= 0.3  # ~1 LSB + LUT error

    def test_zero_annihilates_fixed(self, ops):
        a = np.array([40, -80, 127])
        assert (ops.boxplus(a, np.zeros(3, dtype=np.int32)) == 0).all()

    def test_boxminus_zero_zero(self, ops):
        assert ops.boxminus(np.array(0), np.array(0)) == 0

    def test_saturation(self, ops):
        out = ops.boxminus(np.array(127), np.array(127))
        assert abs(int(out)) <= 127

    def test_identity_element(self, ops):
        a = np.array([-50, 3, 120])
        out = ops.boxplus(a, np.full(3, ops.boxplus_identity, dtype=np.int32))
        # x ⊞ max == x up to LUT resolution (1 raw unit).
        assert np.abs(out - a).max() <= 1

    def test_reduce_fixed(self, ops):
        rng = np.random.default_rng(4)
        msgs = ops.qformat.quantize(rng.normal(0, 4, (6, 10)))
        out = ops.boxplus_reduce(msgs, axis=0)
        assert out.shape == (10,)
        expected = msgs[0].astype(np.int32)
        for i in range(1, 6):
            expected = ops.boxplus(expected, msgs[i])
        assert np.array_equal(out, expected)

    def test_signs_match_float(self, ops):
        rng = np.random.default_rng(5)
        a = ops.qformat.quantize(rng.normal(0, 6, 500))
        b = ops.qformat.quantize(rng.normal(0, 6, 500))
        fixed = ops.boxplus(a, b)
        exact = boxplus(ops.qformat.dequantize(a), ops.qformat.dequantize(b))
        strong = np.abs(exact) > 0.5
        assert (
            np.sign(fixed[strong]) == np.sign(exact[strong])
        ).all()


class TestGuardTableMemo:
    """The guard-table memo is a bounded LRU: a client cycling through
    accepted formats cannot grow a server without limit."""

    @pytest.fixture
    def cache(self, monkeypatch):
        cache = OrderedDict()
        monkeypatch.setattr(boxplus_module, "_GUARD_TABLE_CACHE", cache)
        return cache

    def test_cycling_formats_keeps_the_bound(self, cache):
        formats = [QFormat(bits, 2) for bits in range(4, 4 + GUARD_TABLE_CACHE_SIZE + 1)]
        first = make_guard_tables(formats[0], 2)
        for qformat in formats[1:]:
            make_guard_tables(qformat, 2)
            assert len(cache) <= GUARD_TABLE_CACHE_SIZE
        assert len(cache) == GUARD_TABLE_CACHE_SIZE
        # The least recently used format went first; a fresh request
        # rebuilds it (equal tables, a new object).
        assert (4, 2, 2) not in cache
        rebuilt = make_guard_tables(formats[0], 2)
        assert rebuilt is not first
        assert np.array_equal(rebuilt.f, first.f)
        assert len(cache) == GUARD_TABLE_CACHE_SIZE

    def test_a_hit_refreshes_recency(self, cache):
        formats = [QFormat(bits, 2) for bits in range(4, 4 + GUARD_TABLE_CACHE_SIZE)]
        tables = [make_guard_tables(q, 2) for q in formats]
        assert make_guard_tables(formats[0], 2) is tables[0]
        make_guard_tables(QFormat(12, 2), 2)
        assert (4, 2, 2) in cache
        assert (5, 2, 2) not in cache

    def test_fold_roms_are_shared_read_only_and_pre_scaled(self, cache):
        tables = make_guard_tables(QFormat(6, 2), 2)
        plus, minus = tables.fold_roms
        assert tables.fold_roms[0] is plus
        assert make_guard_tables(QFormat(6, 2), 2).fold_roms[1] is minus
        assert not plus.flags.writeable and not minus.flags.writeable
        assert plus.dtype == np.int32 and minus.dtype == np.int16
        # ⊞ entries are next states stored as their own row offsets.
        width = 2 * tables.max_int + 1
        assert (plus % width == 0).all()
        states = plus // width - tables.state_max
        assert np.abs(states).max() <= tables.state_max
        assert np.abs(minus).max() <= tables.max_int


class TestPairRomMemo:
    """The guard-0 pairwise ROMs are built once per format and shared
    by every decoder of it, in a bounded LRU."""

    @pytest.fixture
    def cache(self, monkeypatch):
        cache = OrderedDict()
        monkeypatch.setattr(boxplus_module, "_PAIR_ROM_CACHE", cache)
        return cache

    def test_decoders_of_one_format_share_read_only_roms(self, cache, tiny_code):
        from repro.decoder import DecoderConfig, LayeredDecoder

        config = DecoderConfig(
            backend="fast", qformat=QFormat(8, 2), siso_guard_bits=0
        )
        first, second = (
            LayeredDecoder(tiny_code, config).backend for _ in range(2)
        )
        assert first._kernel == first._bp_sumsub_fixed_rom
        assert first._rom_plus is second._rom_plus
        assert first._rom_minus is second._rom_minus
        assert not first._rom_plus.flags.writeable
        assert not first._rom_minus.flags.writeable
        assert list(cache) == [(8, 2)]

    def test_entries_are_the_pairwise_ops(self, cache):
        qformat = QFormat(6, 2)
        ops = FixedBoxOps(qformat)
        plus, minus = make_pair_roms(qformat)
        m = qformat.max_int
        width = 2 * m + 1
        a, b = np.divmod(np.arange(width * width), width)
        assert np.array_equal(plus, ops.boxplus(a - m, b - m) + m)
        assert np.array_equal(minus, ops.boxminus(a - m, b - m))
        assert plus.dtype == minus.dtype == np.int16

    def test_cycling_formats_keeps_the_bound(self, cache):
        formats = [QFormat(bits, 2) for bits in range(4, 4 + PAIR_ROM_CACHE_SIZE + 1)]
        first = make_pair_roms(formats[0])
        for qformat in formats[1:]:
            make_pair_roms(qformat)
            assert len(cache) <= PAIR_ROM_CACHE_SIZE
        assert len(cache) == PAIR_ROM_CACHE_SIZE
        assert (4, 2) not in cache
        rebuilt = make_pair_roms(formats[0])
        assert rebuilt[0] is not first[0]
        assert np.array_equal(rebuilt[0], first[0])
        # A hit refreshes recency: the oldest entry, once hit, survives
        # the next insertion and the next-oldest goes instead.
        oldest, next_oldest = list(cache)[:2]
        assert make_pair_roms(QFormat(*oldest)) is cache[oldest]
        make_pair_roms(QFormat(7, 3))
        assert oldest in cache and next_oldest not in cache
