"""Vectorized numpy backend: fused flat-index kernels for every algorithm.

Where the :class:`~repro.decoder.backends.reference.ReferenceBackend`
pays per-edge Python-level kernel calls (BP) or an ``argsort`` over the
degree axis (min-sum family), this backend restructures the same math
into a handful of full-width ``(B, d, z)`` passes.  Kernel selection is
routed through :data:`~repro.decoder.backends.base.KERNEL_TABLE`; every
slot below is bit-identical to the reference in fixed point and exactly
equal (same float ops on the same values) in float, except the Φ-domain
BP float kernel whose documented contract is decision agreement.

**The layer update** (:meth:`FastBackend.update_layer`) is one body for
every kernel and both datapaths: gather ``λ = L - Λ``, saturate,
zero-break, run the check kernel, add ``Λ'`` back and write the APP
values out.  How the ``d`` rotated blocks of a layer move depends on
the batch.  Up to :data:`TAKE_GATHER_MAX_BZ` (``B·z <= 1024``) one
``take`` gathers them and one scatter writes them back, through the
plan's flat indices offset per frame row.  Larger batches use ``2·d``
contiguous slice copies each way, the software form of the chip's
circular shifter.  The paths move the same bytes; the crossover was
measured on a 2-core x86 host, where the index path wins by 30-45% at
``B·z = 96`` and loses from about ``B·z = 1536``.  At serving batch
sizes the cost of a layer is numpy call overhead, not arithmetic, so
the body also counts its calls: one scratch lookup per stage
(:meth:`~repro.decoder.plan.DecodePlan.scratch_set`), the
``ndarray.clip`` method rather than the ``np.clip`` wrapper (and
rather than ``maximum`` + ``minimum``, two passes that cost 2-5× at
large batches), no APP clip where it provably cannot bite, and a
zero-break whose ``all()`` test also spares the Φ kernel its erasure
scan.

**The native iteration body.** The kernel stock Q8.2 configs select
(guarded BP sum-subtract over the shared guard ROMs, int16 state) also
has a C body, :file:`guard_rom.c`, that runs one whole layered
iteration — every layer, every frame row — in one call
(:meth:`FastBackend.iterate`).  It performs the numpy body's operations
in the same widths, so its outputs are byte-identical; it walks one
frame row at a time through all layers, which keeps that row's APP
and Λ memories in cache, and interleaves the ``z`` lanes of each ROM
fold step, whose ``d - 1`` table lookups are otherwise one dependent
chain.  Measured on a 2-core AVX-512 x86 host, per iteration: 1.6-2.8×
the numpy body at sweep batch sizes (WiMax z96 B=128-256, WiFi z81
B=64, NR BG1 z384 B=12, DMB-T z127 B=40; ~5-7 ns per edge) and 7-24×
at B=1-8, where one ctypes call replaces a few hundred numpy calls.
The body is compiled on first use with the system ``gcc`` and cached
(:mod:`~repro.decoder.backends.native`); without a compiler, or for
any other kernel, dtype or array layout, the numpy layer body runs.
:meth:`FastBackend.update_layer` stays the numpy body for callers that
drive single layers.

**Storage width.** Fixed-point state is stored as the base class's
:attr:`~repro.decoder.backends.base.DecoderBackend.work_dtype` says:
int16 for APP words up to 15 bits (Q8.2 is 10), int32 above.  The
layer body's gather, ``L - Λ``, saturation, zero-break, ``λ + Λ'``
and write-back all run in the storage width, which halves the bytes a
Q8.2 layer moves; the clip bounds are typed like the state so no pass
is promoted.  Everything that forms an *index* or a *product* (ROM
offsets, fold states, the linear-approx sums) runs in int32 or int64
through explicitly typed scalars: under NEP 50 a Python ``int``
operand takes the array's dtype, so ``int16_array * G`` would compute,
and overflow, in int16.

- **BP sum-subtract, fixed point** — the guarded ⊞/⊟ fold of
  :class:`~repro.decoder.siso.GuardedFixedBPSumSubKernel` is a pure
  function of the running fold state and one bounded message, so it is
  *compiled into a state×input ROM*, once per format and shared by
  every decoder of it
  (:attr:`~repro.fixedpoint.boxplus.GuardTables.fold_roms`).  The ⊞
  ROM stores each next state *pre-scaled* to its row offset
  ``(state + S)·W`` (int32), so a fold step is one ``np.add`` of the
  biased message ``b + m`` and one ``take`` into scratch, and all ``d``
  ⊟ outputs (already rounded back to the message format) come from one
  add and one ``take``.  Formats whose ROM would exceed
  :data:`GUARD_ROM_MAX_ENTRIES` fall back to the (still vectorized)
  guarded table fold.  ``siso_guard_bits=0`` keeps the seed-era
  single-resolution pairwise ROMs (shared per format, like the guard
  ROMs: :func:`~repro.fixedpoint.boxplus.make_pair_roms`) /
  flat-correction fold.
- **BP sum-subtract, float** — the sequential ⊞ fold is replaced by the
  Φ-domain "tanh rule": one transform ``Φ(|λ|)``, exclusive
  prefix/suffix cumulative sums along the degree axis, one inverse
  transform, one sign-parity pass.  Up to :data:`PHI_ACCUMULATE_MAX_BZ`
  (``B·z <= 1024``) the sums are two ``np.add.accumulate`` calls;
  larger batches form the same sums in the same order with one
  ``np.add`` per degree row, byte-identical and several times cheaper
  than ``accumulate`` along the strided axis.  By default the whole
  kernel runs in **float32** (``work_dtype``) for memory bandwidth;
  ``DecoderConfig(fast_exact=True)`` keeps float64 (~1e-8/call).
  A float32 APP cannot hold an erasure placeholder next to a check
  message (``1e-9 + Λ`` rounds to ``Λ``), so the next ``L - Λ`` comes
  out exactly 0 — which the kernel, like the reference, treats as an
  absorbing erasure.  The float32 path therefore zero-breaks its
  message port as fixed point does: a zero with ``Λ ≠ 0`` becomes
  ``±finfo(float32).tiny`` signed like ``Λ``
  (:func:`~repro.decoder.backends.base.break_cancelled_float_messages`);
  a genuine zero input (``L = Λ = 0``) stays absorbing.
- **Min-sum family (plain / normalized / offset), float and fixed** —
  the reference kernel's ``argsort`` over the degree axis is replaced
  by a two-smallest reduction (one ``argmin``, one masked ``min``) plus
  the shared sign-parity pass; the correction (normalization / offset)
  is applied to the two scalar minima *before* the per-edge selection,
  which is elementwise-equal to correcting after.  Exactly equal to the
  reference kernel outputs in both datapaths.
- **Linear-approx** — same two-smallest machinery extended to the third
  minimum, with the piecewise-linear ⊞ correction of the reference
  kernel evaluated on the selected pairs.

A note on the design: an earlier draft swapped the float transcendentals
for piecewise-linear correction LUTs (mirroring the fixed datapath), but
on current numpy/libm a table gather costs *more* than the vectorized
``log1p``/``expm1`` it replaces (~2.5 ns/elt vs ~1-4 ns/elt measured),
so the win comes from collapsing the pass count, not from avoiding the
transcendentals.

BP forward-backward (both datapaths) reuses the reference kernels via
the table fallback and still benefits from the fused flat-index layer
update.
"""

from __future__ import annotations

import numpy as np

from repro.decoder.backends import native
from repro.decoder.backends.base import (
    DecoderBackend,
    break_cancelled_float_messages,
    break_zero_messages,
)
from repro.decoder.siso import GuardedFixedBPSumSubKernel, LinearApproxKernel
from repro.fixedpoint.boxplus import (
    FixedBoxOps,
    make_guard_tables,
    make_pair_roms,
    phi_transform,
)

#: Widest message format whose seed-era (guard 0) pairwise ⊞/⊟ ROMs are
#: precompiled; the two tables hold ``(2^b - 1)^2`` int16 entries each
#: (≈ 2 MiB apiece at 10 bits, ≈ 127 KiB at the paper's 8).
PAIR_TABLE_MAX_BITS = 10

#: Entry budget for the guarded state×input ROMs (an int32 ⊞ table of
#: pre-scaled states and an int16 ⊟ table, shared per format).  Q8.2
#: with 2 guard bits needs ~259k entries (1 MiB + 0.5 MiB); wider
#: formats fall back to the guarded table fold.  The budget also keeps
#: every ROM index below 2^20, well inside int32.
GUARD_ROM_MAX_ENTRIES = 1 << 20

#: Largest ``B·z`` (frames × lifting size) whose layer update gathers
#: with one ``take`` and writes back with one scatter over the layer's
#: APP indices; larger batches use ``2·d`` contiguous slice copies per
#: direction.  Both move the same values, so the choice is pure cost and
#: ``B·z`` is the right axis: the slice path pays a fixed ~4·d calls,
#: the index path a per-element indexing premium over ``B·d·z``
#: elements, and ``d`` cancels.  Measured on a 2-core x86 host (numpy
#: 2.4, NR BG1/BG2, WiMax z24/z96, float and Q8.2): the index path wins
#: by 30-45% at ``B·z`` = 96, 10-18% at 384, 1-8% at 768-1024, and
#: loses from ~1536 (by 5-10% at 2048-3072).
TAKE_GATHER_MAX_BZ = 1024

#: Largest ``B·z`` whose float Φ kernel forms its exclusive prefix and
#: suffix sums with two ``np.add.accumulate`` calls along the degree
#: axis; larger batches use ``2·(d - 1)`` row-wise calls (one copy and
#: ``d - 2`` ``np.add`` per direction) that perform the same float
#: additions in the same order, so the outputs are byte-identical.
#: ``accumulate`` along the strided middle axis costs ~7-10 ns per
#: element, a row add well under one, but each row call pays a fixed
#: 1-3 µs, so the row path loses at small ``B·z`` and more so at high
#: degree.  Measured on a 2-core x86 host
#: (numpy 2.4, float32 and float64, d = 3-19): the row path runs at
#: 0.3-0.7× at ``B·z`` = 96-256 for d >= 6, 0.6-1.4× at 384, 1.0-4× at
#: 768, 1.3-6× at 1152 and 2-17× from 3072 up.  The crossover sits at
#: the gather's, so the small batches a server decodes keep one path.
PHI_ACCUMULATE_MAX_BZ = 1024

#: Φ pole freeze points: inputs below this are treated as this (see
#: :func:`~repro.fixedpoint.boxplus.phi_transform`).  The smallest
#: normal of each dtype keeps ``2 / expm1(pole)`` finite; it only
#: guards true zeros (a zero channel LLR, or a check whose every Φ
#: underflowed).  The *accuracy* ceiling of the kernel is set
#: separately by the cancellation floor below, not by this pole.
PHI_POLE_F64 = float(np.finfo(np.float64).tiny)
PHI_POLE_F32 = float(np.finfo(np.float32).tiny)


def _phi_layout(degree, width, dtype):
    """Scratch layout of the Φ kernel: Φ/extrinsic, zero-padded prefix
    and suffix sums, and a sign-bit mask the width of ``dtype``."""
    dtype = np.dtype(dtype)
    return (
        ((degree, width), dtype),
        ((degree + 1, width), dtype),
        ((degree + 1, width), dtype),
        ((degree, width), np.dtype(f"u{dtype.itemsize}")),
    )


def _rom_layout(degree, width):
    """Scratch layout of the guard-ROM fold: biased messages (reused as
    the ⊟ indices), fold state, fold index and the ⊟ output."""
    return (
        ((degree, width), np.int32),
        ((width,), np.int32),
        ((width,), np.int32),
        ((degree, width), np.int16),
    )


def _check_degree(lam):
    if lam.shape[1] < 2:
        raise ValueError("check-node degree must be >= 2")


class FastBackend(DecoderBackend):
    """Fused flat-index numpy backend (see module docstring)."""

    name = "fast"

    def __init__(self, plan, config):
        super().__init__(plan, config)
        self._fixed = config.is_fixed_point
        if self._fixed:
            self._max_int = np.int32(config.qformat.max_int)
            # Clip bounds typed like the stored state, so the saturating
            # passes run in the storage width (an int32 bound would
            # promote an int16 pass to int32 and cast it back).
            work = np.dtype(self.work_dtype).type
            msg_clip = work(config.qformat.max_int)
            app_clip = work(config.app_qformat.max_int)
        else:
            self._msg_clip = msg_clip = float(config.llr_clip)
            app_clip = float(config.effective_app_clip)
        self._msg_low, self._msg_high = -msg_clip, msg_clip
        self._app_low, self._app_high = -app_clip, app_clip
        self._phi_layouts = {}
        self._kernel = self._select_kernel()
        # Only the Φ kernel has an erasure scan for the zero-break's
        # verdict to skip.
        self._erasure_aware = self._kernel == self._bp_sumsub_phi
        if self._fixed:
            self._break_zeros = break_zero_messages
        elif self.work_dtype == np.float32:
            self._break_zeros = break_cancelled_float_messages
        else:
            self._break_zeros = None
        dtype = np.dtype(self.work_dtype)
        # Every check kernel returns messages within the message clip, so
        # |λ + Λ'| <= 2·clip (exact in integers, and float rounding is
        # monotone with 2·clip representable): the APP clip can only bite
        # when its bound is tighter than that.
        work = dtype.type
        self._clip_app = 2 * float(work(msg_clip)) > float(work(app_clip))
        self._degrees = [int(d) for d in plan.layer_degrees]
        # Per degree, the scratch-set tag and layout of the λ buffer.
        self._lam_sets = {
            d: (("lam", d, dtype.char), (((d, plan.z), dtype),))
            for d in plan.degree_buckets
        }
        rows = TAKE_GATHER_MAX_BZ // plan.z
        self._row_offsets = np.arange(rows, dtype=np.intp)[:, None] * plan.n
        self._native = None
        # Degree-1 layers stay on the numpy body, whose kernels reject
        # them.
        if (
            self._kernel == self._bp_sumsub_fixed_guard_rom
            and self.work_dtype == np.int16
            and min(self._degrees) >= 2
        ):
            self._native = native.library()
        if self._native is not None:
            self._bind_native()

    @property
    def native_body(self) -> bool:
        """Whether :meth:`iterate` runs the compiled C body on int16
        state (see the module docstring)."""
        return self._native is not None

    def _bind_native(self) -> None:
        """Fix every argument of the native iteration body that does not
        change between calls (see :meth:`iterate`)."""
        plan = self.plan
        z = plan.z
        blocks = [pair for ranges in plan.block_ranges for pair in ranges]
        # The tables must outlive the backend's calls: keep them here.
        self._native_tables = tables = (
            plan.layer_degrees,
            np.array([start for start, _ in blocks], dtype=np.int32),
            np.array([shift for _, shift in blocks], dtype=np.int32),
            self._rom_plus,
            self._rom_minus,
        )
        msg_max = int(self._max_int)
        # 32768 is the identity clamp on int16 values.
        app_max = int(self._app_high) if self._clip_app else 1 << 15
        self._native_geometry = (plan.n, plan.total_blocks, z, plan.num_layers)
        self._native_constants = (
            *(table.ctypes.data for table in tables),
            msg_max, app_max,
            int(self._rom_first_scale), int(self._rom_first_bias),
        )
        words = (max(self._degrees) + 1) * z
        self._native_scratch = (("native", words), (((words,), np.int32),))

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def update_layer(self, l_messages, lambdas, layer_pos):
        plan = self.plan
        batch = l_messages.shape[0]
        degree = self._degrees[layer_pos]
        old = lambdas[:, plan.lambda_slices[layer_pos], :]
        # One buffer carries λ through the kernel and then the APP
        # write-back (λ + Λ').
        (lam,) = plan.scratch_set(*self._lam_sets[degree], batch)
        if batch * plan.z <= TAKE_GATHER_MAX_BZ and l_messages.flags.c_contiguous:
            # Small batches: one ``take`` and one scatter over the
            # layer's APP indices, offset per frame row — a fixed handful
            # of calls where the slice copies below make 4·d.
            index = np.add(
                self._row_offsets[:batch], plan.flat_indices[layer_pos]
            )
            flat_app = l_messages.reshape(-1)
            flat_lam = lam.reshape(batch, -1)
            flat_app.take(index, out=flat_lam, mode="clip")
        else:
            # Large batches: the block indices of one layer are cyclic
            # rotations of contiguous APP ranges (the circular shifter
            # of Fig. 7), so the gather and the write-back are plain
            # slice copies — far cheaper than fancy indexing once the
            # copies, not the calls, dominate.
            flat_app = None
            ranges = plan.block_ranges[layer_pos]
            z = plan.z
            for i, (start, shift) in enumerate(ranges):
                split = z - shift
                lam[:, i, :split] = l_messages[:, start + shift : start + z]
                lam[:, i, split:] = l_messages[:, start : start + shift]
        np.subtract(lam, old, out=lam)
        lam.clip(self._msg_low, self._msg_high, out=lam)
        # The message port's zero-break, whose ``all()`` test also tells
        # the Φ kernel whether it can skip its erasure scan.
        zero_free = False
        if self._break_zeros is not None:
            zero_free = lam.all()
            if not zero_free:
                self._break_zeros(lam, old)
        if self._erasure_aware:
            new = self._kernel(lam, zero_free)
        else:
            new = self._kernel(lam)
        np.add(lam, new, out=lam)
        if self._clip_app:
            lam.clip(self._app_low, self._app_high, out=lam)
        if flat_app is not None:
            flat_app[index] = flat_lam
        else:
            for i, (start, shift) in enumerate(ranges):
                split = z - shift
                l_messages[:, start + shift : start + z] = lam[:, i, :split]
                l_messages[:, start : start + shift] = lam[:, i, split:]
        old[...] = new

    def iterate(self, l_messages, lambdas):
        """One layered iteration; native when the arrays allow it.

        The guard-ROM kernel on int16 state runs the whole iteration —
        every layer, every frame row — in one call of the compiled body
        (:mod:`~repro.decoder.backends.native`), byte-identical to the
        layer loop.  Arrays the C side cannot take as they are (another
        dtype, a strided or read-only view, a shape that does not match
        the plan) go through the numpy layer loop, which treats them as
        it always has.
        """
        function = self._native
        if function is None:
            return super().iterate(l_messages, lambdas)
        n, blocks, z, _ = self._native_geometry
        # ``carray``: C-contiguous, aligned and writeable.
        if not (
            l_messages.dtype == lambdas.dtype == np.int16
            and l_messages.flags.carray
            and lambdas.flags.carray
            and l_messages.shape[1:] == (n,)
            and lambdas.shape == (l_messages.shape[0], blocks, z)
        ):
            return super().iterate(l_messages, lambdas)
        (scratch,) = self.plan.scratch_set(*self._native_scratch, 1)
        function(
            l_messages.ctypes.data, lambdas.ctypes.data, l_messages.shape[0],
            *self._native_geometry, *self._native_constants,
            scratch.ctypes.data,
        )

    def compute_check(self, lam_vc, layer_pos):
        return self._kernel(lam_vc)

    # ------------------------------------------------------------------
    # Kernel slot factories (see KERNEL_TABLE in base.py)
    # ------------------------------------------------------------------
    def _make_bp_sumsub_fixed(self):
        config = self.config
        ops = FixedBoxOps(config.qformat)
        if config.siso_guard_bits > 0:
            tables = make_guard_tables(config.qformat, config.siso_guard_bits)
            entries = (2 * tables.state_max + 1) * (2 * tables.max_int + 1)
            if entries <= GUARD_ROM_MAX_ENTRIES:
                self._rom_plus, self._rom_minus = tables.fold_roms
                width = 2 * tables.max_int + 1
                # The first fold state as a ROM row offset,
                # (λ0·G + S)·W = λ0·(G·W) + S·W; int32 scalars keep both
                # products in int32 whatever the storage width of λ.
                self._rom_first_scale = np.int32(tables.factor * width)
                self._rom_first_bias = np.int32(tables.state_max * width)
                return self._bp_sumsub_fixed_guard_rom
            self._guard_kernel = GuardedFixedBPSumSubKernel(tables)
            return self._guard_kernel
        # siso_guard_bits == 0: the seed-era single-resolution fold.
        self._corr_plus, self._corr_minus = ops.flat_tables()
        if config.qformat.total_bits <= PAIR_TABLE_MAX_BITS:
            self._rom_plus, self._rom_minus = make_pair_roms(config.qformat)
            self._rom_width = np.int32(2 * config.qformat.max_int + 1)
            return self._bp_sumsub_fixed_rom
        return self._bp_sumsub_fixed_flat

    def _make_bp_sumsub_float(self):
        if self.config.fast_exact:
            self._phi_pole = np.float64(PHI_POLE_F64)
        else:
            self.work_dtype = np.float32
            self._phi_pole = np.float32(PHI_POLE_F32)
        # Every Φ output is at most Φ(pole) (≈ 87.3 in float32): the
        # output clip is an identity when the message clip sits above
        # that with room for the transcendentals' rounding.
        pole = np.full(1, self._phi_pole)
        peak = float(phi_transform(pole, self._phi_pole)[0])
        self._clip_phi = 2 * peak > float(pole.dtype.type(self._msg_high))
        return self._bp_sumsub_phi

    def _make_minsum_fixed(self):
        return self._minsum_fixed

    def _make_minsum_float(self):
        return self._minsum_float

    def _make_linear_approx_fixed(self):
        self._linear_c0 = np.int64(
            np.rint(LinearApproxKernel.C0 * self.config.qformat.scale)
        )
        return self._linear_approx_fixed

    def _make_linear_approx_float(self):
        return self._linear_approx_float

    # ------------------------------------------------------------------
    # Fixed point, guarded BP: pre-scaled state×input ROM
    # ------------------------------------------------------------------
    def _bp_sumsub_fixed_guard_rom(self, lam):
        """The guarded fold over the shared ROMs of
        :attr:`~repro.fixedpoint.boxplus.GuardTables.fold_roms`.

        The fold state is carried as its ROM row offset ``(state + S)·W``
        and the ⊞ ROM stores next states in the same form, so each of
        the ``d - 1`` fold steps is one ``np.add`` of the biased message
        and one ``take`` into scratch, and all ``d`` ⊟ indices are one
        add.  Every index is in range by construction, so the ``take``
        mode only picks the bounds handling: ``wrap`` measured ~5%
        cheaper than ``clip``, and ``raise`` buffers its output.  The
        returned messages live in plan scratch, valid until the next
        call.
        """
        _check_degree(lam)
        batch, degree, z = lam.shape
        offset, state, index, out = self.plan.scratch_set(
            ("grom", degree, z), _rom_layout(degree, z), batch
        )
        # Biased messages b + m: the ROM column of every edge.
        np.add(lam, self._max_int, out=offset)
        np.multiply(lam[:, 0, :], self._rom_first_scale, out=state)
        state += self._rom_first_bias
        rom_plus = self._rom_plus
        for i in range(1, degree):
            np.add(state, offset[:, i, :], out=index)
            rom_plus.take(index, out=state, mode="wrap")
        np.add(state[:, None, :], offset, out=offset)
        self._rom_minus.take(offset, out=out, mode="wrap")
        return out

    # ------------------------------------------------------------------
    # Fixed point, guard 0, narrow formats: seed-era pairwise ROM
    # ------------------------------------------------------------------
    def _bp_sumsub_fixed_rom(self, lam):
        _check_degree(lam)
        m = self._max_int
        width = self._rom_width
        degree = lam.shape[1]
        scratch = self.plan.scratch
        offset = scratch("rom_lam_off", lam.shape, np.int32)
        np.add(lam, m, out=offset)
        # ``total`` is carried as a ROM row offset (value + m).
        batch, _, z = lam.shape
        index = scratch("rom_index", (batch, z), np.int32)
        total = offset[:, 0, :]
        for i in range(1, degree):
            np.multiply(total, width, out=index)
            index += offset[:, i, :]
            total = self._rom_plus.take(index)
        wide = scratch("rom_wide", lam.shape, np.int32)
        np.multiply(total[:, None, :], width, out=wide)
        wide += offset
        return self._rom_minus.take(wide)

    # ------------------------------------------------------------------
    # Fixed point, guard 0, wide formats: fold over flat tables
    # ------------------------------------------------------------------
    def _fixed_combine(self, a, b, table):
        abs_a = np.abs(a)
        abs_b = np.abs(b)
        magnitude = np.minimum(abs_a, abs_b)
        magnitude += table[abs_a + abs_b]
        magnitude -= table[np.abs(abs_a - abs_b)]
        np.maximum(magnitude, 0, out=magnitude)
        out = np.sign(a) * np.sign(b) * magnitude
        np.clip(out, -self._max_int, self._max_int, out=out)
        return out

    def _bp_sumsub_fixed_flat(self, lam):
        _check_degree(lam)
        total = lam[:, 0, :]
        for i in range(1, lam.shape[1]):
            total = self._fixed_combine(total, lam[:, i, :], self._corr_plus)
        return self._fixed_combine(total[:, None, :], lam, self._corr_minus)

    # ------------------------------------------------------------------
    # Float: single-pass Φ-domain tanh rule
    # ------------------------------------------------------------------
    def _bp_sumsub_phi(self, lam, zero_free=False):
        _check_degree(lam)
        batch, degree, width = lam.shape
        tag = ("phi", degree, width, lam.dtype.char)
        layout = self._phi_layouts.get(tag)
        if layout is None:
            layout = self._phi_layouts[tag] = _phi_layout(
                degree, width, lam.dtype
            )
        phi, prefix, suffix, flip = self.plan.scratch_set(tag, layout, batch)
        pole = self._phi_pole
        # Φ(x) = log1p(2 / expm1(max(x, pole))), as in
        # :func:`~repro.fixedpoint.boxplus.phi_transform`, inlined so
        # both transforms share one errstate (expm1 overflow is Φ = 0).
        np.abs(lam, out=phi)
        np.maximum(phi, pole, out=phi)
        with np.errstate(over="ignore"):
            np.expm1(phi, out=phi)
            np.divide(2.0, phi, out=phi)
            np.log1p(phi, out=phi)
            # The exclusive Φ-sum is formed from prefix + suffix
            # cumulative sums rather than ``Σ Φ - Φ_i``: the subtraction
            # cancels catastrophically when edge i dominates the sum (one
            # weak edge among saturated ones — exactly the extrinsic that
            # matters), while the two-sided form never subtracts at all.
            # Row 0 of ``prefix`` and row ``degree`` of ``suffix`` are
            # never written, so they stay the zero pads of the
            # exclusive sums.
            if batch * width > PHI_ACCUMULATE_MAX_BZ:
                # Large batches: the same sums in the same order, one
                # contiguous row at a time (``prefix[d]`` and
                # ``suffix[0]`` are never read, so they are skipped).
                prefix[:, 1] = phi[:, 0]
                for i in range(1, degree - 1):
                    np.add(prefix[:, i], phi[:, i], out=prefix[:, i + 1])
                suffix[:, degree - 1] = phi[:, degree - 1]
                for i in range(degree - 2, 0, -1):
                    np.add(suffix[:, i + 1], phi[:, i], out=suffix[:, i])
            else:
                np.add.accumulate(phi, axis=1, out=prefix[:, 1:])
                np.add.accumulate(
                    phi[:, ::-1], axis=1, out=suffix[:, -2::-1]
                )
            np.add(prefix[:, :-1], suffix[:, 1:], out=phi)
            np.maximum(phi, pole, out=phi)
            np.expm1(phi, out=phi)
            np.divide(2.0, phi, out=phi)
            np.log1p(phi, out=phi)
        # Extrinsic sign = own sign XOR the check's sign parity, applied
        # by flipping the sign bit of the (non-negative) magnitude.
        np.less(lam, 0, out=flip)
        parity = np.bitwise_xor.reduce(flip, axis=1, keepdims=True)
        np.bitwise_xor(flip, parity, out=flip)
        np.left_shift(flip, 8 * flip.itemsize - 1, out=flip)
        bits = phi.view(flip.dtype)
        np.bitwise_xor(bits, flip, out=bits)
        if self._clip_phi:
            phi.clip(self._msg_low, self._msg_high, out=phi)
        # The reference ⊞/⊟ recursion propagates sign(0) = 0: one exactly
        # zero message (an erasure) zeroes every output of the check.
        # Reproduce that so zero inputs cannot flip decisions between
        # backends.
        if not zero_free and not lam.all():
            erased = (lam == 0).any(axis=1, keepdims=True)
            phi[np.broadcast_to(erased, phi.shape)] = 0
        return phi

    # ------------------------------------------------------------------
    # Min-sum family: two-smallest reduction + sign parity
    # ------------------------------------------------------------------
    def _two_smallest(self, lam, sentinel):
        """First-argmin, two smallest magnitudes, and the masked buffer."""
        scratch = self.plan.scratch
        magnitude = scratch("ms_mag", lam.shape, lam.dtype)
        np.abs(lam, out=magnitude)
        amin = magnitude.argmin(axis=1)[:, None, :]
        min1 = np.take_along_axis(magnitude, amin, axis=1)
        masked = scratch("ms_masked", lam.shape, lam.dtype)
        np.copyto(masked, magnitude)
        np.put_along_axis(masked, amin, sentinel, axis=1)
        min2 = masked.min(axis=1, keepdims=True)
        return amin, min1, min2, masked

    def _minsum_minima(self, lam, big):
        """Tie-aware two smallest magnitudes, argmin- and mask-op-free.

        Returns ``(eq, min1, min2)`` where ``eq`` marks every position
        holding the minimum.  When the minimum is repeated, the
        reference semantics make the second-smallest equal the smallest,
        so the per-edge selection never needs the argmin *index* — only
        the equality mask — which is value-identical to the reference's
        first-argmin scatter in both the unique and the tied case.
        Avoiding ``argmin`` (strided-axis, slower than every reduction
        here combined) and masked ufuncs (``where=`` costs ~10× a plain
        pass) is what makes this kernel fast.  ``big`` is a finite
        push-out added to the minimum positions before the second
        reduction; adding ``0`` elsewhere is exact in both datapaths.
        """
        scratch = self.plan.scratch
        magnitude = scratch("ms_mag", lam.shape, lam.dtype)
        np.abs(lam, out=magnitude)
        min1 = magnitude.min(axis=1, keepdims=True)
        eq = scratch("ms_eq", lam.shape, np.bool_)
        np.equal(magnitude, min1, out=eq)
        tie = eq.sum(axis=1, keepdims=True) > 1
        magnitude += np.multiply(eq, magnitude.dtype.type(big))
        min2 = magnitude.min(axis=1, keepdims=True)
        np.copyto(min2, min1, where=tie)
        return eq, min1, min2

    def _select_and_sign(self, lam, eq, at_min, elsewhere):
        """Per-edge selection + extrinsic sign, in plain full-width passes.

        Fixed point selects arithmetically
        (``elsewhere + eq * (at_min - elsewhere)``, exact for integers);
        float uses one ``np.where`` (the arithmetic form would not be
        exact).  The extrinsic sign (own sign × total sign parity) is
        applied by multiplying with ``1 - 2*flip`` — exact ``±1`` in
        either dtype — instead of a masked negation.
        """
        scratch = self.plan.scratch
        dtype = lam.dtype
        if self._fixed:
            out = scratch("ms_out", lam.shape, dtype)
            np.multiply(eq, at_min - elsewhere, out=out)
            out += elsewhere
        else:
            out = np.where(eq, at_min, elsewhere)
        negative = scratch("ms_neg", lam.shape, np.bool_)
        np.less(lam, 0, out=negative)
        odd = np.bitwise_xor.reduce(negative, axis=1, keepdims=True)
        np.bitwise_xor(negative, odd, out=negative)
        sign = scratch("ms_sign", lam.shape, dtype)
        np.multiply(negative, dtype.type(-2), out=sign)
        sign += dtype.type(1)
        np.multiply(out, sign, out=out)
        return out

    def _minsum_float(self, lam):
        _check_degree(lam)
        config = self.config
        eq, min1, min2 = self._minsum_minima(lam, np.finfo(lam.dtype).max / 2)
        if config.check_node == "normalized-minsum":
            min1 = min1 * config.normalization
            min2 = min2 * config.normalization
        elif config.check_node == "offset-minsum":
            min1 = np.maximum(min1 - config.offset, 0)
            min2 = np.maximum(min2 - config.offset, 0)
        return self._select_and_sign(lam, eq, min2, min1).astype(
            np.float64, copy=False
        )

    def _minsum_fixed(self, lam):
        _check_degree(lam)
        config = self.config
        qformat = config.qformat
        eq, min1, min2 = self._minsum_minima(lam, qformat.max_int + 1)
        if config.check_node == "normalized-minsum":
            if abs(config.normalization - 0.75) < 1e-9:
                min1 = ((3 * min1.astype(np.int64)) >> 2).astype(lam.dtype)
                min2 = ((3 * min2.astype(np.int64)) >> 2).astype(lam.dtype)
            else:
                min1 = np.floor(min1 * config.normalization).astype(lam.dtype)
                min2 = np.floor(min2 * config.normalization).astype(lam.dtype)
        elif config.check_node == "offset-minsum":
            # Minima never exceed max_int, so a larger offset zeroes
            # them all the same; clamping keeps the scalar within the
            # storage width (a Python int beyond it raises under NEP 50).
            offset = lam.dtype.type(
                min(int(np.rint(config.offset * qformat.scale)), qformat.max_int)
            )
            min1 = np.maximum(min1 - offset, 0)
            min2 = np.maximum(min2 - offset, 0)
        # Magnitudes are already within the representable range (minima
        # of saturated inputs, only ever shrunk by the corrections), so
        # the reference's final saturate is value-identical to a cast.
        return self._select_and_sign(lam, eq, min2, min1)

    # ------------------------------------------------------------------
    # Linear-approx: two-smallest + third minimum + PWL correction
    # ------------------------------------------------------------------
    def _linear_pair_terms(self, lam, sentinel):
        """Exclusive two smallest (m1 <= m2) per output edge."""
        scratch = self.plan.scratch
        amin1, min1, min2, masked = self._two_smallest(lam, sentinel)
        amin2 = masked.argmin(axis=1)[:, None, :]
        np.put_along_axis(masked, amin2, sentinel, axis=1)
        min3 = masked.min(axis=1, keepdims=True)
        m1 = scratch("la_m1", lam.shape, min1.dtype)
        m1[:] = min1
        np.put_along_axis(m1, amin1, min2, axis=1)
        m2 = scratch("la_m2", lam.shape, min2.dtype)
        m2[:] = min2
        np.put_along_axis(m2, amin1, min3, axis=1)
        np.put_along_axis(m2, amin2, min3, axis=1)
        return m1, m2

    def _flip_signs(self, lam, corrected):
        negative = self.plan.scratch("ms_neg", lam.shape, np.bool_)
        np.less(lam, 0, out=negative)
        odd = (negative.sum(axis=1, keepdims=True) & 1).astype(bool)
        np.bitwise_xor(negative, odd, out=negative)
        return np.where(negative, -corrected, corrected)

    def _linear_approx_float(self, lam):
        _check_degree(lam)
        if lam.shape[1] == 2:
            magnitude = np.abs(lam)
            out = self._flip_signs(lam, magnitude[:, ::-1, :])
        else:
            m1, m2 = self._linear_pair_terms(lam, np.inf)
            c0 = LinearApproxKernel.C0
            slope = LinearApproxKernel.SLOPE
            corrected = (
                m1
                + np.maximum(c0 - slope * (m1 + m2), 0.0)
                - np.maximum(c0 - slope * (m2 - m1), 0.0)
            )
            corrected = np.maximum(corrected, 0)
            out = self._flip_signs(lam, corrected)
        return np.clip(out.astype(np.float64), -self._msg_clip, self._msg_clip)

    def _linear_approx_fixed(self, lam):
        _check_degree(lam)
        qformat = self.config.qformat
        if lam.shape[1] == 2:
            magnitude = np.abs(lam)
            out = self._flip_signs(lam, magnitude[:, ::-1, :])
        else:
            m1, m2 = self._linear_pair_terms(lam, qformat.max_int + 1)
            c0 = self._linear_c0
            m1 = m1.astype(np.int64)
            corr_sum = np.maximum(c0 - ((m1 + m2) >> 2), 0)
            corr_diff = np.maximum(c0 - ((m2 - m1) >> 2), 0)
            corrected = np.maximum(m1 + corr_sum - corr_diff, 0)
            out = self._flip_signs(lam, corrected)
        return qformat.saturate(out)
