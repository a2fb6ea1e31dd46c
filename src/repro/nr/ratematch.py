"""3GPP 38.212-style rate matching for the NR base-graph codes.

The NR LDPC chain never transmits a mother codeword verbatim.  Three
transformations sit between the encoder and the channel, and all three
change what the decoder must be fed:

- **Systematic puncturing.**  The first ``2Z`` systematic bits (the two
  high-degree "punctured" columns of both base graphs) are *never*
  transmitted.  The decoder still decodes them — from parity context
  only — so their channel LLRs must be exact zeros (erasures), not
  fabricated ``±1`` quantization artefacts.
- **Filler shortening.**  ``F`` known-zero filler bits pad the tail of
  the information block ``[K - F, K)``.  They are skipped during bit
  selection and re-enter the decoder as *known* bits: saturated-positive
  LLRs (bit 0 ↦ positive under the library's sign convention).
- **Circular-buffer repetition / puncturing.**  The remaining ``Ncb =
  N - 2Z`` bits form a circular buffer read from a redundancy-version
  offset ``k0(rv)``; reading more than ``Ncb`` bits wraps (repetition,
  soft bits add), reading fewer punctures the tail.

:class:`NRRateMatcher` implements the transmit-side bit selection
(:meth:`rate_match`), the receive-side soft-bit accumulation
(:meth:`derate_match`) and the decoder conditioning
(:meth:`decoder_llrs`) that keeps the erasure/known-bit semantics exact
through both the float and the fixed-point datapaths:

- fixed-point datapath: the decoder input port passes integer LLRs
  through :meth:`~repro.fixedpoint.QFormat.saturate` *only* (exact
  zeros survive), so :meth:`decoder_llrs` quantizes transmitted
  positions with ``quantize_nonzero`` and leaves untransmitted
  positions at integer ``0`` — the in-loop message port
  (``break_zero_messages``) then resolves them from parity context;
- float datapath: the float kernels have no zero-breaking port, and an
  *exactly* zero float LLR is an absorbing erasure under the
  sign-product check recursions (``sign(0)`` annihilates every check
  output — see :mod:`repro.decoder.backends.base`).  Untransmitted
  positions therefore carry :data:`FLOAT_ERASURE_LLR`, a ``1e-9``
  placeholder whose magnitude contributes nothing to any sum or min —
  it exists solely because IEEE floats cannot carry a signless zero
  through a sign product.  This is *not* the ``±1`` fabrication the
  fixed path forbids: a raw ``±1`` is a quarter-LLR of real channel
  weight; ``1e-9`` is numerically indistinguishable from an erasure.

Redundancy-version offsets follow the 38.212 table shape — ``k0`` is a
base-graph-specific fraction of the circular buffer, rounded down to a
multiple of ``Z``:

======  ==================  ==================
rv      BG1 (Ncb = 66 Z)    BG2 (Ncb = 50 Z)
======  ==================  ==================
0       0                   0
1       17 Z                13 Z
2       33 Z                25 Z
3       56 Z                43 Z
======  ==================  ==================
"""

from __future__ import annotations

import numpy as np

from repro.codes.nr import NR_BG_PARAMS
from repro.codes.qc import QCLDPCCode
from repro.errors import RateMatchError

__all__ = [
    "FILLER_LLR",
    "FLOAT_ERASURE_LLR",
    "NR_RV_OFFSETS",
    "NRRateMatcher",
]

#: ``k0`` numerators per base graph: ``k0(rv) = NR_RV_OFFSETS[bg][rv] * Z``.
#: The denominators are the circular-buffer lengths in blocks (66 for
#: BG1, 50 for BG2), already folded in.
NR_RV_OFFSETS: dict[int, tuple[int, int, int, int]] = {
    1: (0, 17, 33, 56),
    2: (0, 13, 25, 43),
}

#: Float-datapath LLR magnitude marking a *known* (filler) bit.  Large
#: enough to pin the bit through any number of iterations; the decoder
#: input port clips it to its ``llr_clip`` either way.
FILLER_LLR = 1.0e4

#: Float-datapath erasure placeholder for never-transmitted positions.
#: An exactly-zero float LLR is absorbing under the float check kernels
#: (see the module docstring); this magnitude is ~10 orders below any
#: real channel LLR yet safely above the tanh-domain underflow floor of
#: the sum-subtract kernel, so it contributes nothing numerically and
#: the decoder recovers the position from parity context exactly as BP
#: prescribes.  A float32 APP memory (the default ``fast`` float BP
#: path) rounds it away once a check message is added to it; that
#: datapath restores the cancelled ``L - Λ`` to ``±finfo(float32).tiny``
#: instead of passing an exact zero on (see
#: :func:`~repro.decoder.backends.base.break_cancelled_float_messages`).
FLOAT_ERASURE_LLR = 1.0e-9


class NRRateMatcher:
    """Rate matching + soft de-rate-matching for one NR code.

    Parameters
    ----------
    code:
        An expanded NR code (``repro.open("NR:bg1:z24").code`` or
        ``get_code("NR:...")``).  Non-NR codes are rejected: the 2Z
        systematic puncture and the rv offset table are NR-specific.
    n_filler:
        Number of known-zero filler bits at the tail of the information
        block, ``0 <= n_filler <= K - 2Z`` (fillers may not spill into
        the never-transmitted punctured prefix).

    Notes
    -----
    All indices returned or consumed by this class are *global* mother
    codeword positions in ``[0, N)``; the circular buffer covers
    ``[2Z, N)``.
    """

    def __init__(self, code: QCLDPCCode, n_filler: int = 0):
        bg = next(
            (
                bg
                for bg, (j, k, _kb) in NR_BG_PARAMS.items()
                if (code.base.j, code.base.k) == (j, k)
            ),
            None,
        )
        if bg is None:
            raise RateMatchError(
                f"code {code.name!r} (j={code.base.j}, k={code.base.k}) is "
                "not an NR base-graph code; rate matching needs "
                "repro.open('NR:bg1:z...') / get_code('NR:bg2:z...')"
            )
        self.code = code
        self.bg = bg
        self.z = code.z
        #: Never-transmitted systematic prefix (2Z bits).
        self.n_punctured = 2 * self.z
        #: Circular-buffer length ``Ncb = N - 2Z``.
        self.ncb = code.n - self.n_punctured
        n_filler = int(n_filler)
        if not 0 <= n_filler <= code.n_info - self.n_punctured:
            raise RateMatchError(
                f"n_filler={n_filler} out of range [0, "
                f"{code.n_info - self.n_punctured}] for {code.name!r} "
                f"(K={code.n_info}, 2Z={self.n_punctured})"
            )
        self.n_filler = n_filler
        #: Transmittable payload bits per frame (``K - 2Z - F``... plus
        #: parity; this is the *information* payload ``K - F``).
        self.n_payload = code.n_info - n_filler
        self._selection_base: dict[int, np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"NRRateMatcher({self.code.name!r}, bg={self.bg}, z={self.z}, "
            f"ncb={self.ncb}, n_filler={self.n_filler})"
        )

    # ------------------------------------------------------------------
    # Index machinery
    # ------------------------------------------------------------------
    def rv_offset(self, rv: int) -> int:
        """Circular-buffer start offset ``k0`` (in bits) for ``rv``."""
        if rv not in (0, 1, 2, 3):
            raise RateMatchError(f"redundancy version must be 0..3, got {rv!r}")
        return NR_RV_OFFSETS[self.bg][rv] * self.z

    @property
    def punctured_mask(self) -> np.ndarray:
        """``(N,)`` bool — the never-transmitted ``2Z`` systematic prefix."""
        mask = np.zeros(self.code.n, dtype=bool)
        mask[: self.n_punctured] = True
        return mask

    @property
    def filler_mask(self) -> np.ndarray:
        """``(N,)`` bool — known-zero filler positions ``[K - F, K)``."""
        mask = np.zeros(self.code.n, dtype=bool)
        if self.n_filler:
            mask[self.code.n_info - self.n_filler : self.code.n_info] = True
        return mask

    def _cycle(self, rv: int) -> np.ndarray:
        """Non-filler circular-buffer positions in read order from k0."""
        cached = self._selection_base.get(rv)
        if cached is not None:
            return cached
        k0 = self.rv_offset(rv)
        buffer = self.n_punctured + (
            (k0 + np.arange(self.ncb, dtype=np.int64)) % self.ncb
        )
        filler = self.filler_mask
        cycle = buffer[~filler[buffer]]
        self._selection_base[rv] = cycle
        return cycle

    def select(self, rv: int, e: int) -> np.ndarray:
        """Global codeword indices of the ``e`` transmitted soft bits.

        Walks the circular buffer from ``k0(rv)``, skipping fillers,
        wrapping for ``e`` beyond one buffer revolution (repetition).
        """
        e = int(e)
        if e < 1:
            raise RateMatchError(f"transmission length e must be >= 1, got {e}")
        cycle = self._cycle(rv)
        return cycle[np.arange(e, dtype=np.int64) % len(cycle)]

    def transmitted_mask(self, rv: int, e: int) -> np.ndarray:
        """``(N,)`` bool — positions observed at least once by ``(rv, e)``."""
        mask = np.zeros(self.code.n, dtype=bool)
        mask[self.select(rv, e)] = True
        return mask

    # ------------------------------------------------------------------
    # Payload helpers
    # ------------------------------------------------------------------
    def place_fillers(self, payload: np.ndarray) -> np.ndarray:
        """Expand ``(..., K - F)`` payload bits to ``(..., K)`` info bits."""
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.shape[-1] != self.n_payload:
            raise RateMatchError(
                f"payload length {payload.shape[-1]} != K - F = "
                f"{self.n_payload}"
            )
        if not self.n_filler:
            return payload
        pad = np.zeros((*payload.shape[:-1], self.n_filler), dtype=np.uint8)
        return np.concatenate([payload, pad], axis=-1)

    def extract_payload(self, info_bits: np.ndarray) -> np.ndarray:
        """Strip fillers: ``(..., K)`` info bits → ``(..., K - F)`` payload."""
        info_bits = np.asarray(info_bits)
        if info_bits.shape[-1] != self.code.n_info:
            raise RateMatchError(
                f"info length {info_bits.shape[-1]} != K = {self.code.n_info}"
            )
        return info_bits[..., : self.n_payload]

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------
    def rate_match(self, codewords: np.ndarray, rv: int, e: int) -> np.ndarray:
        """Select the ``e`` transmitted bits of each ``(.., N)`` codeword."""
        codewords = np.asarray(codewords)
        if codewords.shape[-1] != self.code.n:
            raise RateMatchError(
                f"codeword length {codewords.shape[-1]} != N = {self.code.n}"
            )
        return codewords[..., self.select(rv, e)]

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def derate_match(
        self,
        llr: np.ndarray,
        rv: int,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Scatter-accumulate ``(B, e)`` soft bits into ``(B, N)`` floats.

        Positions read twice in one transmission (repetition past one
        buffer revolution) accumulate, as do retransmissions when the
        same ``out`` buffer is passed back in — that *is* the IR-HARQ
        soft combine.  Returns ``out``.
        """
        llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
        e = llr.shape[-1]
        idx = self.select(rv, e)
        if out is None:
            out = np.zeros((llr.shape[0], self.code.n), dtype=np.float64)
        elif out.shape != (llr.shape[0], self.code.n):
            raise RateMatchError(
                f"soft buffer shape {out.shape} does not match "
                f"({llr.shape[0]}, {self.code.n})"
            )
        rows = np.arange(llr.shape[0], dtype=np.int64)[:, None]
        np.add.at(out, (rows, idx[None, :]), llr)
        return out

    def decoder_llrs(
        self,
        combined: np.ndarray,
        transmitted: np.ndarray,
        qformat=None,
    ) -> np.ndarray:
        """Condition an accumulated soft buffer for the decoder input port.

        Parameters
        ----------
        combined:
            ``(B, N)`` float soft buffer (from :meth:`derate_match`).
        transmitted:
            ``(N,)`` bool — positions observed at least once (the OR of
            :meth:`transmitted_mask` over the received transmissions).
        qformat:
            ``None`` for the float datapath; a
            :class:`~repro.fixedpoint.QFormat` for fixed point.

        Returns
        -------
        ``(B, N)`` float64 LLRs with :data:`FLOAT_ERASURE_LLR` at
        never-transmitted positions and ``+FILLER_LLR`` at fillers —
        or, with ``qformat``, ``(B, N)`` int32 raw LLRs with exact
        ``0`` at never-transmitted positions (the integer input port
        saturates but never breaks zeros; the in-loop message port
        resolves them), ``quantize_nonzero`` at transmitted positions
        and ``+qformat.max_int`` at fillers.
        """
        combined = np.atleast_2d(np.asarray(combined, dtype=np.float64))
        transmitted = np.asarray(transmitted, dtype=bool)
        if combined.shape[-1] != self.code.n or transmitted.shape != (self.code.n,):
            raise RateMatchError(
                f"expected (B, {self.code.n}) soft bits and a "
                f"({self.code.n},) transmitted mask; got {combined.shape} "
                f"and {transmitted.shape}"
            )
        filler = self.filler_mask
        if qformat is None:
            out = combined.copy()
            out[:, ~transmitted] = FLOAT_ERASURE_LLR
            out[:, filler] = FILLER_LLR
            return out
        observed = transmitted & ~filler
        out = np.zeros(combined.shape, dtype=np.int32)
        out[:, observed] = qformat.quantize_nonzero(combined[:, observed])
        out[:, filler] = qformat.max_int
        return out

    def conditioned(
        self, llr: np.ndarray, rv: int, qformat=None
    ) -> np.ndarray:
        """One-shot single-transmission receive path.

        ``derate_match`` + ``decoder_llrs`` for callers decoding each
        transmission independently (no HARQ combining).
        """
        llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
        combined = self.derate_match(llr, rv)
        return self.decoder_llrs(
            combined, self.transmitted_mask(rv, llr.shape[-1]), qformat=qformat
        )
