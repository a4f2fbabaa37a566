"""The termination rule, in a scalar form for the encoder and an array form.

The array forms serve `bench-term`'s whole populations; they import numpy
inside, so importing this module loads none.

1. Valid set: for the final interval [low, low + range), the values
   U = ceil(low / 2**24) .. V = floor((low + range) / 2**24) - 1 are the
   T whose byte step [T/256, (T+1)/256) lies inside it; storing T mod 256
   (carrying one into the bytes already produced when T >= 256) decodes
   exactly under any continuation.  When V < U one byte is renormalized
   out first.  Forms: `valid_byte_set`, `valid_byte_sets` (which
   renormalizes only the lanes that need it).
2. Junction: a forward/backward pair stores one byte for both ends when
   some byte fits both sets.  That junction is the smallest z in 0..255
   with (z - U_f) mod 256 <= V_f - U_f and (perm[z] - U_b) mod 256 <=
   V_b - U_b, perm being the bit reversal in `fr` (backward bytes are
   stored bit-reversed) and the identity in `fb`.  Each side's value is
   then U + ((its byte - U) mod 256), unique because every set is
   narrower than 256.  Forms: `joint_terminate`, which scans the forward
   set's bytes in order, and `junction_bytes`, which ANDs the two sides'
   256-bit masks of the bytes they can end on (each XOR and OR of three
   rows gathered from a per-mode table of prefix masks) and takes the
   lowest bit set: a 16-entry table maps which of the four 64-bit words are
   nonzero to the first one, and the bit is found in that word alone.
3. Accounting: a stream's termination costs 8 * appended - pending bits
   beyond its pending information (`single_extra_bits`); a pair's costs
   the sum of its two streams' less 8 bits for a shared junction
   (`pair_extra_bits`).  Both take scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

from .bitio import REVERSED_BYTES
from .rangecoder import MASK32, TOP, FinalCoderState

#: the backward side's value byte for each stored junction byte, per mode
_PERM = {"fb": bytes(range(256)), "fr": REVERSED_BYTES}


@dataclass
class ValidByteSet:
    """Inclusive termination value range [lo, hi] in the value domain.

    Values may exceed 255; the stored byte is t mod 256, with a carry into
    the bytes already produced for t >= 256.  `prefix_bytes` counts
    renormalization bytes emitted while constructing the set (0 or 1).
    """

    lo: int
    hi: int
    prefix_bytes: int = 0

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty termination set")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def value_for_stored(self, stored: int) -> int:
        """The termination value whose low byte is `stored`."""
        value = self.lo + ((stored - self.lo) & 0xFF)
        if value > self.hi:
            raise KeyError(f"stored byte {stored} not in set")
        return value


@dataclass
class SingleTermination:
    data: bytes              # complete stream bytes, termination applied
    appended: int            # bytes added by termination (incl. renorm byte)
    value: int               # chosen termination value T (carried if >= 256)
    pending_bits: float      # -log2(v - u) of the finalized state


@dataclass
class JointTermination:
    fwd_data: bytes          # complete forward stream, junction byte last
    bwd_data: bytes          # complete backward stream in produced order;
                             # when shared the junction byte is not repeated
    shared: bool
    k_fwd: int               # termination bytes charged to the forward side
    k_bwd: int               # ... and the backward side (junction in both)
    fwd_value: int           # termination values (carried if >= 256)
    bwd_value: int
    pending_fwd: float
    pending_bwd: float
    renormed: bool = False   # either side needed a V < U renormalization


def valid_byte_set(state: FinalCoderState) -> ValidByteSet:
    """Compute the valid termination set, renormalizing once if needed.

    When no whole byte step fits (possible only while v - u < 2**-7) one
    byte is appended to the stream and the interval rescaled; the rescaled
    width guarantees a nonempty set, so a single step suffices.
    """
    lo = (state.low + TOP - 1) >> 24
    hi = ((state.low + state.range) >> 24) - 1
    prefix = 0
    if hi < lo:
        if state.range >= TOP << 1:
            raise AssertionError("empty set with v - u >= 2**-7")
        state.push_renorm_byte()
        prefix = 1
        lo = (state.low + TOP - 1) >> 24
        hi = ((state.low + state.range) >> 24) - 1
        if hi < lo:
            raise AssertionError("termination set empty after renormalization")
    if hi - lo > 254:
        raise AssertionError("termination set wider than one byte period")
    return ValidByteSet(lo, hi, prefix)


def valid_byte_sets(low, range_):
    """Array form of `valid_byte_set`: (U, V, appended, low', range').

    Takes int64 arrays.  Only the lanes with V < U renormalize, so their
    new state and set are worked out on those lanes alone.
    """
    import numpy as np

    set_lo = (low + (TOP - 1)) >> 24
    set_hi = ((low + range_) >> 24) - 1
    renorm = np.flatnonzero(set_hi < set_lo)
    low, range_ = low.copy(), range_.copy()
    appended = np.ones(len(low), dtype=np.int64)
    if len(renorm):
        low2 = (low[renorm] << 8) & MASK32
        rng2 = np.minimum(range_[renorm] << 8, MASK32)
        low[renorm], range_[renorm] = low2, rng2
        set_lo[renorm] = (low2 + (TOP - 1)) >> 24
        set_hi[renorm] = ((low2 + rng2) >> 24) - 1
        appended[renorm] = 2
    return set_lo, set_hi, appended, low, range_


def terminate_single(state: FinalCoderState) -> SingleTermination:
    """Terminate one stream, choosing the smallest valid value T = U."""
    vset = valid_byte_set(state)
    return SingleTermination(
        data=state.finish(vset.lo),
        appended=vset.prefix_bytes + 1,
        value=vset.lo,
        pending_bits=state.pending_info,
    )


def _perm(mode: str) -> bytes:
    if mode not in _PERM:
        raise ValueError(f"joint termination mode must be fb or fr, got {mode!r}")
    return _PERM[mode]


def joint_terminate(fwd: FinalCoderState, bwd: FinalCoderState,
                    mode: str) -> JointTermination:
    """Terminate a forward/backward pair, sharing one stored byte if possible.

    The forward set's stored bytes are scanned in ascending order, and the
    first one whose `perm` image is a backward stored byte is the junction.
    Each side's carry goes into its own stream's bytes, and the junction
    byte itself is stored once (in the forward stream's buffer).  Without a
    junction both sides end on their smallest value U.
    """
    perm = _perm(mode)
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise ValueError("joint_terminate needs a (forward, backward) pair")
    vf = valid_byte_set(fwd)
    vb = valid_byte_set(bwd)

    first, last = vf.lo & 0xFF, vf.hi & 0xFF
    stored = (range(first, last + 1) if first <= last
              else chain(range(last + 1), range(first, 256)))
    b_lo, b_span = vb.lo, vb.hi - vb.lo
    for z in stored:
        if (perm[z] - b_lo) & 0xFF <= b_span:
            t_fwd = vf.value_for_stored(z)
            t_bwd = vb.value_for_stored(perm[z])
            shared = True
            break
    else:
        t_fwd, t_bwd, shared = vf.lo, vb.lo, False
    fwd_data = fwd.finish(t_fwd)
    bwd_data = bwd.finish(t_bwd)
    if shared:
        bwd_data = bwd_data[:-1]  # junction stored once, forward side
    return JointTermination(
        fwd_data=fwd_data, bwd_data=bwd_data, shared=shared,
        k_fwd=vf.prefix_bytes + 1, k_bwd=vb.prefix_bytes + 1,
        fwd_value=t_fwd, bwd_value=t_bwd,
        pending_fwd=fwd.pending_info, pending_bwd=bwd.pending_info,
        renormed=bool(vf.prefix_bytes or vb.prefix_bytes),
    )


def junction_bytes(fwd_lo, fwd_hi, bwd_lo, bwd_hi, mode: str):
    """Array form of the junction: per pair its stored byte, -1 if none.

    Takes each pair's forward and backward valid sets [U, V].  Each side's
    stored bytes are a 256-bit mask, bit z set when that side can end on
    byte z, gathered from `_prefix_masks` rows; the junction is the lowest
    bit set in both masks.  The 4-bit code of which of a pair's words are
    nonzero gives its first nonzero word through `_first_word`'s table,
    and the lowest bit is found in that word alone.
    """
    import numpy as np

    fwd_span, bwd_span = fwd_hi - fwd_lo, bwd_hi - bwd_lo
    if max(fwd_span.max(), bwd_span.max()) > 254:
        raise AssertionError("termination set wider than one byte period")
    both = _stored_masks(_prefix_masks("fb"), fwd_lo, fwd_span)
    both &= _stored_masks(_prefix_masks(mode), bwd_lo, bwd_span)
    # bit i of a pair's code is set when its word i is nonzero.  Packed
    # flat, two pairs a byte: packing each row of four alone is several
    # times slower
    nonzero = np.packbits(both != 0, bitorder="little")
    code = np.stack((nonzero & 0xF, nonzero >> 4), axis=1).reshape(-1)
    word = _first_word().take(code[:len(both)])
    # the pair's first nonzero word, or its word 0 where all four are zero
    low = both.reshape(-1).take(np.arange(0, both.size, 4) + word)
    low &= ~low + np.uint64(1)  # its lowest set bit
    _, bit = np.frexp(low)      # that bit's position plus one; 0 if none
    return np.where(bit > 0, 64 * word + bit - 1, -1)


@cache
def _first_word():
    """For each 4-bit code of which mask words are nonzero (bit i for word
    i), the first nonzero word: the code's lowest set bit, 0 for code 0."""
    import numpy as np

    table = np.array([(c & -c).bit_length() - 1 if c else 0
                      for c in range(16)], dtype=np.intp)
    table.flags.writeable = False
    return table


@cache
def _prefix_masks(mode: str):
    """P[k] for k in 0..256: the 256-bit mask of the z with perm[z] < k, as
    a read-only (257, 4) array of little-endian uint64 words, bit z in word
    z // 64."""
    import numpy as np

    perm = np.frombuffer(_perm(mode), dtype=np.uint8)
    below = perm < np.arange(257)[:, None]
    masks = np.packbits(below, axis=1, bitorder="little").view("<u8")
    masks.flags.writeable = False
    return masks


def _stored_masks(prefix, lo, span):
    """Per set [U, U + span], the (sets, 4) uint64 mask of the stored bytes z
    with perm[z] in it, perm being the one `prefix` is built from; three
    gathers of whole `prefix` rows.

    With a = U mod 256 and b = a + span + 1 the set's bytes are a..b - 1,
    the part past 255 wrapping to 0..b - 257: the bytes below min(b, 256)
    and not below a, and those below max(b - 256, 0).
    """
    import numpy as np

    a = lo & 0xFF
    b = a + span + 1
    mask = prefix.take(np.minimum(b, 256), axis=0)
    mask ^= prefix.take(a, axis=0)
    mask |= prefix.take(np.maximum(b - 256, 0), axis=0)
    return mask


def single_extra_bits(appended, pending):
    """Termination cost of a stream beyond its intrinsic pending information."""
    return 8.0 * appended - pending


def pair_extra_bits(extra_fwd, extra_bwd, shared):
    """Termination cost of a pair: both streams', less a shared junction byte."""
    return extra_fwd + extra_bwd - 8.0 * shared


@dataclass
class TerminationStats:
    """Accumulates termination overhead over single and paired streams."""

    streams: int = 0
    pair_events: int = 0
    shared_events: int = 0
    extra_bits_total: float = 0.0

    def add_single(self, term: SingleTermination) -> None:
        self.streams += 1
        self.extra_bits_total += single_extra_bits(term.appended,
                                                   term.pending_bits)

    def add_pair(self, term: JointTermination) -> None:
        self.streams += 2
        self.pair_events += 1
        self.shared_events += term.shared
        self.extra_bits_total += pair_extra_bits(
            single_extra_bits(term.k_fwd, term.pending_fwd),
            single_extra_bits(term.k_bwd, term.pending_bwd),
            term.shared)

    @property
    def mean_extra_bits(self) -> float:
        if not self.streams:
            raise ValueError("no terminations recorded")
        return self.extra_bits_total / self.streams

    @property
    def share_ratio(self) -> float | None:
        if not self.pair_events:
            return None
        return self.shared_events / self.pair_events

    def csv_row(self, mode: str) -> dict:
        share = self.share_ratio
        return {
            "mode": mode,
            "streams": self.streams,
            "share_ratio": "" if share is None else f"{share:.6f}",
            "mean_extra_bits": f"{self.mean_extra_bits:.6f}",
        }
