"""Valid termination byte sets and single/joint stream termination.

For a final interval [u, v) the integers U = ceil(2**8 u) and
V = floor(2**8 v) - 1 bound the termination values T whose byte step
[T/256, (T+1)/256) lies inside [u, v); writing T mod 256 (and carrying one
into the bytes already produced when T >= 256) then guarantees exact
decoding under any continuation bytes.  Bidirectional stream pairs can
share one stored junction byte whenever the forward stored set intersects
the backward one (bit-reversed storage in `fr` mode), saving 8 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import REVERSED_BYTES
from .rangecoder import TOP, FinalCoderState

PAIR_MODES = ("fb", "fr")


@dataclass
class ValidByteSet:
    """Inclusive termination value range [lo, hi] in the value domain.

    Values may exceed 255; the realized byte set is {t mod 256} with a carry
    flag for t >= 256.  `prefix_bytes` counts renormalization bytes emitted
    while constructing the set (0 or 1).
    """

    lo: int
    hi: int
    prefix_bytes: int = 0

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty termination set")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def stored_values(self) -> list[int]:
        return [t & 0xFF for t in range(self.lo, self.hi + 1)]

    def value_for_stored(self, stored: int) -> int:
        """The termination value realizing a stored byte, smallest first."""
        for t in (stored, stored + 256):
            if self.lo <= t <= self.hi:
                return t
        raise KeyError(f"stored byte {stored} not in set")

    def carry_for_stored(self, stored: int) -> bool:
        return self.value_for_stored(stored) >= 256

    def __contains__(self, stored: int) -> bool:
        return self.lo <= stored <= self.hi or self.lo <= stored + 256 <= self.hi


@dataclass
class SingleTermination:
    data: bytes              # complete stream bytes, termination applied
    appended: int            # bytes added by termination (incl. renorm byte)
    value: int               # chosen termination value T
    stored_byte: int         # T mod 256
    carried: bool            # T >= 256
    pending_bits: float      # -log2(v - u) of the finalized state


@dataclass
class JointTermination:
    fwd_data: bytes          # complete forward stream, junction byte last
    bwd_data: bytes          # complete backward stream in produced order;
                             # when shared the junction byte is not repeated
    shared: bool
    stored_byte: int | None  # stored junction byte value when shared
    k_fwd: int               # termination bytes charged to the forward side
    k_bwd: int               # ... and the backward side (junction in both)
    fwd_value: int
    bwd_value: int
    carried_fwd: bool
    carried_bwd: bool
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


def terminate_single(state: FinalCoderState) -> SingleTermination:
    """Terminate one stream, choosing the smallest valid value T = U."""
    vset = valid_byte_set(state)
    t = vset.lo
    data = state.finish(t)
    return SingleTermination(
        data=data,
        appended=vset.prefix_bytes + 1,
        value=t,
        stored_byte=t & 0xFF,
        carried=t >= 256,
        pending_bits=state.pending_info,
    )


def joint_terminate(fwd: FinalCoderState, bwd: FinalCoderState,
                    mode: str) -> JointTermination:
    """Terminate a forward/backward pair, sharing one stored byte if possible.

    In `fr` mode the backward stream is stored with reversed bit order, so
    its stored candidates are the bit-reversed byte values.  The smallest
    shared stored value wins; each side's carry goes into its own stream's
    bytes and the junction byte itself is stored exactly once (in the
    forward stream's buffer).
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"joint termination mode must be fb or fr, got {mode!r}")
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise ValueError("joint_terminate needs a (forward, backward) pair")
    vf = valid_byte_set(fwd)
    vb = valid_byte_set(bwd)

    stored_bwd = bytes(vb.stored_values())
    if mode == "fr":
        stored_bwd = stored_bwd.translate(REVERSED_BYTES)
    common = set(vf.stored_values()).intersection(stored_bwd)
    if common:
        z = min(common)
        t_fwd = vf.value_for_stored(z)
        t_bwd = vb.value_for_stored(REVERSED_BYTES[z] if mode == "fr" else z)
    else:
        z = None
        t_fwd = vf.lo
        t_bwd = vb.lo
    fwd_data = fwd.finish(t_fwd)
    bwd_data = bwd.finish(t_bwd)
    if common:
        bwd_data = bwd_data[:-1]  # junction stored once, forward side
    return JointTermination(
        fwd_data=fwd_data, bwd_data=bwd_data,
        shared=bool(common), stored_byte=z,
        k_fwd=vf.prefix_bytes + 1, k_bwd=vb.prefix_bytes + 1,
        fwd_value=t_fwd, bwd_value=t_bwd,
        carried_fwd=t_fwd >= 256, carried_bwd=t_bwd >= 256,
        pending_fwd=fwd.pending_info, pending_bwd=bwd.pending_info,
        renormed=bool(vf.prefix_bytes or vb.prefix_bytes),
    )


def single_extra_bits(term: SingleTermination) -> float:
    """Termination cost beyond the intrinsic pending information."""
    return 8.0 * term.appended - term.pending_bits


def pair_extra_bits(term: JointTermination) -> float:
    """Per-stream termination cost of a jointly terminated pair."""
    stored = term.k_fwd + term.k_bwd - (1 if term.shared else 0)
    return (8.0 * stored - term.pending_fwd - term.pending_bwd) / 2.0


@dataclass
class TerminationStats:
    """Accumulates termination overhead over single and paired streams."""

    streams: int = 0
    pair_events: int = 0
    shared_events: int = 0
    extra_bits_total: float = 0.0

    def add_single(self, term: SingleTermination) -> None:
        self.streams += 1
        self.extra_bits_total += single_extra_bits(term)

    def add_pair(self, term: JointTermination) -> None:
        self.streams += 2
        self.pair_events += 1
        if term.shared:
            self.shared_events += 1
        self.extra_bits_total += 2.0 * pair_extra_bits(term)

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
