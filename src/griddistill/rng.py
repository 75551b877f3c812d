"""Deterministic randomness for every pipeline stage.

Each consumer gets its own stream derived from a single root seed and a
text label, so runs are bit-reproducible and independent of the order in
which units of work run. The generator is xoshiro256**, seeded through
SplitMix64 from (root_seed XOR FNV-1a(label)); all three algorithms are
fixed by name so a reimplementation in another language produces the same
draws.

The scalar methods (`next_u64`, `next_int`, ...) are the reference. The
bulk methods return exactly the sequence that the same number of scalar
calls would, and leave the stream in the same state. They are exact
because the xoshiro256** state update is linear over GF(2): the s1 words
of the next 256 steps, and the state 256 steps on, are the XOR of the
contributions of the state's set bits taken one at a time. Those
per-bit contributions are tabulated once, at import, and a whole block of
256 outputs becomes a vectorized XOR plus the (nonlinear) output scrambler
applied in uint64.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INV_2_53 = 2.0 ** -53
_BLOCK = 256  # outputs per table block; also the number of state bits


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 bytes of `text`."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _rotl_u64(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _block_tables() -> tuple[np.ndarray, np.ndarray]:
    """Run the xoshiro256** state update from the 256 unit states (state
    bit i = bit i % 64 of word i // 64) at once. Row i of `outs` holds the
    s1 word at steps 0..255 from unit state i; row i of `jump` holds that
    state after 256 steps."""
    words = np.zeros((4, _BLOCK), dtype=np.uint64)
    bit = np.arange(_BLOCK)
    words[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    s0, s1, s2, s3 = words
    outs = np.empty((_BLOCK, _BLOCK), dtype=np.uint64)
    for step in range(_BLOCK):
        outs[:, step] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl_u64(s3, 45)
    jump = np.stack([s0, s1, s2, s3], axis=1)
    outs.flags.writeable = False
    jump.flags.writeable = False
    return outs, jump


# Built once at import (3-4 ms, 520 KiB), so the draw path needs no
# first-use check.
_OUTS, _JUMP = _block_tables()


class RngStream:
    """xoshiro256** stream. Single-owner: mutate sequentially, never share.

    Each unit of work (episode, student, ...) takes its own derived stream
    rather than sharing one.
    """

    __slots__ = ("state", "label")

    def __init__(self, state: tuple[int, int, int, int], label: str):
        self.state = state
        self.label = label

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.state
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.state = (s0, s1, s2, s3)
        return result

    def next_uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_u64_array(self, k: int) -> np.ndarray:
        """k raw words as a uint64 array, the same sequence as k calls to
        next_u64: whole blocks of 256 from the GF(2) tables, the k % 256
        tail from next_u64."""
        if k < 0:
            raise ValueError(f"draw count must be >= 0, got {k}")
        blocks, tail = divmod(k, _BLOCK)
        out = np.empty(k, dtype=np.uint64)
        if blocks:
            state = np.array(self.state, dtype="<u8")
            head = out[: blocks * _BLOCK].reshape(blocks, _BLOCK)  # view: s1 words, then outputs
            for b in range(blocks):
                set_bits = np.flatnonzero(np.unpackbits(state.view(np.uint8), bitorder="little"))
                head[b] = np.bitwise_xor.reduce(_OUTS[set_bits], axis=0)
                state = np.bitwise_xor.reduce(_JUMP[set_bits], axis=0)
            head[...] = _rotl_u64(head * np.uint64(5), 7) * np.uint64(9)
            self.state = tuple(int(w) for w in state)
        out[blocks * _BLOCK :] = [self.next_u64() for _ in range(tail)]
        return out

    def next_uniform_array(self, k: int) -> np.ndarray:
        """k uniforms in [0, 1) as a float64 array, the same sequence as k
        calls to next_uniform."""
        return (self.next_u64_array(k) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def next_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias)."""
        if n < 1:
            raise ValueError(f"next_int needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def next_int_array(self, n: int, k: int) -> np.ndarray:
        """k draws from [0, n) as an int64 array, the same sequence as k
        calls to next_int(n): accepted words are kept in stream order and
        only the shortfall is redrawn, so no word past the k-th acceptance
        is consumed."""
        if not 1 <= n <= 1 << 63:
            raise ValueError(f"next_int_array needs 1 <= n <= 2**63, got {n}")
        if k < 0:
            raise ValueError(f"draw count must be >= 0, got {k}")
        if k < _BLOCK:
            return np.array([self.next_int(n) for _ in range(k)], dtype=np.int64)
        rem = (1 << 64) % n
        parts = []
        need = k
        while need:
            x = self.next_u64_array(need)
            if rem:
                x = x[x < np.uint64((1 << 64) - rem)]
            parts.append(x)
            need -= len(x)
        return (np.concatenate(parts) % np.uint64(n)).astype(np.int64)

    def next_gauss(self) -> float:
        """Standard normal via Box-Muller; consumes two uniforms per call."""
        u1 = self.next_uniform()
        u2 = self.next_uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, k: int) -> list[int]:
        """Fisher-Yates permutation of 0..k-1."""
        perm = list(range(k))
        for i in range(k - 1, 0, -1):
            j = self.next_int(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def derive_stream(root_seed: int, label: str) -> RngStream:
    """Stream keyed by (root_seed, label): SplitMix64 expands the XOR of the
    seed and the label hash into the four xoshiro256** state words."""
    if not label:
        raise ValueError("stream label must be nonempty")
    sm = (root_seed & _MASK64) ^ fnv1a64(label)
    words = []
    for _ in range(4):
        sm, out = splitmix64(sm)
        words.append(out)
    return RngStream((words[0], words[1], words[2], words[3]), label)
