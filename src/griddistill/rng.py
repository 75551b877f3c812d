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
of the next 256 steps, and the state 256 or 512 steps on, are the XOR of
the contributions of the state's set bits taken one at a time. Those
per-bit contributions are tabulated once, at import.

Draws below 32,768 words (in all, over the streams drawn together) take
whole blocks of 256 outputs from the tables, one vectorized XOR per block,
and the last k mod 256 words from the scalar generator. Larger draws
split the stream into lanes 512 words apart (each lane starts one
512-step jump after the last: the jump functions of Blackman & Vigna used
for block splitting) and step all lanes at once as uint64 vectors; their
k mod 512 tail takes the table path. Either way the (nonlinear) output
scrambler runs in uint64 over the whole draw.

`next_u64_arrays` and `next_int_arrays` make the same draw from each of
several streams at once, for a consumer that reads many streams alike:
the lanes of all the streams step together, so the lanes' fixed cost is
paid once per draw. A stream's own bulk draw is their one-stream case.

`next_uniform_lanes` takes one uniform from each of many streams whose
states sit side by side as uint64 columns, for a consumer that walks many
streams in lockstep.

`LaneCursor` reads a stream ahead, 256 lanes at a time, for a consumer
that makes many mid-sized draws and never reads the stream afterwards.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INV_2_53 = 2.0 ** -53
_BLOCK = 256  # outputs per table block; also the number of state bits
_LANE_BLOCK = 512  # words per lane: lanes start one 512-step jump apart
# Smallest draw that takes lanes; smaller ones take the tables. The lanes'
# fixed cost is 512 vector steps, so on 2 cores (best of 15) they cross the
# tables here: 28,672 words took 3.6-5.8 ms by lanes and 4.1-5.3 ms by
# tables, 32,768 words 3.7-6.2 ms by lanes and 4.9-6.7 ms by tables.
_LANE_MIN = 32_768
_CURSOR_REFILL = 256 * _LANE_BLOCK  # words per LaneCursor refill
_SCRAMBLE_CHUNK = 8192  # words scrambled per in-place pass, cache-sized


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


_U5, _U7, _U9, _U17, _U19, _U45, _U57 = (np.uint64(c) for c in (5, 7, 9, 17, 19, 45, 57))


def _step_u64(s0, s1, s2, s3, t, u) -> None:
    """One xoshiro256** state update on uint64 vectors, in place; t and u
    are scratch vectors of the same length. Explicit ufunc calls on prebuilt
    uint64 constants: on short lane vectors the per-call cost dominates."""
    np.left_shift(s1, _U17, out=t)
    np.bitwise_xor(s2, s0, out=s2)
    np.bitwise_xor(s3, s1, out=s3)
    np.bitwise_xor(s1, s2, out=s1)
    np.bitwise_xor(s0, s3, out=s0)
    np.bitwise_xor(s2, t, out=s2)
    np.left_shift(s3, _U45, out=u)
    np.right_shift(s3, _U19, out=s3)
    np.bitwise_or(s3, u, out=s3)


def _block_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the xoshiro256** state update from the 256 unit states (state
    bit i = bit i % 64 of word i // 64) at once. Row i of `outs` holds the
    s1 word at steps 0..255 from unit state i; row i of `jump` holds that
    state after 256 steps, and row i of `jump512` after 512."""
    words = np.zeros((4, _BLOCK), dtype=np.uint64)
    bit = np.arange(_BLOCK)
    words[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    scratch = np.empty((2, _BLOCK), dtype=np.uint64)
    outs = np.empty((_BLOCK, _BLOCK), dtype=np.uint64)
    for step in range(_BLOCK):
        outs[:, step] = words[1]
        _step_u64(*words, *scratch)
    jump = words.T.copy()
    for _ in range(_LANE_BLOCK - _BLOCK):
        _step_u64(*words, *scratch)
    jump512 = words.T.copy()
    for table in (outs, jump, jump512):
        table.flags.writeable = False
    return outs, jump, jump512


# Built once at import (~10 ms, 528 KiB), so the draw path needs no
# first-use check.
_OUTS, _JUMP, _JUMP512 = _block_tables()


def _set_bits(state: np.ndarray) -> np.ndarray:
    """Indices of the set bits of a state of four little-endian uint64
    words: the table rows whose XOR is the state's image."""
    return np.flatnonzero(np.unpackbits(state.view(np.uint8), bitorder="little"))


def _scramble(words: np.ndarray) -> None:
    """xoshiro256** output scrambler rotl(s1 * 5, 7) * 9, in place on a 1-D
    uint64 array, a cache-sized chunk at a time."""
    tmp = np.empty(min(len(words), _SCRAMBLE_CHUNK), dtype=np.uint64)
    for lo in range(0, len(words), _SCRAMBLE_CHUNK):
        chunk = words[lo : lo + _SCRAMBLE_CHUNK]
        t = tmp[: len(chunk)]
        np.multiply(chunk, _U5, out=chunk)
        np.right_shift(chunk, _U57, out=t)
        np.left_shift(chunk, _U7, out=chunk)
        np.bitwise_or(chunk, t, out=chunk)
        np.multiply(chunk, _U9, out=chunk)


def _table_words(state: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the (blocks, 256) array `out` with the s1 words of the stream
    from `state`, block by block from the tables; return the state after."""
    for b in range(out.shape[0]):
        set_bits = _set_bits(state)
        out[b] = np.bitwise_xor.reduce(_OUTS[set_bits], axis=0)
        state = np.bitwise_xor.reduce(_JUMP[set_bits], axis=0)
    return state


def _lane_words(states: list, out: np.ndarray) -> list:
    """Fill the (S, lanes, 512) array `out` with the s1 words of S streams,
    stream i from states[i]: lane l of a stream starts l 512-step jumps on,
    all S * lanes lanes step together, and step j writes column j, so
    out[i].ravel() is stream i's order. Returns each stream's state after
    its last lane."""
    streams, lanes = out.shape[:2]
    starts = np.empty((4, streams, lanes), dtype=np.uint64)
    after = []
    for i, state in enumerate(states):
        for lane in range(lanes):
            starts[:, i, lane] = state
            state = np.bitwise_xor.reduce(_JUMP512[_set_bits(state)], axis=0)
        after.append(state)
    s0, s1, s2, s3 = starts.reshape(4, streams * lanes)
    words = s1.reshape(streams, lanes)  # a view: it follows s1's in-place steps
    t, u = np.empty((2, streams * lanes), dtype=np.uint64)
    for step in range(_LANE_BLOCK):
        out[:, :, step] = words
        _step_u64(s0, s1, s2, s3, t, u)
    return after


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
        next_u64: the one-stream case of `next_u64_arrays`."""
        return next_u64_arrays([self], k)[0]

    def next_uniform_array(self, k: int) -> np.ndarray:
        """k uniforms in [0, 1) as a float64 array, the same sequence as k
        calls to next_uniform."""
        return _uniforms(self.next_u64_array(k))

    def next_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias)."""
        if n < 1:
            raise ValueError(f"next_int needs n >= 1, got {n}")
        limit = _accept_limit(n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def next_int_array(self, n: int, k: int) -> np.ndarray:
        """k draws from [0, n) as an int64 array, the same sequence as k
        calls to next_int(n)."""
        return _int_array(self.next_u64_array, n, k)

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


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53


def next_uniform_lanes(states: np.ndarray) -> np.ndarray:
    """One next_uniform() on each of many streams at once: column l of the
    (4, L) uint64 array `states` is the state of stream l. Returns the L
    uniforms and steps every column once, in place."""
    words = states[1].copy()
    _scramble(words)
    _step_u64(*states, *np.empty((2, states.shape[1]), dtype=np.uint64))
    return _uniforms(words)


def _accept_limit(n: int) -> int:
    """Words below this are accepted for a draw from [0, n), and reduced mod
    n; the rest are rejected, so every residue is equally likely."""
    return (1 << 64) - ((1 << 64) % n)


def _int_limit(n: int, k: int) -> np.uint64:
    """Checks a draw of k integers from [0, n) and returns its acceptance
    limit as a uint64: 2**64 (n a power of 2) wraps to 0, which `_accepted`
    reads as accepting every word."""
    if not 1 <= n <= 1 << 63:
        raise ValueError(f"next_int_array needs 1 <= n <= 2**63, got {n}")
    if k < 0:
        raise ValueError(f"draw count must be >= 0, got {k}")
    return np.uint64(_accept_limit(n) & _MASK64)


def _accepted(words: np.ndarray, draw, limit: np.uint64) -> np.ndarray:
    """`words` with every word at or above `limit` rejected, as next_int
    does, and the shortfall redrawn from `draw(count)`, which returns the
    stream's next `count` words. Accepted words are kept in stream order and
    no word past the last acceptance is consumed."""
    if not limit or (words < limit).all():
        return words
    parts = [words[words < limit]]
    need = len(words) - len(parts[0])
    while need:
        x = draw(need)
        x = x[x < limit]
        parts.append(x)
        need -= len(x)
    return np.concatenate(parts)


def _int_array(draw, n: int, k: int) -> np.ndarray:
    """k draws from [0, n), the same sequence as k calls to next_int(n), from
    `draw(count)`, which returns the next `count` words of a stream."""
    limit = _int_limit(n, k)
    return (_accepted(draw(k), draw, limit) % np.uint64(n)).astype(np.int64)


def next_u64_arrays(streams: list, k: int) -> np.ndarray:
    """k raw words from each of the streams, as an (S, k) uint64 array whose
    row i is the same sequence as k calls to streams[i].next_u64(); each
    stream is left where those calls would leave it. From 32,768 words in
    all on, one lane pass gives every stream's whole lanes of 512; whole
    blocks of 256 come from the tables, the last k % 256 words from
    next_u64."""
    if k < 0:
        raise ValueError(f"draw count must be >= 0, got {k}")
    lanes = k // _LANE_BLOCK if len(streams) * k >= _LANE_MIN else 0
    body = lanes * _LANE_BLOCK
    blocks = (k - body) // _BLOCK
    head = body + blocks * _BLOCK
    out = np.empty((len(streams), k), dtype=np.uint64)
    if head:
        states = [np.array(stream.state, dtype="<u8") for stream in streams]
        if lanes:
            states = _lane_words(states, out[:, :body].reshape(len(streams), lanes, _LANE_BLOCK))
        for stream, state, row in zip(streams, states, out):
            state = _table_words(state, row[body:head].reshape(blocks, _BLOCK))
            _scramble(row[:head])
            stream.state = tuple(int(w) for w in state)
    for stream, row in zip(streams, out):
        row[head:] = [stream.next_u64() for _ in range(k - head)]
    return out


def next_int_arrays(streams: list, n: int, k: int) -> np.ndarray:
    """k draws from [0, n) from each of the streams, as an (S, k) int64
    array whose row i is streams[i].next_int_array(n, k)."""
    limit = _int_limit(n, k)
    words = next_u64_arrays(streams, k)
    for stream, row in zip(streams, words):
        row[:] = _accepted(row, stream.next_u64_array, limit)
    np.remainder(words, np.uint64(n), out=words)
    return words.view(np.int64)  # every value is below n <= 2**63


class LaneCursor:
    """Reads a stream ahead, 131,072 words at a time, and serves the bulk
    draws from that buffer: the same words in the same order as the
    stream's own bulk methods, at the lanes' per-word cost even when each
    draw is small. The stream is left up to one refill past the last word
    served, so only a consumer that never reads the stream afterwards may
    use it. A refill of 256 lanes keeps the buffer at 1 MiB, a small share
    of the pipeline's ~43 MB peak RSS."""

    __slots__ = ("stream", "buf", "pos")

    def __init__(self, stream: RngStream):
        self.stream = stream
        self.buf = np.empty(0, dtype=np.uint64)
        self.pos = 0

    def next_u64_array(self, k: int) -> np.ndarray:
        """The next k words of the stream as a uint64 array."""
        if k < 0:
            raise ValueError(f"draw count must be >= 0, got {k}")
        parts = []
        while k:
            if self.pos == len(self.buf):
                self.buf = None  # drop the spent buffer before the next one exists
                self.buf = self.stream.next_u64_array(_CURSOR_REFILL)
                self.pos = 0
            take = min(k, len(self.buf) - self.pos)
            parts.append(self.buf[self.pos : self.pos + take])
            self.pos += take
            k -= take
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def next_uniform_array(self, k: int) -> np.ndarray:
        """k uniforms in [0, 1), as RngStream.next_uniform_array."""
        return _uniforms(self.next_u64_array(k))

    def next_int_array(self, n: int, k: int) -> np.ndarray:
        """k draws from [0, n), as RngStream.next_int_array."""
        return _int_array(self.next_u64_array, n, k)


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
