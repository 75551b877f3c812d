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
because the state update J is linear over GF(2). For each power J^(2^a),
a = 0..20, a table built at import holds the image of every value of each
of the state's 64 nibbles, so a jump of m states 2^a steps on is one
gather per state word and an XOR reduction: the method of Four Russians
applied to F2-linear jump-ahead (Haramoto et al., "Efficient jump ahead
for F2-linear random number generators", INFORMS J. Computing 2008;
Blackman & Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 2021).

A bulk draw of 256 words or more in all is one lane pass: each stream
splits into L lanes of D = 2^a words, D growing as the square root of the
draw. The lane starts fill by doubling (round r jumps the first n = 2^r
starts D * n steps on into the next n), then all lanes of all the streams
step D times at once as uint64 vectors, scrambled and written out in
stream order a few steps at a time. Smaller draws step the scalar loop.
`next_u64_arrays` and `next_int_arrays` draw from several streams in one
pass, for a consumer that reads many streams alike; a stream's own bulk
draw is their one-stream case. `LaneCursor` reads a stream ahead one large
pass at a time, for a consumer that makes many mid-sized draws and never
reads the stream afterwards.

For a consumer that walks many streams in lockstep, their states sit side
by side as the columns of a (4, L) uint64 array. `derive_states` derives
a block of them in one vectorised FNV-1a + SplitMix64 pass, each the bytes
that `derive_stream`, the scalar reference, gives. `next_u64_lanes`,
`next_uniform_lanes` and `next_int_lanes` draw from every column at once,
the last with its own bound per column and each rejected word redrawn on
its own column only.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INV_2_53 = 2.0 ** -53
_POWERS = 21  # jump tables for J^(2^a), a = 0..20
_BULK_MIN = 256  # fewest words in all that take a lane pass
_PASS_MAX = 1 << 21  # most words per stream in one pass: starts jump at most 2^20 steps
_CURSOR_REFILL = 1 << 17  # words per LaneCursor refill


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
    uint64 constants: on short lane vectors the per-call cost dominates.
    Pairing the four word XORs into two calls on (2, L) row pairs, seven
    calls in all, measured slower (numpy 2.4, 2 cores): the second pair,
    rows 0-1 ^= rows 3-2, runs with a negative row stride, and the two 2-D
    calls cost more than the four 1-D ones."""
    np.left_shift(s1, _U17, out=t)
    np.bitwise_xor(s2, s0, out=s2)
    np.bitwise_xor(s3, s1, out=s3)
    np.bitwise_xor(s1, s2, out=s1)
    np.bitwise_xor(s0, s3, out=s0)
    np.bitwise_xor(s2, t, out=s2)
    np.left_shift(s3, _U45, out=u)
    np.right_shift(s3, _U19, out=s3)
    np.bitwise_or(s3, u, out=s3)


def _nibbles(states: np.ndarray) -> np.ndarray:
    """The nibbles of the m states of a C-contiguous (m, 4) uint64 array, as
    (m, 64) intp: nibble p holds state bits 4p..4p+3 (bit i is bit i % 64 of
    word i // 64) on any host, as the words are read as little-endian bytes."""
    octets = states.astype("<u8", copy=False).view(np.uint8)
    nibbles = np.empty((len(octets), 32, 2), dtype=np.intp)
    np.bitwise_and(octets, 15, out=nibbles[:, :, 0], casting="unsafe")
    np.right_shift(octets, 4, out=nibbles[:, :, 1], casting="unsafe")
    return nibbles.reshape(len(octets), 64)


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The m states of a C-contiguous (m, 4) uint64 array taken through the
    map whose (4, 64 * 16) nibble table is `table`: per state word, one
    gather at the states' 64 nibbles, XOR-reduced along the contiguous axis."""
    index = _nibbles(states) + np.arange(0, 1024, 16)
    out = np.empty((len(index), 4), dtype=np.uint64)
    for w in range(4):
        np.bitwise_xor.reduce(table[w].take(index), axis=1, out=out[:, w])
    return out


def _jump_tables() -> np.ndarray:
    """tables[a, w, 16 * p + v] is word w of the state 2^a steps on from
    the state whose only set bits are the value v in nibble p. Power a + 1
    takes the 256 unit states' images under power a through it once more,
    and a nibble's 16 values are XORs of the images of its four bits."""
    unit = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    images = unit.astype(np.uint64)  # row i: unit state i, stepped to its image under J
    _step_u64(*images.T, *np.empty((2, 256), dtype=np.uint64))
    tables = np.zeros((_POWERS, 4, 64, 16), dtype=np.uint64)
    for a, table in enumerate(tables):
        if a:
            images = _jump(tables[a - 1].reshape(4, 1024), images)
        bits = images.T.reshape(4, 64, 4)  # [word, nibble, bit of the nibble]
        for b in range(4):  # values 2^b .. 2^(b+1) - 1: those below 2^b, XOR bit b
            np.bitwise_xor(table[..., : 1 << b], bits[..., b, None], out=table[..., 1 << b : 2 << b])
    tables = tables.reshape(_POWERS, 4, 1024)
    tables.flags.writeable = False
    return tables


# Built at import (3-5 ms, 672 KiB), so the draw path needs no first-use check.
_TABLES = _jump_tables()


def _scramble(words: np.ndarray) -> None:
    """xoshiro256** output scrambler rotl(s1 * 5, 7) * 9, in place on a
    uint64 array."""
    t = np.empty_like(words)
    np.multiply(words, _U5, out=words)
    np.right_shift(words, _U57, out=t)
    np.left_shift(words, _U7, out=words)
    np.bitwise_or(words, t, out=words)
    np.multiply(words, _U9, out=words)


def _lane_pass(streams: list, out: np.ndarray) -> None:
    """Fill the (S, k) array `out` (1 <= k <= 2^21; rows contiguous) with
    the next k words of each of the S streams, and move every stream on k
    steps. Lane l of a stream starts l * D steps on, its last lane cut to
    the k - (L - 1) * D words still owed. D is the largest power of two with
    8 * D^2 <= S * k, and at least 8: D vector steps against S * k / D starts."""
    streams_n, k = out.shape
    a = max(3, (streams_n * k).bit_length() // 2 - 2)
    length = 1 << a
    lanes = -(-k // length)
    starts = np.empty((lanes, streams_n, 4), dtype=np.uint64)
    starts[0] = [stream.state for stream in streams]
    n = 1
    while n < lanes:  # jump the first n starts D * n = 2^(a + log2 n) steps on
        m = min(n, lanes - n)
        after = _jump(_TABLES[a + n.bit_length() - 1], starts[:m].reshape(m * streams_n, 4))
        starts[n : n + m] = after.reshape(m, streams_n, 4)
        n += m
    state = starts.reshape(lanes * streams_n, 4).T.copy()  # column l * S + i: lane l of stream i
    tail = k - (lanes - 1) * length
    body = out[:, : k - tail].reshape(streams_n, lanes - 1, length)
    last = out[:, k - tail :]
    steps = min(16, length)  # lane steps buffered per strided write into `out`
    buf = np.empty((steps, lanes * streams_n), dtype=np.uint64)
    scratch = np.empty((2, lanes * streams_n), dtype=np.uint64)
    for lo in range(0, length, steps):
        for j in range(steps):
            buf[j] = state[1]
            _step_u64(*state, *scratch)
            if lo + j + 1 == tail:  # each stream's last lane is done
                ends = state[:, -streams_n:].T.copy()
        _scramble(buf)
        words = buf.reshape(steps, lanes, streams_n).transpose(2, 1, 0)  # (S, L, steps)
        body[:, :, lo : lo + steps] = words[:, :-1]
        last[:, lo : lo + steps] = words[:, -1, : max(tail - lo, 0)]
    for stream, end in zip(streams, ends):
        stream.state = tuple(int(w) for w in end)


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


def next_u64_lanes(states: np.ndarray, k: int = 1) -> np.ndarray:
    """k next_u64() calls on each of many streams at once: column l of the
    (4, L) uint64 array `states` is the state of stream l. Returns the (k, L)
    words, row j the j-th word of every stream, and steps every column k
    times, in place."""
    words = np.empty((k, states.shape[1]), dtype=np.uint64)
    scratch = np.empty((2, states.shape[1]), dtype=np.uint64)
    for row in words:
        row[:] = states[1]
        _step_u64(*states, *scratch)
    _scramble(words)
    return words


def next_uniform_lanes(states: np.ndarray) -> np.ndarray:
    """One next_uniform() on each stream column of `states`, as
    `next_u64_lanes`: the L uniforms."""
    return _uniforms(next_u64_lanes(states)[0])


def next_int_lanes(states: np.ndarray, n) -> np.ndarray:
    """One next_int(n[l]) on each stream column l of `states`, as
    `next_u64_lanes`, with n an integer array (or one integer) of bounds in
    [1, 2**64): the L draws as uint64. A lane whose word is rejected redraws
    on its own column only, as next_int does, until it accepts."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or (n < 1).any():
        raise ValueError(f"next_int needs integer n >= 1, got {n}")
    n = np.broadcast_to(n.astype(np.uint64), states.shape[1:])
    limit = -((-n) % n)  # _accept_limit mod 2**64: 0 (n a power of 2) accepts every word
    words = next_u64_lanes(states)[0]
    redraw = np.flatnonzero((words >= limit) & (limit != 0))
    while len(redraw):
        lanes = states[:, redraw]
        words[redraw] = next_u64_lanes(lanes)[0]
        states[:, redraw] = lanes
        redraw = redraw[words[redraw] >= limit[redraw]]
    return words % n


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
    stream is left where those calls would leave it. From 256 words in all
    on, the streams' lanes step together in one pass (one per 2^21 words of
    a longer draw); fewer words come from next_u64."""
    if k < 0:
        raise ValueError(f"draw count must be >= 0, got {k}")
    out = np.empty((len(streams), k), dtype=np.uint64)
    if len(streams) * k < _BULK_MIN:
        for stream, row in zip(streams, out):
            row[:] = [stream.next_u64() for _ in range(k)]
    else:
        for lo in range(0, k, _PASS_MAX):
            _lane_pass(streams, out[:, lo : lo + _PASS_MAX])
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
    """Reads a stream ahead, one 131,072-word lane pass at a time, and
    serves the bulk draws from that buffer: the same words in the same
    order as the stream's own bulk methods, without each mid-sized draw
    paying a pass's fixed cost of lane starts and step calls. The stream is
    left up to one refill past the last word served, so only a consumer
    that never reads the stream afterwards may use it. The buffer's 1 MiB
    is a small share of the pipeline's ~43 MB peak RSS."""

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


_SM_GAMMA, _SM_MUL1, _SM_MUL2 = (
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
_U27, _U30, _U31 = (np.uint64(c) for c in (27, 30, 31))


def _fnv1a64_array(data: list) -> np.ndarray:
    """fnv1a64 of each byte string in `data`, as a uint64 array: the strings
    sit as the rows of one zero-padded byte matrix, and each hash takes the
    bytes of its row up to the row's length, one column at a time."""
    lengths = np.array([len(b) for b in data], dtype=np.intp)
    inside = np.arange(lengths.max(initial=0)) < lengths[:, None]
    octets = np.zeros(inside.shape, dtype=np.uint64)
    octets[inside] = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    x = np.empty_like(h)
    prime = np.uint64(_FNV_PRIME)
    for column, live in zip(octets.T, inside.T):
        np.bitwise_xor(h, column, out=x)
        np.multiply(x, prime, out=x)
        np.copyto(h, x, where=live)
    return h


def derive_states(roots, labels) -> np.ndarray:
    """The state `derive_stream(root, label)` starts from, for every pair of
    `roots` (integers) and `labels` (nonempty strings), each a scalar or an
    array-like and broadcast against each other: a (*shape, 4) uint64 array
    whose [..., w] is state word w. FNV-1a runs over all the labels' UTF-8
    bytes at once, a byte column at a time, and SplitMix64 over uint64
    vectors, so each state is the bytes `derive_stream` gives."""
    roots = np.asarray(roots, dtype=object)
    labels = np.asarray(labels, dtype=object)
    data = [label.encode("utf-8") for label in labels.ravel()]
    if not all(data):
        raise ValueError("stream label must be nonempty")
    words = np.array([int(r) & _MASK64 for r in roots.ravel()], dtype=np.uint64)
    root, label = np.broadcast_arrays(
        words.reshape(roots.shape), _fnv1a64_array(data).reshape(labels.shape)
    )
    sm = np.bitwise_xor(root.reshape(-1), label.reshape(-1))
    out = np.empty((len(sm), 4), dtype=np.uint64)
    z = np.empty_like(sm)
    for w in range(4):  # splitmix64, vectorised
        sm += _SM_GAMMA
        np.right_shift(sm, _U30, out=z)
        z ^= sm
        z *= _SM_MUL1
        z ^= z >> _U27
        z *= _SM_MUL2
        z ^= z >> _U31
        out[:, w] = z
    return out.reshape(*root.shape, 4)


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
