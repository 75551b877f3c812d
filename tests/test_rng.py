import hashlib

import numpy as np
import pytest

from griddistill.rng import (
    _TABLES,
    LaneCursor,
    RngStream,
    _jump,
    _nibbles,
    derive_stream,
    fnv1a64,
    next_int_arrays,
    next_u64_arrays,
    next_uniform_lanes,
    splitmix64,
)


def test_splitmix64_reference_output():
    # published reference sequence for seed 0
    state, out = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF
    _, out2 = splitmix64(state)
    assert out2 != out


def test_derive_stream_deterministic():
    a = derive_stream(123, "a")
    b = derive_stream(123, "a")
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_distinct_labels_distinct_streams():
    a = derive_stream(123, "a")
    b = derive_stream(123, "b")
    assert a.next_u64() != b.next_u64()


def test_replay_from_stored_state():
    s = derive_stream(5, "replay")
    s.next_u64()
    saved = s.state
    first = [s.next_uniform() for _ in range(50)]
    clone = RngStream(saved, s.label)
    assert first == [clone.next_uniform() for _ in range(50)]


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, "")


def test_fnv1a64_known_value():
    # FNV-1a published test vector: hash of "a"
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_next_uniform_range():
    s = derive_stream(9, "uniform")
    draws = [s.next_uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in draws)


# draw counts chosen around the earlier bulk mechanisms' edges (256-output
# table blocks, the 32,768-word lane threshold), kept as they were: none,
# the scalar loop, the smallest lane passes, the two init_params sizes of
# the default network, mid-sized passes, and two refills of distillation's
# read-ahead
BULK_COUNTS = (
    0, 1, 255, 256, 257, 512, 4608, 4768, 16383, 16384, 16385, 16896,
    32767, 32768, 32769, 262144,
)
BULK_STREAMS = ((77, "bulk"), (0, "student:3"), (42, "distill"))


def test_next_uniform_array_matches_scalar():
    for seed, label in BULK_STREAMS:
        a = derive_stream(seed, label)
        b = derive_stream(seed, label)
        for k in BULK_COUNTS:  # one stream carried through every count
            arr = a.next_uniform_array(k)
            scalars = np.array([b.next_uniform() for _ in range(k)])
            assert arr.dtype == np.float64
            assert np.array_equal(arr, scalars), (seed, label, k)
            assert a.state == b.state, (seed, label, k)


@pytest.mark.parametrize("seed, label", BULK_STREAMS)
@pytest.mark.parametrize("k", BULK_COUNTS)
def test_next_u64_array_matches_scalar(seed, label, k):
    a = derive_stream(seed, label)
    b = derive_stream(seed, label)
    arr = a.next_u64_array(k)
    assert arr.dtype == np.uint64
    assert [int(x) for x in arr] == [b.next_u64() for _ in range(k)]
    assert a.state == b.state


@pytest.mark.parametrize("n", (1, 5, 540, 1 << 32, (1 << 62) + 1, 1 << 63))
@pytest.mark.parametrize("k", (15, 256, 600))
def test_next_int_array_matches_scalar(n, k):
    # 2**62 + 1 rejects about a quarter of all words; 2**63 never rejects
    a = derive_stream(n, "ints")
    b = derive_stream(n, "ints")
    arr = a.next_int_array(n, k)
    assert arr.dtype == np.int64
    assert [int(x) for x in arr] == [b.next_int(n) for _ in range(k)]
    assert a.state == b.state


@pytest.mark.parametrize(
    "n, batch",
    [
        (540, 256),
        (3 << 61, 256),  # 2**64 mod n is a quarter of all words: rejection 1/4
        (540, 15),  # every per-step call takes the scalar loop
    ],
)
def test_one_schedule_draw_matches_per_step_draws(n, batch):
    # a student's whole index schedule is one draw of steps * batch
    steps = 40
    a = derive_stream(7, "student:0")
    b = derive_stream(7, "student:0")
    schedule = a.next_int_array(n, steps * batch)
    per_step = np.concatenate([b.next_int_array(n, batch) for _ in range(steps)])
    assert np.array_equal(schedule, per_step)
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize(
    "streams, k",
    [
        (3, 0),
        (3, 300),  # lanes of 8 words, the last one of 4
        (3, 10_880),  # 32,640 words in all: lanes of 32
        (3, 11_018),  # 33,054 words in all: lanes of 64, the last one of 10
        (1, 32_768),
        (10, 5_120),  # 51,200 words in all: 80 lanes of 64 per stream
    ],
)
def test_u64_arrays_match_each_stream_alone(streams, k):
    labels = [f"student:{i}" for i in range(streams)]
    block = [derive_stream(11, label) for label in labels]
    alone = [derive_stream(11, label) for label in labels]
    words = next_u64_arrays(block, k)
    assert words.dtype == np.uint64 and words.shape == (streams, k)
    for row, stream, ref in zip(words, block, alone):
        assert np.array_equal(row, ref.next_u64_array(k)), stream.label
        assert stream.state == ref.state, stream.label


@pytest.mark.parametrize("n", (540, 1 << 32, 3 << 61))
def test_int_arrays_match_each_stream_alone(n):
    # 3 * 2**61 rejects a quarter of all words, so every stream redraws
    labels = [f"student:{i}" for i in range(4)]
    block = [derive_stream(12, label) for label in labels]
    alone = [derive_stream(12, label) for label in labels]
    for k in (12_800, 300):  # a large pass, then a small one
        ints = next_int_arrays(block, n, k)
        assert ints.dtype == np.int64 and ints.shape == (4, k)
        for row, stream, ref in zip(ints, block, alone):
            assert np.array_equal(row, ref.next_int_array(n, k)), (k, stream.label)
            assert stream.state == ref.state, (k, stream.label)


def test_uniform_lanes_match_each_stream():
    # each column a stream of its own; columns are dropped between steps,
    # as a lockstep walk drops lanes that finished
    streams = [derive_stream(seed, f"eval:ID:{seed % 3}:{seed}:0") for seed in range(7)]
    refs = [derive_stream(seed, f"eval:ID:{seed % 3}:{seed}:0") for seed in range(7)]
    states = np.array([s.state for s in streams], dtype=np.uint64).T.copy()
    live = np.arange(7)
    for step in range(6):
        u = next_uniform_lanes(states)
        assert u.dtype == np.float64
        assert list(u) == [refs[l].next_uniform() for l in live], step
        assert [tuple(int(w) for w in col) for col in states.T] == [refs[l].state for l in live]
        keep = np.arange(len(live)) != step % len(live)
        live, states = live[keep], states[:, keep]
    assert next_uniform_lanes(np.empty((4, 0), dtype=np.uint64)).shape == (0,)


def test_lane_cursor_matches_stream_over_distill_reads():
    # one distillation draw is init_params' uniforms, then a real minibatch
    # of indices; 80 of them span four 131,072-word refills of the cursor
    draws = 80
    assert draws * (4768 + 256) > 3 * 131_072
    cursor = LaneCursor(derive_stream(42, "distill"))
    ref = derive_stream(42, "distill")
    for i in range(draws):
        u = cursor.next_uniform_array(4768)
        assert u.dtype == np.float64
        assert np.array_equal(u, ref.next_uniform_array(4768)), i
        idx = cursor.next_int_array(551, 256)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, ref.next_int_array(551, 256)), i
    assert np.array_equal(cursor.next_u64_array(0), ref.next_u64_array(0))
    assert np.array_equal(cursor.next_u64_array(1000), ref.next_u64_array(1000))


def test_lane_cursor_rejection_across_refills():
    # 2**64 mod 3 * 2**61 is a quarter of all words; the second int draw
    # and its shortfall redraws cross the first refill boundary
    n = 3 << 61
    cursor = LaneCursor(derive_stream(5, "ints"))
    ref = derive_stream(5, "ints")
    lead = 131_072 - 900
    assert np.array_equal(cursor.next_u64_array(lead), ref.next_u64_array(lead))
    for _ in range(3):
        assert np.array_equal(cursor.next_int_array(n, 600), ref.next_int_array(n, 600))
    # one draw longer than two refills
    assert np.array_equal(cursor.next_u64_array(300_000), ref.next_u64_array(300_000))


def test_distill_stream_draw_pinned():
    # recorded before the lanes existed; integer words only, so it holds on
    # any CPU and BLAS
    s = derive_stream(42, "distill")
    words = s.next_u64_array(262_144)
    digest = hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()
    assert digest == "6063d26441a39c17f4b488cb69ae4e8e1c98158fc38a5874b77132a462f0bf2c"
    assert s.state == (
        0x75E09D839E725E33,
        0xEDA6C2DEB8FC1AFF,
        0xCB7B33D91246AB39,
        0x864FDECE8311BEB3,
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.next_int_array(0, 10),
        lambda s: s.next_int_array((1 << 63) + 1, 10),
        lambda s: s.next_int_array(5, -1),
        lambda s: s.next_u64_array(-1),
        lambda s: s.next_uniform_array(-1),
        lambda s: LaneCursor(s).next_int_array(0, 10),
        lambda s: LaneCursor(s).next_int_array(5, -1),
        lambda s: LaneCursor(s).next_u64_array(-1),
        lambda s: next_int_arrays([s], 0, 10),
        lambda s: next_int_arrays([s], 5, -1),
        lambda s: next_u64_arrays([s], -1),
    ],
)
def test_bulk_draw_bad_arguments_rejected(call):
    with pytest.raises(ValueError):
        call(derive_stream(1, "bad"))


def test_pinned_regression_vector():
    # recorded from the pure-Python scalar generator before the bulk path
    # existed; pins both paths so they cannot drift together
    s = derive_stream(42, "distill")
    assert [s.next_u64() for _ in range(4)] == [
        0xAB9E9ED6E44FAE50,
        0x7C5CE28B2D7CC7B8,
        0xC7BBFD00372484CE,
        0xF887F72FF0CEB3EE,
    ]
    u = derive_stream(42, "init").next_uniform_array(4608)
    assert [u[i] for i in (0, 255, 256, 4607)] == [
        0.16912946873529056,
        0.5601318092307233,
        0.01748402102891089,
        0.3597256031623345,
    ]


def test_next_int_rejects_zero():
    s = derive_stream(1, "int")
    with pytest.raises(ValueError):
        s.next_int(0)


def test_next_int_buckets_within_5_sigma():
    s = derive_stream(2024, "buckets")
    n_draws = 100_000
    counts = np.zeros(5, dtype=int)
    for _ in range(n_draws):
        counts[s.next_int(5)] += 1
    p = 0.2
    sigma = (n_draws * p * (1 - p)) ** 0.5
    assert np.all(np.abs(counts - n_draws * p) <= 5 * sigma)


def test_next_gauss_moments():
    s = derive_stream(31, "gauss")
    draws = np.array([s.next_gauss() for _ in range(50_000)])
    # mean se = 1/sqrt(n), var se ~ sqrt(2/n)
    assert abs(draws.mean()) < 5 / np.sqrt(50_000)
    assert abs(draws.var() - 1.0) < 5 * np.sqrt(2 / 50_000)


def test_shuffle_empty_and_single():
    s = derive_stream(4, "shuffle")
    assert s.shuffle(0) == []
    assert s.shuffle(1) == [0]


def test_shuffle_always_permutation():
    s = derive_stream(8, "perm")
    for k in (2, 3, 10, 57):
        assert sorted(s.shuffle(k)) == list(range(k))


def test_shuffle_uniformity_small():
    # all 6 permutations of 3 elements should come up roughly equally
    s = derive_stream(15, "perm3")
    from collections import Counter

    counts = Counter(tuple(s.shuffle(3)) for _ in range(60_000))
    assert len(counts) == 6
    expected = 10_000
    sigma = (60_000 * (1 / 6) * (5 / 6)) ** 0.5
    for _perm, c in counts.items():
        assert abs(c - expected) <= 5 * sigma


# One lane pass serves every bulk draw of 256 words or more in all. Its
# lane length D is the largest power of two with 8 * D^2 <= the words drawn
# (at least 8), so D changes at 2,048 (8 -> 16), 8,192, 32,768 and 131,072
# words in all; 256 is where the scalar loop ends.
PASS_BOUNDARIES = (256, 2048, 8192, 32768, 131072)
# k = (L - 1) * D + 1 (a last lane of one word) and k = L * D (whole lanes),
# for D = 8 (L = 100), 16 (L = 200), 32 (L = 300), 64 (L = 1000), 128 (L = 1025)
LAST_LANE_COUNTS = (793, 800, 3185, 3200, 9569, 9600, 63937, 64000, 131073, 131200)
PASS_COUNTS = tuple(b + d for b in PASS_BOUNDARIES for d in (-1, 0, 1)) + LAST_LANE_COUNTS


@pytest.mark.parametrize("k", PASS_COUNTS)
def test_lane_pass_matches_scalar(k):
    a = derive_stream(19, "pass")
    b = derive_stream(19, "pass")
    arr = a.next_u64_array(k)
    ref = np.array([b.next_u64() for _ in range(k)], dtype=np.uint64)
    assert np.array_equal(arr, ref)
    assert a.state == b.state


def _assert_block_matches_alone(streams, counts):
    labels = [f"student:{i}" for i in range(streams)]
    block = [derive_stream(23, label) for label in labels]
    alone = [derive_stream(23, label) for label in labels]
    for k in counts:  # one block carried through every count
        words = next_u64_arrays(block, k)
        assert words.dtype == np.uint64 and words.shape == (streams, k)
        for row, stream, ref in zip(words, block, alone):
            assert np.array_equal(row, ref.next_u64_array(k)), (k, stream.label)
            assert stream.state == ref.state, (k, stream.label)


@pytest.mark.parametrize("streams", (2, 3, 10))
@pytest.mark.parametrize("k", PASS_COUNTS)
def test_multi_stream_pass_matches_each_stream_alone(streams, k):
    _assert_block_matches_alone(streams, [k])


@pytest.mark.parametrize("streams", (2, 3, 10))
def test_multi_stream_pass_at_boundaries_of_words_in_all(streams):
    # the size rule reads the words drawn from all the streams together, so
    # S streams cross its boundaries at S times fewer words each
    _assert_block_matches_alone(
        streams, [b // streams + d for b in PASS_BOUNDARIES for d in (-1, 0, 1)]
    )


@pytest.mark.parametrize("a", (0, 1, 3, 7, 12))
def test_jump_table_matches_scalar_steps(a):
    streams = [derive_stream(seed, "jump") for seed in range(3)]
    states = np.array([s.state for s in streams], dtype=np.uint64)
    jumped = _jump(_TABLES[a], states)
    for stream in streams:
        for _ in range(1 << a):
            stream.next_u64()
    assert [tuple(int(w) for w in row) for row in jumped] == [s.state for s in streams]


def test_nibble_p_holds_state_bits_4p_to_4p_plus_3():
    states = np.array(
        [derive_stream(seed, "nibbles").state for seed in range(5)]
        + [(1, 0, 0, 1 << 63), (0x0123456789ABCDEF, 0, 0xF, 1 << 60)],
        dtype=np.uint64,
    )
    nibbles = _nibbles(states)
    assert nibbles.shape == (len(states), 64)
    for row, state in zip(nibbles, states):
        bits = sum(int(w) << (64 * i) for i, w in enumerate(state))
        assert [int(v) for v in row] == [(bits >> (4 * p)) & 15 for p in range(64)]


def test_draw_longer_than_one_pass():
    # a draw past 2**21 words takes a second pass from where the first ended:
    # its last words are those of a stream jumped 2**21 steps on by the table
    k = (1 << 21) + 300
    s = derive_stream(29, "long")
    words = s.next_u64_array(k)
    ref = derive_stream(29, "long")
    assert np.array_equal(words[:256], ref.next_u64_array(256))
    state = np.array([derive_stream(29, "long").state], dtype=np.uint64)
    state = _jump(_TABLES[20], _jump(_TABLES[20], state))  # 2 * 2**20 steps on
    jumped = RngStream(tuple(int(w) for w in state[0]), "long")
    assert [int(x) for x in words[1 << 21 :]] == [jumped.next_u64() for _ in range(300)]
    assert s.state == jumped.state
