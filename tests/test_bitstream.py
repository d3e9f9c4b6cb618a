import dataclasses
import heapq
import itertools
import re
import struct

import numpy as np
import pytest

from granucodec import bitstream, imaging, pipeline, vq
from granucodec.bitstream import (
    MAP_CODE, MAX_CODE_LEN, BitstreamError, Container, HuffmanCode, _canonical_code,
    _huffman_lengths, build_huffman, frequency_counts, measure_rate, parse_container,
    prefix_decode, prefix_encode, read_container, serialize_container,
)
from granucodec.granularity import (
    COARSE, FINE, INDICES_PER_BLOCK, MEDIUM, RatioTriple, label_counts,
)

from conftest import make_image
from test_fuzz import _bit_flips, _reseal, _resizes, _rewrite_field


def encode_bits(symbols, code):
    """The codewords of one segment, written by `prefix_encode`, as a uint8
    array of 0/1 bits."""
    payload, (bits,) = prefix_encode([(symbols, code)])
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=bits)


def canonical_codewords(lengths: np.ndarray) -> np.ndarray:
    """Assign codewords by (length, symbol index)."""
    return _canonical_code(lengths).codewords


def kraft_sum(code: HuffmanCode) -> float:
    """Sum of 2^-len; exactly 1.0 for a full prefix code (exact arithmetic)."""
    max_len = int(code.lengths.max())
    total = sum(1 << (max_len - int(l)) for l in code.lengths)
    return total / (1 << max_len)


def weighted_total_bits(code: HuffmanCode, counts: np.ndarray) -> int:
    return int((code.lengths.astype(np.int64) * np.asarray(counts, dtype=np.int64)).sum())


def kraft_length_profiles(k):
    """All sorted code-length profiles of full prefix codes with k leaves."""
    profiles = set()

    def grow(leaves):
        if len(leaves) == k:
            profiles.add(tuple(sorted(leaves)))
            return
        if len(leaves) > k:
            return
        # split the deepest-first leaf candidates; dedupe via sorted tuples
        seen = set()
        for i, depth in enumerate(leaves):
            if depth in seen:
                continue
            seen.add(depth)
            grow(leaves[:i] + leaves[i + 1:] + [depth + 1, depth + 1])

    grow([0])
    return profiles


def brute_force_optimum(counts):
    """Minimum weighted length over all full prefix codes (oracle)."""
    ordered = sorted(counts, reverse=True)
    best = None
    for profile in kraft_length_profiles(len(counts)):
        cost = sum(c * l for c, l in zip(ordered, sorted(profile)))
        best = cost if best is None else min(best, cost)
    return best


def member_list_lengths(counts):
    """Huffman code lengths from a heap of (weight, lowest symbol, members):
    each merge moves every member one level deeper (the former builder,
    kept as the oracle)."""
    counts = [int(c) for c in counts]
    if len(counts) == 1:
        return [1]
    heap = [(w, s, [s]) for s, w in enumerate(counts)]
    heapq.heapify(heap)
    lengths = [0] * len(counts)
    while len(heap) > 1:
        w1, m1, members1 = heapq.heappop(heap)
        w2, m2, members2 = heapq.heappop(heap)
        for s in members1 + members2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(m1, m2), members1 + members2))
    return lengths


def doubling_rescue_lengths(counts):
    """Code lengths held to MAX_CODE_LEN bits by raising every count to a
    floor that doubles until the code fits (the former rescue, kept as the
    oracle of the bisected one)."""
    counts = np.asarray(counts, dtype=np.uint64)
    lengths, floor = _huffman_lengths(counts), 1
    while lengths.max() > MAX_CODE_LEN:
        floor = min(2 * floor, int(counts.max()))
        lengths = _huffman_lengths(np.maximum(counts, np.uint64(floor)))
    return lengths


def fibonacci_counts(k):
    """The first k Fibonacci numbers, k >= 2: each nests its symbol one
    level deeper, so their optimal code is k - 1 bits long."""
    fib = [1, 1]
    while len(fib) < k:
        fib.append(fib[-1] + fib[-2])
    return fib


def dyadic_lengths(max_len):
    """The code lengths 1, 2, ..., max_len - 1, max_len, max_len."""
    return np.r_[1:max_len, max_len, max_len] if max_len > 1 else np.array([1, 1])


def dyadic_counts(max_len):
    """Counts 2^(max_len - l) for l in `dyadic_lengths(max_len)`: their
    optimal code has those lengths."""
    return np.uint64(1) << (max_len - dyadic_lengths(max_len)).astype(np.uint64)


def skewed_counts(rng, n):
    """n lognormal tables of 2..299 counts, some of whose optimal codes pass
    MAX_CODE_LEN bits."""
    for _ in range(n):
        k = int(rng.integers(2, 300))
        counts = np.maximum(rng.lognormal(0, rng.uniform(1, 12), size=k), 1)
        yield counts.astype(np.uint64)


def walk_decode(bits, pos, count, code):
    """Read `count` symbols from `bits[pos:]`, extending each codeword one bit
    at a time until it is one of the code's (the former decoder, kept as the
    oracle); returns them and the position after the last one."""
    symbols = {1 << int(l) | int(w): s
               for s, (l, w) in enumerate(zip(code.lengths, code.codewords))}
    limit = 1 << int(code.lengths.max())
    out = np.empty(count, dtype=np.int32)
    try:
        for n in range(count):
            key = 1  # sentinel bit: keeps the codeword's length in the key
            while True:
                key = (key << 1) | bits[pos]
                pos += 1
                symbol = symbols.get(key)
                if symbol is not None:
                    out[n] = symbol
                    break
                if key >= limit:
                    raise BitstreamError("invalid prefix walk")
    except IndexError:
        raise BitstreamError("read past end of bit payload") from None
    return out, pos


def walk_prefix_decode(payload, pos, segments, code):
    """`prefix_decode` by the walk: each segment is walked over the bits up
    to its stop, from where the one before it ended. A walk that runs out of
    bits before the payload's end ran out of its segment, and says which.
    Once every segment is walked, the first that ends short of its stop
    raises the length mismatch. Returns each segment's symbols."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).tolist()
    out, ends = [], []
    for name, count, stop in segments:
        try:
            symbols, pos = walk_decode(bits[:stop], pos, count, code)
        except BitstreamError as exc:
            if str(exc) == "read past end of bit payload" and stop < len(bits):
                raise BitstreamError(f"read past end of the {name} segment") from None
            raise
        out.append(symbols)
        ends.append(pos)
    for (name, _, stop), end in zip(segments, ends):
        if end != stop:
            raise BitstreamError(f"{name} segment bit length mismatch (ends at bit {end}, "
                                 f"header says {stop})")
    return out


def table_decode(bits, pos, count, code):
    """One segment of `count` symbols from a list of 0/1 bits, which must end
    at the last bit."""
    payload = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    (symbols,) = prefix_decode(payload, pos, [("one", count, len(bits))], code)
    return symbols


def segment_end(bits, pos, count, code):
    """Where a segment of `count` symbols from `bits[pos:]` ends, as the
    mismatch names it when its stop is one appended zero bit later."""
    with pytest.raises(BitstreamError, match="^one segment bit length mismatch") as exc:
        table_decode(bits + [0], pos, count, code)
    return int(re.search(r"ends at bit (\d+),", str(exc.value)).group(1))


def outcome(decode, *args):
    """The decoded arrays as lists, or the error's message."""
    try:
        return [np.asarray(a).tolist() if isinstance(a, np.ndarray)
                else [np.asarray(x).tolist() for x in a] for a in decode(*args)]
    except BitstreamError as exc:
        return str(exc)


class TestHuffman:
    def test_uniform_1024_all_length_10(self):
        code = build_huffman(np.ones(1024, dtype=np.uint64))
        assert np.all(code.lengths == 10)
        assert code.mean_length == 10.0

    def test_known_small_table(self):
        code = build_huffman(np.array([5, 2, 1, 1], dtype=np.uint64))
        assert sorted(code.lengths.tolist()) == [1, 2, 3, 3]
        assert weighted_total_bits(code, [5, 2, 1, 1]) == 15
        assert code.mean_length == 2.25

    @pytest.mark.parametrize("counts,words", [
        ([1] * 5, ["110", "111", "00", "01", "10"]),
        ([1] * 6, ["100", "101", "110", "111", "00", "01"]),
        ([1] * 7, ["010", "011", "100", "101", "110", "111", "00"]),
        ([1] * 100, [format(w, "07b") for w in range(56, 128)]
         + [format(w, "06b") for w in range(28)]),
        ([1, 1, 2, 2, 4, 4], ["1110", "1111", "110", "00", "01", "10"]),
        ([2, 1, 1, 2, 1, 1], ["00", "100", "101", "01", "110", "111"]),
        ([3, 3, 1, 1, 2, 2, 5, 5],
         ["100", "101", "11110", "11111", "1110", "110", "00", "01"]),
        ([1, 2, 1, 1], ["110", "0", "111", "10"]),  # a merged node's lowest
        ([2, 2, 3, 1], ["110", "10", "0", "111"]),  # symbol breaks the tie
    ])
    def test_tie_heavy_tables_pinned(self, counts, words):
        # equal weights merge the node holding the lowest symbol first; these
        # per-symbol lengths and codewords are the container format's
        code = build_huffman(np.array(counts, dtype=np.uint64))
        assert [format(int(w), f"0{int(l)}b")
                for w, l in zip(code.codewords, code.lengths)] == words

    def test_lengths_match_member_list_oracle(self):
        rng = np.random.default_rng(21)
        tables = [[42], [3, 5], [5, 3], [7, 7], [1] * 1024, [9] * 17, [2, 1, 1, 2, 1]]
        for _ in range(300):
            k = int(rng.integers(1, 400))
            high = int(rng.choice([3, 1000, 1 << 40]))  # many ties, few, none
            tables.append(rng.integers(1, high, size=k).tolist())
        for counts in tables:
            lengths = _huffman_lengths(np.array(counts, dtype=np.uint64))
            assert lengths.tolist() == member_list_lengths(counts), counts

    def test_lengths_match_member_list_oracle_past_64_bits(self):
        # merged weights pass 2^64, so the packed heap keys outgrow 64 bits
        # and must still order by weight, then by lowest symbol
        rng = np.random.default_rng(26)
        top = (1 << 64) - 1
        tables = [[top] * k for k in (2, 3, 5, 64, 257, 300)]
        for _ in range(100):
            k = int(rng.integers(2, 300))
            low = int(rng.choice([1, 1 << 63]))  # counts of every size, or all huge
            tables.append(rng.integers(low, top, size=k, dtype=np.uint64,
                                       endpoint=True).tolist())
        for counts in tables:
            lengths = _huffman_lengths(np.array(counts, dtype=np.uint64))
            assert lengths.tolist() == member_list_lengths(counts), counts

    def test_tie_order_exhaustive_small_tables(self):
        # every ordered table of k <= 5 counts in 1..4: ties are where a
        # wrong merge order would change the lengths
        tables = [c for k in range(1, 6) for c in itertools.product(range(1, 5), repeat=k)]
        assert len(tables) == 1364
        for counts in tables:
            code = build_huffman(np.array(counts, dtype=np.uint64))
            assert code.lengths.tolist() == member_list_lengths(counts), counts

    def test_symbol_field_wider_than_16_bits(self):
        # symbol 2^16 needs a 17-bit field in the packed merge key
        counts = np.random.default_rng(9).integers(1, 4, size=(1 << 16) + 1)
        lengths = _huffman_lengths(counts.astype(np.uint64))
        assert lengths.tolist() == member_list_lengths(counts)

    def test_session_lengths_match_member_list_oracle(self, session):
        counts = session.frequencies.counts
        assert session.huffman.lengths.tolist() == member_list_lengths(counts)

    def test_single_symbol_length_one(self):
        code = build_huffman(np.array([42], dtype=np.uint64))
        assert code.lengths.tolist() == [1]

    def test_zero_count_rejected(self):
        with pytest.raises(BitstreamError, match=">= 1"):
            build_huffman(np.array([3, 0, 1], dtype=np.uint64))

    def test_skewed_table_beyond_63_bits_rejected(self):
        fib = fibonacci_counts(100)
        assert _huffman_lengths(np.array(fib[:64], dtype=np.uint64)).max() == 63
        for k in (64, 93):  # fib[92] is the largest in uint64
            code = build_huffman(np.array(fib[:k], dtype=np.uint64))
            assert code.lengths.max() <= MAX_CODE_LEN and kraft_sum(code) == 1.0
            stream = np.r_[np.arange(k), np.random.default_rng(k).integers(0, k, size=200)]
            bits = encode_bits(stream, code).tolist()
            assert table_decode(bits, 0, stream.size, code).tolist() == stream.tolist()
        with pytest.raises(BitstreamError):
            build_huffman(fib)  # counts past 64 bits

    def test_optimal_code_kept_when_it_fits_16_bits(self):
        # skewed tables: the optimal code where it fits, else a full code
        # that does
        fits = set()
        for counts in skewed_counts(np.random.default_rng(22), 60):
            optimal = _huffman_lengths(counts)
            code = build_huffman(counts)
            if optimal.max() <= MAX_CODE_LEN:
                assert code.lengths.tolist() == optimal.tolist()
            else:
                assert code.lengths.max() <= MAX_CODE_LEN and kraft_sum(code) == 1.0
            fits.add(bool(optimal.max() <= MAX_CODE_LEN))
        assert fits == {True, False}

    def test_rescue_matches_doubling_oracle(self):
        # the bisected floor is the doubling loop's first floor that fits,
        # on every overlong table this file builds
        tables = [np.array(fibonacci_counts(k), dtype=np.uint64) for k in range(18, 94)]
        tables += [dyadic_counts(max_len) for max_len in range(17, 64)]
        tables += list(skewed_counts(np.random.default_rng(22), 60))
        tables += list(skewed_counts(np.random.default_rng(23), 300))
        overlong = 0
        for counts in tables:
            overlong += int(_huffman_lengths(counts).max() > MAX_CODE_LEN)
            want = doubling_rescue_lengths(counts)
            assert build_huffman(counts).lengths.tolist() == want.tolist(), counts
        assert overlong > 200

    def test_rescue_builds_bounded(self, monkeypatch):
        # 64-symbol dyadic counts up to 2^62: doubling the floor took 48
        # builds; bisecting its exponent over 64-bit counts takes at most 8
        calls = []

        def counted(counts):
            calls.append(counts)
            return _huffman_lengths(counts)
        monkeypatch.setattr(bitstream, "_huffman_lengths", counted)
        code = build_huffman(dyadic_counts(63))
        assert code.lengths.max() == MAX_CODE_LEN and kraft_sum(code) == 1.0
        assert len(calls) <= 8

    def test_alphabet_above_2_16_rejected(self):
        assert np.all(build_huffman(np.ones(1 << 16, dtype=np.uint64)).lengths == 16)
        with pytest.raises(BitstreamError, match="65537 symbols"):
            build_huffman(np.ones((1 << 16) + 1, dtype=np.uint64))

    def test_kraft_equality_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            counts = rng.integers(1, 1000, size=1024).astype(np.uint64)
            assert kraft_sum(build_huffman(counts)) == 1.0

    def test_optimal_small_alphabets(self):
        rng = np.random.default_rng(1)
        for k in range(2, 7):
            for _ in range(30):
                counts = rng.integers(1, 50, size=k).astype(np.uint64)
                code = build_huffman(counts)
                assert weighted_total_bits(code, counts) == brute_force_optimum(counts)

    def test_prefix_free(self):
        code = build_huffman(np.array([9, 4, 2, 2, 1, 1], dtype=np.uint64))
        words = [format(int(w), f"0{int(l)}b")
                 for w, l in zip(code.codewords, code.lengths)]
        for a, b in itertools.permutations(words, 2):
            assert not b.startswith(a)

    def test_codewords_match_reference_loop(self):
        # codewords assigned one symbol at a time in sorted (length, symbol) order
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = int(rng.integers(1, 300))
            code = build_huffman(rng.integers(1, 1000, size=k).astype(np.uint64))
            want = np.zeros(k, dtype=np.int64)
            word = prev_len = 0
            for s in sorted(range(k), key=lambda s: (code.lengths[s], s)):
                word <<= int(code.lengths[s]) - prev_len
                want[s] = word
                word += 1
                prev_len = int(code.lengths[s])
            assert np.array_equal(code.codewords, want)
            assert np.array_equal(canonical_codewords(code.lengths), want)

    def test_canonical_ordering(self):
        lengths = np.array([3, 1, 3, 2], dtype=np.int32)
        words = canonical_codewords(lengths)
        # (length, symbol) order: sym1 len1, sym3 len2, sym0 len3, sym2 len3
        assert words[1] == 0b0
        assert words[3] == 0b10
        assert words[0] == 0b110
        assert words[2] == 0b111


def window_oracle(lengths):
    """The decoder's table of max_len-bit windows as `prefix_decode` built it
    on every call before each code held it: in (length, symbol) order, each
    symbol owns the 2^(max_len - length) windows its codeword starts, and the
    windows left over hold k."""
    max_len = int(lengths.max())
    order = np.argsort(lengths, kind="stable")
    owned = np.repeat(order, 1 << (max_len - lengths[order])).astype(np.int32)
    return np.pad(owned, (0, (1 << max_len) - owned.size), constant_values=lengths.size)


def window_length_oracle(code):
    """The code length at each window, as `prefix_decode` built it from the
    windows on every call before each code held it: 0 where none starts."""
    return np.append(code.lengths, 0).astype(np.uint8)[code.windows]


def random_complete_lengths(rng, k):
    """The lengths of a complete prefix code over k >= 2 symbols, none past
    `MAX_CODE_LEN`, from splitting random leaves of a one-leaf tree, shuffled."""
    leaves = [0]
    while len(leaves) < k:
        i = rng.choice([i for i, depth in enumerate(leaves) if depth < MAX_CODE_LEN])
        leaves[i:i + 1] = [leaves[i] + 1] * 2
    rng.shuffle(leaves)
    return np.array(leaves, dtype=np.int32)


class TestCodeTables:
    """A code carries the symbol and the code length of each decode window, and
    L, all built once from its lengths."""

    def test_windows_match_the_per_call_construction(self):
        rng = np.random.default_rng(37)
        length_sets = [np.array([1]), np.full(1 << 16, 16), dyadic_lengths(16),
                       np.array([1, 2, 2])]
        length_sets += [random_complete_lengths(rng, int(k))
                        for k in [*rng.integers(2, 600, size=40), 2, 3]]
        longest = set()
        for lengths in length_sets:
            code = _canonical_code(lengths)
            want = window_oracle(np.asarray(lengths, dtype=np.int32))
            assert code.windows.dtype == want.dtype == np.int32
            assert np.array_equal(code.windows, want)
            assert code.window_lengths.dtype == np.uint8
            assert np.array_equal(code.window_lengths, window_length_oracle(code))
            assert code.mean_length == float(np.mean(lengths))
            longest.add(int(np.max(lengths)))
        assert MAX_CODE_LEN in longest and 1 in longest
        assert np.array_equal(MAP_CODE.windows, window_oracle(MAP_CODE.lengths))
        assert np.array_equal(MAP_CODE.window_lengths, window_length_oracle(MAP_CODE))

    def test_each_codeword_owns_the_windows_it_starts(self):
        rng = np.random.default_rng(38)
        for k in (1, 2, 3, 17, 300):
            lengths = np.array([1]) if k == 1 else random_complete_lengths(rng, k)
            code = _canonical_code(lengths)
            span = code.lengths.max() - code.lengths
            for s in range(k):
                first = int(code.codewords[s]) << int(span[s])
                assert np.all(code.windows[first:first + (1 << int(span[s]))] == s)
            assert np.count_nonzero(code.windows == k) == (1 if k == 1 else 0)


class TestFrequencyCounts:
    @pytest.mark.parametrize("counts,at,shown", [
        (np.array([-1, 1, 1]), 0, "-1"),  # read as 2^64 - 1 without the check
        (np.array([-1.5, 2.0]), 0, "-1.5"),
        (np.array([3.0, 2.5, 1.0]), 1, "2.5"),
        (np.array([4.0, 1.0, np.nan]), 2, "nan"),
        (np.array([1.0, np.inf]), 1, "inf"),
        (np.array([1.0, 2.0 ** 64]), 1, "1.8446744073709552e+19"),
        ([1, 1, 1 << 64], 2, "18446744073709551616"),
        (np.array([5, 0, 1], dtype=np.uint64), 1, "0"),
        (np.array([3, -2], dtype=np.int64), 1, "-2"),
        (np.array([1, 0], dtype=np.int8), 1, "0"),
        (np.array([2, -1, 0], dtype=np.int16), 1, "-1"),  # the first bad code is named
    ], ids=["negative", "negative fraction", "fraction", "nan", "inf", "float 2^64",
            "int 2^64", "zero", "signed negative", "narrow zero", "first of two"])
    def test_bad_count_names_its_code(self, counts, at, shown):
        message = re.escape(f"code {at} has frequency count {shown}; every count must be "
                            "an integer >= 1 and below 2^64")
        cb = vq.Codebook(np.zeros((len(counts), 3), dtype=np.float32))
        for refuse in (frequency_counts, build_huffman,
                       lambda c: pipeline.CodecSession(cb, vq.FrequencyTable(c))):
            with pytest.raises(BitstreamError, match="^" + message):
                refuse(counts)

    @pytest.mark.parametrize("counts", [
        [2, 3], [2.0, 3.0], np.array([1, (1 << 64) - 1], dtype=np.uint64),
        np.array([1, (1 << 64) - 1], dtype=object), np.array([7], dtype=np.int8)])
    def test_whole_counts_of_any_type_kept(self, counts):
        got = frequency_counts(counts)
        assert got.dtype == np.uint64 and got.tolist() == [int(c) for c in counts]

    def test_empty_alphabet_refused(self):
        with pytest.raises(BitstreamError, match=r"^0 symbols: a 16-bit prefix code holds "
                                                 r"1 to 65536"):
            build_huffman(np.array([], dtype=np.uint64))


def bit_string_oracle(symbols, code):
    """The codewords of `symbols` written out one at a time as a '0'/'1' string."""
    return "".join(format(int(code.codewords[s]), f"0{int(code.lengths[s])}b")
                   for s in symbols)


def unpack64_oracle(symbols, code):
    """Each codeword as 64 bits, MSB first, keeping the last `length` of each."""
    symbols = np.asarray(symbols, dtype=np.int64)
    bits = np.unpackbits(code.codewords[symbols].astype(">u8").view(np.uint8))
    keep = np.arange(64) >= 64 - code.lengths[symbols, None]
    return bits.reshape(-1, 64)[keep]


def packbits_oracle(segments):
    """The payload as the encoder wrote it before its word writer: each
    segment's codewords as one byte per bit, the segments joined and packed
    by np.packbits. Returns the payload and each segment's bit length."""
    segs = [unpack64_oracle(symbols, code) for symbols, code in segments]
    return np.packbits(np.concatenate(segs)).tobytes(), [seg.size for seg in segs]


def dyadic_code(max_len):
    """The code of `dyadic_counts(max_len)`."""
    code = build_huffman(dyadic_counts(max_len))
    if max_len <= MAX_CODE_LEN:
        assert code.lengths.tolist() == dyadic_lengths(max_len).tolist()
    return code


def encode_map(gmap):
    return encode_bits(COARSE - np.asarray(gmap, dtype=np.int64), MAP_CODE)


def decode_map(bits, by, bx):
    labels = table_decode(bits, 0, by * bx, MAP_CODE)
    return (COARSE - labels).astype(np.uint8).reshape(by, bx)


class TestIndexCoding:
    def test_empty_stream(self):
        code = build_huffman(np.ones(16, dtype=np.uint64))
        assert encode_bits(np.array([], dtype=np.int32), code).size == 0

    def test_uniform_code_bit_count(self):
        code = build_huffman(np.ones(1024, dtype=np.uint64))
        assert encode_bits(np.arange(16), code).size == 160

    def test_roundtrip_random_streams(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 200))
            counts = rng.integers(1, 100, size=k).astype(np.uint64)
            code = build_huffman(counts)
            stream = rng.integers(0, k, size=rng.integers(0, 500))
            bits = encode_bits(stream, code).tolist()
            decoded = table_decode(bits, 0, stream.size, code)
            assert np.array_equal(decoded, stream)
            assert segment_end(bits, 0, stream.size, code) == len(bits)

    def test_matches_bit_string_oracle(self):
        rng = np.random.default_rng(4)
        fib = fibonacci_counts(64)
        codes = [build_huffman(rng.integers(1, 1000, size=int(rng.integers(1, 300)))
                               .astype(np.uint64)) for _ in range(20)]
        codes.append(build_huffman(np.array(fib, dtype=np.uint64)))  # capped at 16 bits
        for code in codes:
            stream = rng.integers(0, code.k, size=int(rng.integers(0, 400)))
            stream = np.concatenate([stream, np.argsort(-code.lengths)[:3]])
            bits = encode_bits(stream, code)
            assert bits.dtype == np.uint8
            assert "".join(map(str, bits.tolist())) == bit_string_oracle(stream, code)
        assert codes[-1].lengths.max() == MAX_CODE_LEN

    @pytest.mark.parametrize("max_len", [1, 8, 9, 16, 17, 32, 33, 63])
    def test_every_word_width_matches_64_bit_unpack(self, max_len):
        # the code of dyadic counts: lengths 1, 2, ..., max_len - 1, max_len,
        # max_len up to 16 bits, and past them a code held to 16 bits
        code = dyadic_code(max_len)
        assert code.lengths.max() == min(max_len, MAX_CODE_LEN) and kraft_sum(code) == 1.0
        rng = np.random.default_rng(max_len)
        stream = np.concatenate([np.arange(code.k), rng.integers(0, code.k, size=300)])
        bits = encode_bits(stream, code)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, unpack64_oracle(stream, code))

    @pytest.mark.parametrize("max_len", [1, 8, 9, 16, 17, 32, 33, 63])
    def test_long_codewords_round_trip(self, max_len):
        # the same codes, decoded from bit 5 on: tables that ask for codewords
        # past 16 bits get a full code that fits the window table
        code = dyadic_code(max_len)
        assert code.lengths.max() <= MAX_CODE_LEN and kraft_sum(code) == 1.0
        rng = np.random.default_rng(max_len)
        stream = np.concatenate([np.arange(code.k), rng.integers(0, code.k, size=300)])
        bits = [1, 0, 1, 1, 0] + encode_bits(stream, code).tolist()
        decoded = table_decode(bits, 5, stream.size, code)
        assert np.array_equal(decoded, stream)
        assert segment_end(bits, 5, stream.size, code) == len(bits)

    def test_fibonacci_code_round_trip(self):
        fib = fibonacci_counts(64)
        code = build_huffman(np.array(fib, dtype=np.uint64))
        assert code.lengths.max() <= MAX_CODE_LEN and kraft_sum(code) == 1.0
        stream = np.r_[np.arange(64), np.random.default_rng(6).integers(0, 64, size=6000)]
        bits = encode_bits(stream, code).tolist()
        assert len(bits) > 1 << 16  # more bit positions than the window table has windows
        decoded = table_decode(bits, 0, stream.size, code)
        assert np.array_equal(decoded, stream)
        assert segment_end(bits, 0, stream.size, code) == len(bits)

    def test_map_code_matches_64_bit_unpack(self):
        stream = np.random.default_rng(3).integers(0, 3, size=500)
        assert np.array_equal(encode_bits(stream, MAP_CODE),
                              unpack64_oracle(stream, MAP_CODE))

    def test_symbol_out_of_range(self):
        # one error and message, whichever segment holds the symbol
        code = build_huffman(np.ones(4, dtype=np.uint64))
        for bad in (4, -1, 1 << 40):
            message = f"^symbol {bad} outside alphabet of size 4$"
            with pytest.raises(BitstreamError, match=message):
                encode_bits(np.array([0, bad]), code)
            with pytest.raises(BitstreamError, match=message):
                prefix_encode([(np.array([0, 1]), MAP_CODE), (np.array([0, bad, 3, 5]), code)])

    def test_symbol_named_as_given(self):
        # the range check reads the symbols before any cast, so a uint64
        # symbol past 2^63 is named as passed, not as its int64 wrap
        code = build_huffman(np.ones(4, dtype=np.uint64))
        symbols = np.array([0, (1 << 63) + 1], dtype=np.uint64)
        with pytest.raises(BitstreamError, match="^symbol 9223372036854775809 outside"):
            prefix_encode([(symbols, code)])

    @pytest.mark.parametrize("symbols", [[1.5], np.array([1.0]), np.array([], dtype=np.float64)])
    def test_non_integer_symbols_rejected(self, symbols):
        # a float symbol is refused, not truncated to the codeword of another
        with pytest.raises(BitstreamError, match="float64 are not integers$"):
            prefix_encode([(symbols, MAP_CODE)])

    @pytest.mark.parametrize("bits", [[1], [1, 0]])
    def test_invalid_prefix_walk(self, bits):
        code = build_huffman(np.array([42], dtype=np.uint64))  # one codeword: 0
        with pytest.raises(BitstreamError, match="invalid prefix walk"):
            table_decode(bits, 0, 1, code)

    def test_truncated_payload(self):
        code = build_huffman(np.ones(16, dtype=np.uint64))
        bits = encode_bits(np.array([1, 2, 3]), code).tolist()
        with pytest.raises(BitstreamError, match="past end"):
            table_decode(bits[:-2], 0, 3, code)

    def test_segment_ending_short_raises_mismatch(self):
        # three 4-bit codewords, then two bits more that the stop takes in
        code = build_huffman(np.ones(16, dtype=np.uint64))
        bits = encode_bits(np.array([1, 2, 3]), code).tolist() + [0, 0]
        message = r"^one segment bit length mismatch \(ends at bit 12, header says 14\)$"
        with pytest.raises(BitstreamError, match=message):
            table_decode(bits, 0, 3, code)
        payload = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
        with pytest.raises(BitstreamError, match=message):
            walk_prefix_decode(payload, 0, [("one", 3, 14)], code)


class TestPayloadWriter:
    """`prefix_encode` writes the bytes and bit lengths of `packbits_oracle`."""

    def test_random_codes_match_oracle(self):
        rng = np.random.default_rng(23)
        codes = [MAP_CODE, *(dyadic_code(max_len) for max_len in range(1, MAX_CODE_LEN + 1))]
        codes += [build_huffman(rng.integers(1, 1 << int(rng.integers(1, 40)),
                                             size=int(rng.integers(1, 600))).astype(np.uint64))
                  for _ in range(40)]
        assert {int(c.lengths.max()) for c in codes} == set(range(1, MAX_CODE_LEN + 1))
        ends = []
        for trial in range(120):
            picks = rng.integers(0, len(codes), size=int(rng.integers(1, 6)))
            segments = [(rng.integers(0, codes[i].k, size=int(rng.integers(0, 90))), codes[i])
                        for i in picks]
            want = packbits_oracle(segments)
            assert prefix_encode(segments) == want
            ends += np.cumsum(want[1]).tolist()
        # segments end mid-byte, and on a byte boundary inside a word
        ends = np.array(ends)
        assert np.any(ends % 8) and np.any((ends % 8 == 0) & (ends % 32 != 0))

    def test_every_alignment_of_segment_ends(self):
        # a map segment of exactly `lead` bits, then segments of the longest
        # codewords, an empty one and a single symbol, so that segment ends
        # fall at every offset within a byte and a 32-bit word
        code = dyadic_code(MAX_CODE_LEN)
        longest = np.flatnonzero(code.lengths == MAX_CODE_LEN)
        for lead in range(70):
            rng = np.random.default_rng(lead)
            labels = []
            while sum(MAP_CODE.lengths[labels]) < lead - 1:
                labels.append(int(rng.integers(0, 3)))
            labels += [0] * (lead - int(sum(MAP_CODE.lengths[labels])))
            segments = [(np.array(labels, dtype=np.int64), MAP_CODE),
                        (np.r_[longest, rng.integers(0, code.k, size=lead)], code),
                        (np.array([], dtype=np.int64), code),
                        (longest[:1], code)]
            payload, bits = prefix_encode(segments)
            assert bits[0] == lead and bits[2] == 0 and bits[3] == MAX_CODE_LEN
            assert (payload, bits) == packbits_oracle(segments), lead

    def test_empty_and_single_symbol_payloads(self):
        code = build_huffman(np.ones(5, dtype=np.uint64))
        empty = np.array([], dtype=np.int64)
        assert prefix_encode([(empty, MAP_CODE), (empty, code)]) == (b"", [0, 0])
        for symbols, c in [([2], MAP_CODE), ([4], code), ([0], build_huffman([7]))]:
            assert prefix_encode([(symbols, c)]) == packbits_oracle([(symbols, c)])


class TestWalkOracle:
    """The table decoder gives the walk's symbols and end positions, or its
    error message."""

    def test_random_codes(self):
        rng = np.random.default_rng(8)
        seen = set()
        for trial in range(300):
            k = int(rng.integers(1, 40)) if trial % 3 else int(rng.integers(1, 3))
            code = build_huffman(rng.integers(1, int(rng.choice([3, 1000, 1 << 30])),
                                              size=k).astype(np.uint64))
            stream = rng.integers(0, k, size=int(rng.integers(0, 60)))
            bits = encode_bits(stream, code)
            if trial % 2:  # damage: flip, drop or append bits
                bits = np.r_[bits, rng.integers(0, 2, size=int(rng.integers(0, 9)))]
                bits[rng.integers(0, bits.size, size=min(bits.size, 2))] ^= 1
                bits = bits[:int(rng.integers(0, bits.size + 1))]
            payload = np.packbits(bits).tobytes()
            cuts = np.sort(rng.integers(0, stream.size + 1, size=2))
            counts = np.diff(np.r_[0, cuts, stream.size]).tolist()
            stops = np.sort(rng.integers(0, 8 * len(payload) + 17, size=3)).tolist()
            if trial % 4 == 0:  # an undamaged stream and its segments' true ends
                stops = np.r_[0, np.cumsum(code.lengths[stream])][np.cumsum(counts)].tolist()
            args = (payload, 0, list(zip(("first", "second", "third"), counts, stops)), code)
            want = outcome(walk_prefix_decode, *args)
            assert outcome(prefix_decode, *args) == want, (code.lengths, args)
            seen.add(re.sub(r" \(ends at bit \d+, header says \d+\)$", "", want)
                     if isinstance(want, str) else "ok")
        assert seen == {"ok", "invalid prefix walk", "read past end of bit payload",
                        "read past end of the first segment",
                        "read past end of the second segment",
                        "read past end of the third segment",
                        "first segment bit length mismatch",
                        "second segment bit length mismatch"}

    @pytest.mark.parametrize("mode", [dict(ratios=RatioTriple(0.70, 0.25, 0.05)),
                                      dict(target_bpp=0.10)], ids=["hirate", "lorate"])
    def test_encodes_of_every_image_kind(self, session, mode, monkeypatch):
        for seed, kind in enumerate(["noise", "gradient", "blocky", "photo", "waves"]):
            c = pipeline.encode_image(session, make_image(kind, 96, 136, seed=60 + seed),
                                      **mode)
            got = outcome(pipeline.decode_streams, session, c)
            assert not isinstance(got, str)
            with monkeypatch.context() as m:
                m.setattr(bitstream, "prefix_decode", walk_prefix_decode)
                assert outcome(pipeline.decode_streams, session, c) == got

    def test_fuzzed_containers(self, small_session, monkeypatch):
        rng = np.random.default_rng(2026)
        img = make_image("photo", 80, 96, seed=21)
        data = serialize_container(
            pipeline.encode_image(small_session, img, ratios=RatioTriple(0.4, 0.4, 0.2)))
        c0 = parse_container(data)
        header_len = len(data) - len(c0.payload)
        # the payload cut by 1 to 4 bytes and the coarse segment's length cut
        # to match, so the coarse symbols run past the payload's end; the
        # damaged streams above stop inside the payload, at a segment's end.
        # A cut that would pass the coarse segment's start is left out
        fine, medium, _ = c0.index_bits
        cuts = [serialize_container(dataclasses.replace(
                    c0, index_bits=(fine, medium, 8 * n - c0.map_bits - fine - medium),
                    payload=c0.payload[:n]))
                for n in range(len(c0.payload) - 4, len(c0.payload))
                if 8 * n >= c0.map_bits + fine + medium]
        mutated = [*_bit_flips(rng, data, 300, header_len), *_resizes(rng, data, 100)]
        cases = [*map(_reseal, mutated), *(_rewrite_field(rng, data) for _ in range(300)),
                 *cuts]
        outcomes = []
        for blob in cases:
            try:
                c = parse_container(blob)
            except BitstreamError:
                continue
            got = outcome(pipeline.decode_streams, small_session, c)
            with monkeypatch.context() as m:
                m.setattr(bitstream, "prefix_decode", walk_prefix_decode)
                assert outcome(pipeline.decode_streams, small_session, c) == got
            outcomes.append(got if isinstance(got, str) else "ok")
        assert "ok" in outcomes
        assert "read past end of bit payload" in outcomes
        assert "read past end of the fine segment" in outcomes


class TestMapCoding:
    def test_map_code_codewords(self):
        # symbol COARSE - label: coarse 0, medium 10, fine 11
        words = [format(int(w), f"0{int(l)}b")
                 for w, l in zip(MAP_CODE.codewords, MAP_CODE.lengths)]
        assert words == ["0", "10", "11"]
        assert encode_map([[COARSE, MEDIUM, FINE]]).tolist() == [0, 1, 0, 1, 1]

    def test_all_coarse_one_bit_per_block(self):
        gmap = np.full((4, 4), COARSE, dtype=np.uint8)
        assert encode_map(gmap).size == 16

    def test_fine_coarse_bits(self):
        bits = encode_map(np.array([[FINE, COARSE]], dtype=np.uint8))
        assert bits.size == 3
        assert np.packbits(bits).tobytes() == bytes([0b11000000])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            by, bx = rng.integers(1, 9, size=2)
            gmap = rng.integers(0, 3, size=(by, bx)).astype(np.uint8)
            bits = encode_map(gmap).tolist()
            decoded = decode_map(bits, by, bx)
            assert np.array_equal(decoded, gmap)
            assert segment_end(bits, 0, by * bx, MAP_CODE) == len(bits)


class TestPackUnpack:
    """`unpack` reads back, from the serialized container, the map and the
    three streams `pack` wrote."""

    @staticmethod
    def round_trip(w, h, gmap, code, rng):
        counts = (label_counts(gmap) * INDICES_PER_BLOCK).tolist()
        streams = [rng.integers(0, code.k, size=n) for n in counts]
        c = bitstream.pack(w, h, 0x0123456789ABCDEF, gmap, streams, code)
        c = parse_container(serialize_container(c))
        assert (c.true_w, c.true_h, c.codebook_hash) == (w, h, 0x0123456789ABCDEF)
        got_map, got = bitstream.unpack(c, code)
        assert got_map.dtype == np.uint8 and np.array_equal(got_map, gmap)
        assert [s.tolist() for s in got] == [s.tolist() for s in streams]
        return c

    def test_one_block_all_coarse(self):
        code = build_huffman(np.arange(1, 9, dtype=np.uint64))
        c = self.round_trip(1, 1, np.full((1, 1), COARSE, np.uint8), code,
                            np.random.default_rng(0))
        assert (c.map_bits, c.index_bits[:2]) == (1, (0, 0))

    def test_all_fine(self):
        code = build_huffman(np.ones(1024, dtype=np.uint64))
        c = self.round_trip(40, 33, np.full((3, 3), FINE, np.uint8), code,
                            np.random.default_rng(1))
        assert c.index_bits == (9 * 16 * 10, 0, 0)

    def test_random_maps(self):
        rng = np.random.default_rng(5)
        empty = 0
        for _ in range(40):
            by, bx = (int(n) for n in rng.integers(1, 7, size=2))
            w, h = (int(rng.integers(16 * (n - 1) + 1, 16 * n + 1)) for n in (bx, by))
            labels = rng.choice(3, size=int(rng.integers(1, 4)), replace=False)
            gmap = rng.choice(labels, size=(by, bx)).astype(np.uint8)
            code = build_huffman(rng.integers(1, 100, size=int(rng.integers(1, 300))))
            c = self.round_trip(w, h, gmap, code, rng)
            empty += 0 in c.index_bits
        assert empty > 0


def _container():
    return Container(
        true_w=30, true_h=17, codebook_hash=0x0123456789ABCDEF,
        index_bits=(4, 4, 0), map_bits=4,  # 4 blocks: 1 bit each
        payload=bytes([0b1011_0110, 0b1101_0000]),  # 12 bits, zero-padded
    )


class TestContainer:
    def test_serialize_parse_identity(self):
        c = _container()
        c2 = parse_container(serialize_container(c))
        assert c2 == c

    def test_every_header_byte_flip_detected(self):
        data = bytearray(serialize_container(_container()))
        header_len = len(data) - len(_container().payload)
        for pos in range(header_len):
            for flip in (0x01, 0xFF):
                corrupt = bytearray(data)
                corrupt[pos] ^= flip
                with pytest.raises(BitstreamError):
                    parse_container(bytes(corrupt))

    @staticmethod
    def _map_only(padded, map_bits):
        return Container(true_w=padded, true_h=padded, codebook_hash=0,
                         index_bits=(0, 0, 0), map_bits=map_bits,
                         payload=bytes((map_bits + 7) // 8))

    @pytest.mark.parametrize("padded,map_bits", [
        (32, 3), (32, 9), (32, 0),  # 4 blocks need 4..8 map bits
        (4294967280, 8),  # ~7.2e16 blocks declared by a one-byte payload
    ])
    def test_map_bits_outside_block_bounds_rejected(self, padded, map_bits):
        with pytest.raises(BitstreamError, match="map bit length"):
            parse_container(serialize_container(self._map_only(padded, map_bits)))

    @pytest.mark.parametrize("map_bits", [4, 8])
    def test_map_bits_at_block_bounds_accepted(self, map_bits):
        c = self._map_only(32, map_bits)
        assert parse_container(serialize_container(c)) == c

    def test_map_length_mismatch_names_the_segment(self):
        # the 4 coarse labels end after 4 of the 5 map bits the header declares
        c = parse_container(serialize_container(self._map_only(32, 5)))
        with pytest.raises(BitstreamError, match=r"^map segment bit length mismatch "
                                                 r"\(ends at bit 4, header says 5\)$"):
            bitstream.decode_map(c)

    def test_index_length_mismatch_names_the_segment(self, small_session):
        # the fine length one bit long and the coarse one bit short: the
        # container parses, and the first segment to end off its header's
        # length is the fine one
        c = pipeline.encode_image(small_session, make_image("photo", 80, 96, seed=21),
                                  ratios=RatioTriple(0.4, 0.4, 0.2))
        fine, medium, coarse = c.index_bits
        end = c.map_bits + fine
        bad = parse_container(serialize_container(
            dataclasses.replace(c, index_bits=(fine + 1, medium, coarse - 1))))
        with pytest.raises(BitstreamError, match=rf"^fine segment bit length mismatch "
                                                 rf"\(ends at bit {end}, header says {end + 1}\)$"):
            pipeline.decode_streams(small_session, bad)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_rejected(self, version):
        # a version-1 container may hold codewords past 16 bits, which this
        # decoder would read wrong, a version-2 header is laid out
        # differently and a version-3 CRC covers the header only: each is
        # refused, even with a valid CRC
        data = bytearray(serialize_container(_container()))
        data[4] = version
        with pytest.raises(BitstreamError, match=f"version {version};"):
            parse_container(_reseal(bytes(data)))

    def test_every_payload_bit_flip_detected(self, small_session):
        # a complete prefix code decodes almost any bit string, so only the
        # CRC tells a flipped payload bit from another image
        c = pipeline.encode_image(small_session, make_image("photo", 32, 32, seed=5),
                                  ratios=RatioTriple(0.5, 0.25, 0.25))
        data = serialize_container(c)
        start = len(data) - len(c.payload)
        for bit in range(8 * len(c.payload)):
            corrupt = bytearray(data)
            corrupt[start + bit // 8] ^= 0x80 >> bit % 8
            with pytest.raises(BitstreamError, match="^container CRC mismatch$"):
                parse_container(bytes(corrupt))

    def test_nonzero_padding_rejected(self):
        data = bytearray(serialize_container(_container()))
        data[-1] |= 0x01  # 12 payload bits -> low 4 bits of last byte are pad
        with pytest.raises(BitstreamError, match="nonzero padding"):
            parse_container(_reseal(bytes(data)))

    def test_read_container_reads_the_file(self, tmp_path):
        path = tmp_path / "c.cgic"
        path.write_bytes(serialize_container(_container()))
        assert read_container(path) == _container()
        for data, error in [(_reseal(path.read_bytes() + b"\0"), "payload length inconsistent"),
                            (path.read_bytes()[:40], "container shorter than header")]:
            path.write_bytes(data)
            with pytest.raises(BitstreamError, match=error):
                read_container(path)

    def test_read_container_reads_only_what_the_header_declares(self, monkeypatch):
        # files that never end, as /dev/zero: zeros alone, and a valid
        # container followed by zeros. Every read asks for a size, and none
        # goes past the declared payload and one byte more. A header that
        # declares 4 x (2**32 - 1) bits, 2 GB of payload, in a file that ends
        # after it is read in chunks, none larger than one bounded read.
        valid = serialize_container(_container())
        fields = struct.unpack_from("<4sB2IQ4I", valid)
        huge = _reseal(struct.pack("<4sB2IQ4I", *fields[:5], *[2 ** 32 - 1] * 4) + bytes(4))

        class File:
            def __init__(self, data, endless):
                self.data, self.endless, self.pos, self.reads = data, endless, 0, []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                assert size is not None and size >= 0, "a read of the whole file"
                self.reads.append(size)
                out = self.data[self.pos:self.pos + size]
                out = out.ljust(size, b"\0") if self.endless else out
                self.pos += len(out)
                return out

        for data, endless, bound, error in [
            (b"", True, 41 + 1, "bad magic"),
            (valid, True, len(valid) + 1, "CRC mismatch"),
            (huge, False, 41 + (2 ** 34 - 4 + 7) // 8 + 1, "map bit length"),
        ]:
            f = File(data, endless)
            monkeypatch.setattr(bitstream, "open", lambda p, mode: f, raising=False)
            with pytest.raises(BitstreamError, match=error):
                read_container("any.cgic")
            assert sum(f.reads) <= bound
            assert max(f.reads) <= imaging._READ_CHUNK

    def test_measure_rate(self):
        c = _container()
        total, payload = measure_rate(c)
        assert total == pytest.approx(8 * c.byte_length / (30 * 17))
        assert payload == pytest.approx(12 / (30 * 17))

    def test_rate_is_bytes_over_pixels(self):
        # 64 bytes over a 256-pixel image would be exactly 2.0 bpp
        c = Container(true_w=16, true_h=16, codebook_hash=0,
                      index_bits=(0, 0, 0), map_bits=40, payload=bytes(5))
        total, payload = measure_rate(c)
        assert total == pytest.approx(8 * c.byte_length / 256)
        assert payload == pytest.approx(40 / 256)
