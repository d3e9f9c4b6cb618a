import itertools

import numpy as np
import pytest

from granucodec.bitstream import (
    MAP_CODE, BitstreamError, Container, build_huffman, canonical_codewords,
    kraft_sum, mean_code_length, measure_rate, parse_container, prefix_decode,
    prefix_encode, serialize_container, weighted_total_bits,
)
from granucodec.granularity import COARSE, FINE, MEDIUM, RatioTriple


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


class TestHuffman:
    def test_uniform_1024_all_length_10(self):
        code = build_huffman(np.ones(1024, dtype=np.uint64))
        assert np.all(code.lengths == 10)
        assert mean_code_length(code) == 10.0

    def test_known_small_table(self):
        code = build_huffman(np.array([5, 2, 1, 1], dtype=np.uint64))
        assert sorted(code.lengths.tolist()) == [1, 2, 3, 3]
        assert weighted_total_bits(code, [5, 2, 1, 1]) == 15
        assert mean_code_length(code) == 2.25

    def test_single_symbol_length_one(self):
        code = build_huffman(np.array([42], dtype=np.uint64))
        assert code.lengths.tolist() == [1]

    def test_unfinalized_rejected(self):
        with pytest.raises(BitstreamError):
            build_huffman(np.array([3, 0, 1], dtype=np.uint64))

    def test_skewed_table_beyond_63_bits_rejected(self):
        fib = [1, 1]
        while len(fib) < 100:
            fib.append(fib[-1] + fib[-2])
        # each Fibonacci count nests one level deeper: k symbols, k-1 bits
        assert build_huffman(np.array(fib[:64], dtype=np.uint64)).lengths.max() == 63
        with pytest.raises(BitstreamError):
            build_huffman(np.array(fib[:93], dtype=np.uint64))  # largest in uint64
        with pytest.raises(BitstreamError):
            build_huffman(fib)

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


def bit_string_oracle(symbols, code):
    """The codewords of `symbols` written out one at a time as a '0'/'1' string."""
    return "".join(format(int(code.codewords[s]), f"0{int(code.lengths[s])}b")
                   for s in symbols)


def encode_map(gmap):
    return prefix_encode(COARSE - np.asarray(gmap, dtype=np.int64), MAP_CODE)


def decode_map(bits, by, bx):
    labels, end = prefix_decode(bits, 0, by * bx, MAP_CODE)
    return (COARSE - labels).astype(np.uint8).reshape(by, bx), end


class TestIndexCoding:
    def test_empty_stream(self):
        code = build_huffman(np.ones(16, dtype=np.uint64))
        assert prefix_encode(np.array([], dtype=np.int32), code).size == 0

    def test_uniform_code_bit_count(self):
        code = build_huffman(np.ones(1024, dtype=np.uint64))
        assert prefix_encode(np.arange(16), code).size == 160

    def test_roundtrip_random_streams(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 200))
            counts = rng.integers(1, 100, size=k).astype(np.uint64)
            code = build_huffman(counts)
            stream = rng.integers(0, k, size=rng.integers(0, 500))
            bits = prefix_encode(stream, code).tolist()
            decoded, end = prefix_decode(bits, 0, stream.size, code)
            assert np.array_equal(decoded, stream)
            assert end == len(bits)

    def test_matches_bit_string_oracle(self):
        rng = np.random.default_rng(4)
        fib = [1, 1]
        while len(fib) < 64:
            fib.append(fib[-1] + fib[-2])
        codes = [build_huffman(rng.integers(1, 1000, size=int(rng.integers(1, 300)))
                               .astype(np.uint64)) for _ in range(20)]
        codes.append(build_huffman(np.array(fib, dtype=np.uint64)))  # lengths 1..63
        for code in codes:
            stream = rng.integers(0, code.k, size=int(rng.integers(0, 400)))
            stream = np.concatenate([stream, np.argsort(-code.lengths)[:3]])
            bits = prefix_encode(stream, code)
            assert bits.dtype == np.uint8
            assert "".join(map(str, bits.tolist())) == bit_string_oracle(stream, code)
        assert codes[-1].lengths.max() == 63

    def test_symbol_out_of_range(self):
        code = build_huffman(np.ones(4, dtype=np.uint64))
        for bad in (4, -1):
            with pytest.raises(BitstreamError):
                prefix_encode(np.array([0, bad]), code)

    def test_truncated_payload(self):
        code = build_huffman(np.ones(16, dtype=np.uint64))
        bits = prefix_encode(np.array([1, 2, 3]), code).tolist()
        with pytest.raises(BitstreamError, match="past end"):
            prefix_decode(bits[:-2], 0, 3, code)


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
            decoded, end = decode_map(bits, by, bx)
            assert np.array_equal(decoded, gmap)
            assert end == len(bits)


def _container():
    return Container(
        true_w=30, true_h=17, padded_w=32, padded_h=32,
        codebook_hash=0x0123456789ABCDEF,
        ratios=RatioTriple(0.25, 0.5, 0.25),
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
        return Container(true_w=padded, true_h=padded, padded_w=padded, padded_h=padded,
                         codebook_hash=0, ratios=RatioTriple(0, 0, 1),
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

    def test_nonzero_padding_rejected(self):
        data = bytearray(serialize_container(_container()))
        data[-1] |= 0x01  # 12 payload bits -> low 4 bits of last byte are pad
        with pytest.raises(BitstreamError):
            parse_container(bytes(data))

    def test_measure_rate(self):
        c = _container()
        total, payload = measure_rate(c)
        assert total == pytest.approx(8 * c.byte_length / (30 * 17))
        assert payload == pytest.approx(12 / (30 * 17))

    def test_rate_is_bytes_over_pixels(self):
        # 64 bytes over a 256-pixel image would be exactly 2.0 bpp
        c = Container(true_w=16, true_h=16, padded_w=16, padded_h=16,
                      codebook_hash=0, ratios=RatioTriple(0, 0, 1),
                      index_bits=(0, 0, 0), map_bits=40, payload=bytes(5))
        total, payload = measure_rate(c)
        assert total == pytest.approx(8 * c.byte_length / 256)
        assert payload == pytest.approx(40 / 256)
