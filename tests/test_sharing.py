import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racnshare import (
    DuplicateIndexError,
    InsufficientSharesError,
    InvalidConfigError,
    LengthMismatchError,
    SecretConfig,
    Share,
    gf_add,
    gf_eval,
    gf_inv,
    gf_mul,
    reconstruct,
    split,
)

byte = st.integers(min_value=0, max_value=255)


def slow_mul(a, b):
    """Russian-peasant multiply with explicit reduction by 0x11B."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return acc


class TestFieldArithmetic:
    def test_mul_agrees_with_slow_mul_everywhere(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == slow_mul(a, b), (a, b)

    def test_known_product(self):
        assert gf_mul(0x53, 0xCA) == 0x01

    def test_add_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100
        for a in range(0, 256, 17):
            assert gf_add(a, a) == 0

    def test_inverses(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(byte, byte, byte)
    def test_distributive(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(byte, byte, byte)
    def test_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(byte, byte)
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    def test_horner_eval(self):
        # f(x) = 7 + 3x + x^2 at x=2: 7 ^ 3*2 ^ 4
        assert gf_eval([7, 3, 1], 2) == 7 ^ slow_mul(3, 2) ^ slow_mul(2, 2)
        assert gf_eval([0x42], 0x99) == 0x42
        assert gf_eval([5, 9], 0) == 5


class TestConfig:
    def test_accepts_valid(self):
        cfg = SecretConfig(threshold=3, share_count=5, seed=11)
        assert (cfg.threshold, cfg.share_count, cfg.seed) == (3, 5, 11)

    @pytest.mark.parametrize(
        "k,n", [(0, 5), (6, 5), (1, 0), (-1, 3), (1, 256), (300, 300)]
    )
    def test_rejects_bad_counts(self, k, n):
        with pytest.raises(InvalidConfigError):
            SecretConfig(threshold=k, share_count=n)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidConfigError):
            SecretConfig(threshold=2.0, share_count=5)
        with pytest.raises(InvalidConfigError):
            SecretConfig(threshold=2, share_count=5, seed="x")

    def test_seed_defaults_to_none(self):
        assert SecretConfig(threshold=2, share_count=3).seed is None

    def test_share_index_range(self):
        with pytest.raises(InvalidConfigError):
            Share(index=0, payload=b"a")
        with pytest.raises(InvalidConfigError):
            Share(index=256, payload=b"a")


class TestSplitReconstruct:
    def test_round_trip_trials(self):
        rng = random.Random(20260818)
        for trial in range(100):
            k = rng.randint(1, 16)
            n = rng.randint(k, 20)
            secret = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
            shares = split(secret, SecretConfig(k, n, seed=trial))
            picked = rng.sample(shares, k)
            assert reconstruct(picked, k) == secret, trial

    def test_every_3_of_5_subset(self):
        secret = b"weights"
        shares = split(secret, SecretConfig(3, 5, seed=7))
        for subset in itertools.combinations(shares, 3):
            assert reconstruct(list(subset), 3) == secret

    def test_threshold_one_is_plaintext(self):
        shares = split(b"abc", SecretConfig(1, 4, seed=2))
        assert all(s.payload == b"abc" for s in shares)

    def test_more_shares_than_threshold_still_work(self):
        secret = b"\x00\xff\x10"
        shares = split(secret, SecretConfig(2, 6, seed=3))
        assert reconstruct(shares, 2) == secret

    def test_deterministic_given_seed(self):
        a = split(b"same", SecretConfig(4, 6, seed=77))
        b = split(b"same", SecretConfig(4, 6, seed=77))
        assert a == b
        c = split(b"same", SecretConfig(4, 6, seed=78))
        assert a != c

    def test_byte_independence(self):
        # a shared prefix yields identical share prefixes: each byte position
        # draws from its own generator
        ab = split(b"ab", SecretConfig(3, 4, seed=5))
        abcd = split(b"abcd", SecretConfig(3, 4, seed=5))
        for s2, s4 in zip(ab, abcd):
            assert s4.payload[:2] == s2.payload

    def test_empty_secret_rejected(self):
        with pytest.raises(InvalidConfigError):
            split(b"", SecretConfig(2, 3))

    def test_non_bytes_rejected(self):
        with pytest.raises(InvalidConfigError):
            split("text", SecretConfig(2, 3))

    def test_insufficient_shares(self):
        shares = split(b"hi", SecretConfig(3, 5))
        with pytest.raises(InsufficientSharesError):
            reconstruct(shares[:2], 3)

    def test_duplicate_index(self):
        shares = split(b"hi", SecretConfig(2, 4))
        with pytest.raises(DuplicateIndexError):
            reconstruct([shares[0], shares[0]], 2)

    def test_length_mismatch(self):
        s1, s2 = split(b"hi", SecretConfig(2, 2))
        broken = Share(index=s2.index, payload=s2.payload + b"\x00")
        with pytest.raises(LengthMismatchError):
            reconstruct([s1, broken], 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_threshold_below_one_rejected(self, k):
        shares = split(b"hi", SecretConfig(2, 3))
        for given in ([], shares[:1], shares):
            with pytest.raises(InvalidConfigError, match=f"k must be >= 1, got {k}"):
                reconstruct(given, k)

    def test_wrong_share_reconstructs_wrong(self):
        secret = b"x"
        shares = split(secret, SecretConfig(2, 3, seed=1))
        tampered = Share(index=shares[0].index, payload=bytes([shares[0].payload[0] ^ 1]))
        assert reconstruct([tampered, shares[1]], 2) != secret


def test_single_share_reveals_nothing():
    """With threshold 2, one share is consistent with every secret byte."""
    shares = split(b"\x5a", SecretConfig(2, 3, seed=9))
    observed = shares[0]  # f(1) for an unknown degree-1 polynomial
    consistent = set()
    for candidate in range(256):
        for a1 in range(256):
            if gf_eval([candidate, a1], observed.index) == observed.payload[0]:
                consistent.add(candidate)
                break
    assert consistent == set(range(256))


def test_unseeded_shares_reveal_nothing():
    """k-1 shares dealt without a seed are consistent with every secret byte.

    Criterion 5's enumeration: for each candidate byte, exactly one degree-1
    polynomial through it agrees with the observed share.
    """
    secret = b"\x5a\xff"
    for observed in split(secret, SecretConfig(2, 3))[:2]:
        for pos in range(len(secret)):
            counts = {
                candidate: sum(
                    1 for a1 in range(256)
                    if gf_eval([candidate, a1], observed.index) == observed.payload[pos]
                )
                for candidate in range(256)
            }
            assert set(counts.values()) == {1}


def test_unseeded_splits_draw_fresh_coefficients():
    secret = b"sixteen byte key"
    a, b = split(secret, SecretConfig(3, 5)), split(secret, SecretConfig(3, 5))
    assert a != b
    assert a != split(secret, SecretConfig(3, 5, seed=0))
    assert reconstruct(a[2:], 3) == reconstruct(b[:3], 3) == secret


def test_seeded_split_bytes_pinned():
    """An explicit seed keeps the per-byte ``random.Random`` stream byte for byte."""
    shares = split(b"racnshare pins this", SecretConfig(3, 5, seed=2024))
    assert [s.payload.hex() for s in shares] == [
        "e546990b9cfe5cabc97a8992ef3e22b69ca77a",
        "fbd6151964d7092834c8207028f9370797cc0e",
        "6cf1ef7c8b4134f19892d98ba9b435c5630207",
        "bddddd42381bf9278f8002a6853c420fbdb02e",
        "2afa2727d78dc4fe23dafb5d047140cd497e27",
    ]


# The per-byte scheme as first shipped: products through log/exp tables of
# the generator 3, and one random.Random((seed << 64) | i) per secret byte.
# split and reconstruct must keep giving its bytes.
def ref_tables():
    exp, log, x = [0] * 510, [0] * 256, 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x = slow_mul(x, 3)
    return exp, log


REF_EXP, REF_LOG = ref_tables()


def ref_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return REF_EXP[REF_LOG[a] + REF_LOG[b]]


def ref_split(secret, k, n, seed):
    payloads = [bytearray(len(secret)) for _ in range(n)]
    for i, byte in enumerate(secret):
        rng = random.Random((seed << 64) | i)
        coeffs = [byte] + [rng.randrange(256) for _ in range(k - 1)]
        for s in range(n):
            acc = 0
            for c in reversed(coeffs):
                acc = ref_mul(acc, s + 1) ^ c
            payloads[s][i] = acc
    return [bytes(p) for p in payloads]


def ref_reconstruct(shares):
    basis = []
    for i, xi in enumerate(s.index for s in shares):
        num, den = 1, 1
        for j, xj in enumerate(s.index for s in shares):
            if j != i:
                num, den = ref_mul(num, xj), ref_mul(den, xj ^ xi)
        basis.append(ref_mul(num, REF_EXP[255 - REF_LOG[den]]))
    out = bytearray(len(shares[0].payload))
    for pos in range(len(out)):
        for share, b in zip(shares, basis):
            out[pos] ^= ref_mul(share.payload[pos], b)
    return bytes(out)


def oracle_cases():
    rng = random.Random(20261018)
    cases = [(1, 1), (1, 255), (255, 255), (9, 17), (17, 17), (2, 255)]
    while len(cases) < 50:
        n = rng.choice([rng.randint(1, 20), rng.randint(1, 255)])
        k = rng.choice([1, n, rng.randint(1, n)])
        cases.append((k, n))
    for case, (k, n) in enumerate(cases):
        length = rng.randint(1, 24 if k * n <= 400 else 3)
        yield k, n, bytes(rng.randrange(256) for _ in range(length)), rng.randrange(2**32), case


ORACLE_CASES = list(oracle_cases())


@pytest.mark.parametrize(
    "k,n,secret,seed,case", ORACLE_CASES, ids=[f"{c[4]}-k{c[0]}-n{c[1]}" for c in ORACLE_CASES]
)
def test_same_bytes_as_the_log_table_scheme(k, n, secret, seed, case):
    shares = split(secret, SecretConfig(k, n, seed=seed))
    assert [s.payload for s in shares] == ref_split(secret, k, n, seed)
    rng = random.Random(case)
    picked = rng.sample(shares, rng.randint(k, n))
    assert reconstruct(picked, k) == ref_reconstruct(picked) == secret
    noise = bytes(rng.randrange(256) for _ in secret)
    tampered = [Share(picked[0].index, noise), *picked[1:]]
    assert reconstruct(tampered, k) == ref_reconstruct(tampered)
