import hashlib
from itertools import islice

import numpy as np
import pytest
from reference import keyed_normals_loop, splitmix64_words

from sabmis import (DimensionError, FormatError, ParamError,
                    StegoKey, StegoParams, default_params, derive_assignment,
                    gen_matrix, keyed_normals, make_key, measure, read_key,
                    write_key)


def test_default_params_reference_values():
    p = default_params()
    assert (p.N, p.M, p.b, p.l) == (1024, 512, 8, 8)
    assert (p.p1, p.p2, p.p3) == (32, 32, 32)
    assert p.m == 320  # ten-fold oversampling of p2
    assert (p.alpha, p.beta, p.gamma, p.c) == (0.01, 0.1, 1.0, 8)


def test_default_capacity_is_2bpp_per_secret():
    p = default_params()
    assert 8 * p.M ** 2 / p.N ** 2 == 2.0


def test_params_reject_bad_split():
    with pytest.raises(ParamError, match=r"p1\+p2 != b\^2"):
        StegoParams(p1=40, p2=40, b=8)


def test_params_reject_large_c():
    with pytest.raises(ParamError, match=r"p1-2c >= 1 violated"):
        StegoParams(c=20)


def test_params_reject_more_written_rows_than_p2():
    # the rule's p3 - c measured reads see a block only through the p2
    # coefficients of its v-part, so beyond p3 - c = p2 they lose rank and
    # no exact write exists
    assert StegoParams(p1=40, p2=24).p2 == 24  # p3 - c = 24 rows: the largest key
    with pytest.raises(ParamError, match=r"p3-c <= p2 violated \(p3=32, c=8, p2=16\)"):
        StegoParams(p1=48, p2=16)
    with pytest.raises(ParamError, match=r"p3-c <= p2 violated \(p3=4, c=2, p2=1\)"):
        StegoParams(N=12, M=4, b=3, l=2, p1=8, p2=1, p3=4, m=8, c=2)


def test_params_reject_undersampling():
    with pytest.raises(ParamError, match="m > p2"):
        StegoParams(m=32)


def test_params_bound_m_by_the_size_of_phi():
    # m * p2 <= 2^24 keeps phi within 128 MiB: at p2 = 32 the largest m is 2^19
    assert StegoParams(m=2 ** 19).m == 2 ** 19
    with pytest.raises(ParamError, match=r"m \* p2 <= 2\^24 violated \(m=524289, p2=32\)"):
        StegoParams(m=2 ** 19 + 1)
    with pytest.raises(ParamError, match=r"m \* p2 <= 2\^24 violated \(m=1000"):
        StegoParams(m=10 ** 300)


def test_params_reject_secret_overflow():
    with pytest.raises(ParamError, match=r"M\^2/l\^2"):
        StegoParams(M=2048)


def test_params_reject_divisibility_violations():
    with pytest.raises(ParamError):
        StegoParams(N=1022)  # b does not divide N/2
    with pytest.raises(ParamError):
        StegoParams(M=510)  # l does not divide M


# one row per refusal, in the order StegoParams checks them
@pytest.mark.parametrize("fields, message", [
    ({"N": 0}, r"N must be a positive integer, got 0"),
    ({"c": True}, r"c must be a positive integer, got True"),
    ({"m": 320.0}, r"m must be a positive integer, got 320\.0"),
    ({"num_secrets": 0}, r"num_secrets must be 1\.\.4, got 0"),
    ({"num_secrets": 5}, r"num_secrets must be 1\.\.4, got 5"),
    ({"N": 1025}, r"N must be even, got 1025"),
    ({"c": 1}, r"c >= 2 violated \(c=1\)"),
    ({"p3": 4}, r"p3 >= c violated \(p3=4, c=8\)"),
    ({"p3": 200, "m": 33}, r"p1\+2p3-c <= p1\+m violated \(p3=200, c=8, m=33\)"),
    ({"p3": 65}, r"p3 <= l\^2 violated \(p3=65, l=8\)"),
], ids=["zero", "bool", "float", "no-secrets", "five-secrets", "odd-cover", "c-below-2",
        "p3-below-c", "rows-beyond-m", "p3-beyond-block"])
def test_params_refuse_each_broken_invariant_by_name(fields, message):
    with pytest.raises(ParamError, match=message):
        StegoParams(**fields)


@pytest.mark.parametrize("count", [0, 5])
def test_derive_assignment_refuses_a_count_outside_one_to_four(count):
    with pytest.raises(ParamError, match=f"num_secrets must be 1..4, got {count}"):
        derive_assignment(1, count)


def test_key_rejects_an_assignment_entry_outside_one_to_four():
    with pytest.raises(ParamError, match=r"sub-image indices 1\.\.4, got \(0, 5\)"):
        StegoKey(1, StegoParams(num_secrets=2), (0, 5))


def test_key_rejects_duplicate_assignment():
    with pytest.raises(ParamError, match="distinct"):
        StegoKey(1, StegoParams(num_secrets=2), (3, 3))


def test_key_rejects_wrong_assignment_length():
    with pytest.raises(ParamError, match="length"):
        StegoKey(1, StegoParams(num_secrets=2), (1, 2, 3))


@pytest.mark.parametrize("seed", [True, 3.7, "5", -1, 2 ** 64])
def test_make_key_and_stego_key_refuse_the_same_seeds(seed):
    # one rule for both: an integer, not a bool, in [0, 2^64); make_key
    # checks it before it derives an assignment from the seed
    with pytest.raises(ParamError, match="seed"):
        make_key(seed)
    with pytest.raises(ParamError, match="seed"):
        StegoKey(seed, StegoParams(), (3, 2, 4, 1))


def test_make_key_keeps_a_numpy_integer_seed_as_an_int():
    key = make_key(np.uint64(2 ** 64 - 1))
    assert type(key.seed) is int and key.seed == 2 ** 64 - 1
    assert key == make_key(2 ** 64 - 1)


def test_gen_matrix_is_deterministic():
    key = make_key(7)
    a, b = gen_matrix(key), gen_matrix(key)
    assert a is not b  # two regenerations, not one array compared with itself
    assert np.array_equal(a, b)
    assert a.shape == (320, 32)


def test_gen_matrix_returns_an_equal_read_only_matrix_for_the_same_seed_and_shape():
    key = make_key(7)
    first = gen_matrix(key)
    # the matrix depends on (seed, m, p2) only, not on the rest of the key
    assert np.array_equal(gen_matrix(make_key(7, StegoParams(N=256, M=128, num_secrets=2))),
                          first)
    assert not first.flags.writeable


@pytest.mark.parametrize("seed, params", [
    (8, StegoParams()),
    (7, StegoParams(m=160)),
    (7, StegoParams(p1=40, p2=24)),
])
def test_gen_matrix_keys_differing_in_seed_or_shape_do_not_share(seed, params):
    base = gen_matrix(make_key(7))
    other = gen_matrix(make_key(seed, params))
    assert other.shape == (params.m, params.p2)
    expected = keyed_normals(seed, params.m * params.p2).reshape(params.m, params.p2)
    assert np.array_equal(other, expected)
    assert np.array_equal(gen_matrix(make_key(7)), base)


def test_neighboring_seeds_give_unrelated_matrices():
    a = gen_matrix(make_key(7))
    b = gen_matrix(make_key(8))
    assert np.mean(a != b) > 0.99


def test_generator_moments():
    vals = keyed_normals(42, 10240)
    assert abs(vals.mean()) < 0.04
    assert 0.94 < vals.var() < 1.06


def test_word_stream_matches_published_vectors():
    # reference outputs of the standard SplitMix64 stream
    from sabmis.measure import _splitmix64
    assert _splitmix64(0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert _splitmix64(1234567, 0, 2).tolist() == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5]


_RANDOM_SEEDS = [int(s) for s in np.random.default_rng(20140101).integers(
    0, 2 ** 64, size=20, dtype=np.uint64)]


@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE, 2 ** 64 - 1, -12345] + _RANDOM_SEEDS)
def test_keyed_normals_equal_the_scalar_loop_bitwise(seed):
    for count in (0, 1, 2, 3, 2049, 10240):  # odd counts drop the last sine
        assert np.array_equal(keyed_normals(seed, count), keyed_normals_loop(seed, count))


@pytest.mark.parametrize("key, digest", [
    (make_key(0xC0FFEE),
     "e73f98ac4c02d459cde584d2f30c1d84e72dd859650c351f358b3676ea455518"),
    (make_key(3, StegoParams(N=256, M=128)),
     "35ae36da05b3384088fe91657ee2b36a7b4d247f2d135470d833ba0a33c2c477"),
], ids=["0xC0FFEE-default", "3-N256"])
def test_gen_matrix_fingerprints_are_frozen(key, digest):
    # existing key files must keep regenerating the same matrices, bit for bit
    entries = gen_matrix(key).astype("<f8").tobytes()
    assert hashlib.sha256(entries).hexdigest() == digest


def test_normals_follow_the_documented_pipeline():
    # recompute the first Box-Muller pair from the frozen reference words
    import math
    w1, w2 = 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
    u1 = ((w1 >> 11) + 0.5) / 2.0 ** 53
    u2 = ((w2 >> 11) + 0.5) / 2.0 ** 53
    radius = math.sqrt(-2.0 * math.log(u1))
    expected = [radius * math.cos(2.0 * math.pi * u2),
                radius * math.sin(2.0 * math.pi * u2)]
    assert keyed_normals(0, 2).tolist() == expected


def test_derive_assignment_properties():
    for seed in range(40):
        full = derive_assignment(seed, 4)
        assert sorted(full) == [1, 2, 3, 4]
        # first appearances of w % 4 + 1 in the scalar word stream
        order = dict.fromkeys(w % 4 + 1 for w in islice(splitmix64_words(seed), 64))
        assert full == tuple(order)
        for count in (1, 2, 3):
            assert derive_assignment(seed, count) == full[:count]
    assert derive_assignment(11, 2) == derive_assignment(11, 2)


def test_measure_zero_v_part():
    key = make_key(3)
    phi = gen_matrix(key)
    coeffs = np.zeros(64)
    coeffs[:32] = np.arange(32.0)
    y = measure(coeffs, phi)
    assert np.array_equal(y[:32], coeffs[:32])
    assert np.all(y[32:] == 0)


def test_measure_hand_product():
    phi = np.ones((2, 2))
    y = measure(np.array([5.0, 1.0, 2.0]), phi)
    assert np.array_equal(y, [5.0, 3.0, 3.0])


def test_measure_is_linear():
    key = make_key(4)
    phi = gen_matrix(key)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(64)
    y1 = measure(coeffs, phi)
    y2 = measure(2.5 * coeffs, phi)
    assert np.allclose(y2, 2.5 * y1, rtol=1e-13, atol=1e-13)


def test_measure_stack_matches_row_by_row_calls():
    phi = gen_matrix(make_key(4))
    coeffs = np.random.default_rng(1).standard_normal((6, 64))
    stacked = measure(coeffs, phi)
    assert stacked.shape == (6, 352)
    for i in range(6):
        row = measure(coeffs[i], phi)
        np.testing.assert_allclose(stacked[i], row, rtol=1e-13, atol=1e-13)


def test_measure_rejects_missing_split():
    # the split is the spectrum's length less phi's p2 columns; a spectrum
    # no longer than p2 leaves no u-part, as a vector or as a stack
    phi = gen_matrix(make_key(3))
    for s in (np.zeros(32), np.zeros(20), np.zeros((3, 32))):
        with pytest.raises(DimensionError, match="u-part"):
            measure(s, phi)


def test_key_file_round_trip(tmp_path):
    key = make_key(123456789, StegoParams(num_secrets=3, c=6))
    path = tmp_path / "k.skey"
    write_key(key, path)
    back = read_key(path)
    assert back == key


def test_key_file_same_key_same_bytes(tmp_path):
    key = make_key(42)
    p1, p2 = tmp_path / "a.skey", tmp_path / "b.skey"
    write_key(key, p1)
    write_key(key, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_key_file_bytes_are_frozen(tmp_path):
    # key files already shared must keep reading back the same, so the
    # layout is pinned byte for byte
    path = tmp_path / "k.skey"
    write_key(make_key(0xC0FFEE), path)
    assert path.read_bytes() == (
        b"# stego key: keep secret, the receiver regenerates everything from it\n"
        b"version = 1\nseed = 12648430\nN = 1024\nM = 512\nb = 8\nl = 8\n"
        b"p1 = 32\np2 = 32\np3 = 32\nm = 320\nalpha = 0.01\n"
        b"beta = 0.10000000000000001\ngamma = 1\nc = 8\nnum_secrets = 4\n"
        b"assignment = 3,2,4,1\n")


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _valid_lines():
    return ["version = 1", "seed = 5", "N = 1024", "M = 512", "b = 8", "l = 8",
            "p1 = 32", "p2 = 32", "p3 = 32", "m = 320", "alpha = 0.01",
            "beta = 0.1", "gamma = 1", "c = 8", "num_secrets = 2",
            "assignment = 1,3"]


def test_key_file_rejects_unknown_field(tmp_path):
    path = tmp_path / "k.skey"
    _write_lines(path, _valid_lines() + ["mystery = 7"])
    with pytest.raises(FormatError, match=r":17: unknown field"):
        read_key(path)


def test_key_file_rejects_invariant_violation_by_name(tmp_path):
    path = tmp_path / "k.skey"
    lines = [ln for ln in _valid_lines() if not ln.startswith(("p1", "p2"))]
    _write_lines(path, lines + ["p1 = 40", "p2 = 40"])
    with pytest.raises(ParamError, match=r"p1\+p2 != b\^2"):
        read_key(path)


def test_key_file_rejects_duplicate_assignment_entries(tmp_path):
    path = tmp_path / "k.skey"
    lines = [ln if not ln.startswith("assignment") else "assignment = 2,2"
             for ln in _valid_lines()]
    _write_lines(path, lines)
    with pytest.raises(ParamError, match="distinct"):
        read_key(path)


def test_key_file_rejects_missing_field(tmp_path):
    path = tmp_path / "k.skey"
    _write_lines(path, _valid_lines()[:-1])
    with pytest.raises(FormatError, match="missing"):
        read_key(path)


def _with_line(ln, text):
    # the valid lines with line `ln` (1-based) replaced, or `text` appended
    # as line 17
    lines = _valid_lines()
    lines[ln - 1:ln] = [text]
    return lines


def test_key_file_parse_error_reports_line(tmp_path):
    path = tmp_path / "k.skey"
    _write_lines(path, _with_line(14, "c = nine"))
    with pytest.raises(FormatError, match=r"k\.skey:14: cannot parse value 'nine' for field 'c'$"):
        read_key(path)


@pytest.mark.parametrize("ln, text, message", [
    (14, "c 9", r":14: expected 'name = value'$"),
    (16, "assignment = 1,,3", r":16: cannot parse value '1,,3' for field 'assignment'$"),
    (17, "c = 9", r":17: duplicate field 'c'$"),
    (1, "version = 2", r"k\.skey: unsupported version 2$"),
], ids=["no-equals-sign", "empty-assignment-entry", "duplicate-field", "version-2"])
def test_key_file_refuses_a_malformed_line(tmp_path, ln, text, message):
    path = tmp_path / "k.skey"
    _write_lines(path, _with_line(ln, text))
    with pytest.raises(FormatError, match=message):
        read_key(path)


def test_key_file_rejects_bytes_that_are_not_utf8(tmp_path):
    # a binary file, such as a stego image passed as the key
    path = tmp_path / "k.skey"
    path.write_bytes("\n".join(_valid_lines()).encode() + b"\n# \xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_key(path)


def test_key_file_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "k.skey"
    _write_lines(path, ["# header", ""] + _valid_lines() + ["  # trailing comment"])
    assert read_key(path).seed == 5
