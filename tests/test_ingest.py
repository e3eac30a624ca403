import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcube import ingest
from symcube.cyclo import Cyclo
from symcube.ingest import (
    FormParseError, HeckeParseError, MultiplicativityError, ParsedForm,
    delta_form, eta24_qexpansion, parse_afe_config, parse_form, parse_hecke,
    satake_table)
from symcube.monomial import INERT, SPLIT
from symcube.satake import is_tempered

# classical values of the coefficients of q prod (1-q^n)^24
KNOWN = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
         8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944,
         24: 21288960}


def test_eta24_known_values():
    a = eta24_qexpansion(700)
    for n, v in KNOWN.items():
        assert a[n] == v


def test_eta24_ramanujan_congruence():
    # independent arithmetic oracle: a(p) = 1 + p^11 mod 691 at primes
    a = eta24_qexpansion(700)
    for p in (2, 3, 5, 7, 11, 13, 101, 499, 691):
        assert a[p] % 691 == (1 + p ** 11) % 691


def test_eta24_multiplicativity_and_recurrence():
    a = eta24_qexpansion(5000)
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randrange(2, 70)
        n = rng.randrange(2, 70)
        if math.gcd(m, n) == 1 and m * n <= 5000:
            assert a[m * n] == a[m] * a[n]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67):
        assert a[p * p] == a[p] ** 2 - p ** 11


def _int_square_packed(coeffs, nkeep):
    """Reference: Kronecker squaring in base-2^bits slots with CPython ints."""
    n = len(coeffs)
    m = max(abs(x) for x in coeffs) or 1
    slot_bytes = ((n * m * m).bit_length() + 2 + 7) // 8
    bits = slot_bytes * 8
    half = 1 << (bits - 1)
    pos = bytearray(n * slot_bytes)
    neg = bytearray(n * slot_bytes)
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * slot_bytes:(i + 1) * slot_bytes] = c.to_bytes(slot_bytes, "little")
        elif c < 0:
            neg[i * slot_bytes:(i + 1) * slot_bytes] = (-c).to_bytes(slot_bytes, "little")
    z = int.from_bytes(bytes(pos), "little") - int.from_bytes(bytes(neg), "little")
    z = z * z
    z += int.from_bytes(half.to_bytes(slot_bytes, "little") * nkeep, "little")
    z &= (1 << (bits * nkeep)) - 1
    raw = z.to_bytes(nkeep * slot_bytes, "little")
    return [int.from_bytes(raw[i * slot_bytes:(i + 1) * slot_bytes], "little") - half
            for i in range(nkeep)]


@pytest.mark.parametrize("n_max", [1, 2, 3, 1000, 8192])
def test_eta24_matches_the_int_kronecker_reference(n_max):
    # eta^6 as the square of Jacobi's cube over every ordered pair of terms,
    # then eta^12 and eta^24 by two int squarings
    cube = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(n_max)
            if k * (k + 1) // 2 < n_max]
    sixth = [0] * n_max
    for e1, c1 in cube:
        for e2, c2 in cube:
            if e1 + e2 < n_max:
                sixth[e1 + e2] += c1 * c2
    want = _int_square_packed(_int_square_packed(sixth, n_max), n_max)
    assert eta24_qexpansion(n_max) == [0] + want


def test_eta24_pinned_at_100000_terms():
    # sha256 of the int-squaring output; the coefficients near 1e5 have ~30
    # digits, and the packed operands millions, so this also shows that no
    # large int goes through str() (which raises past 4300 digits by default)
    a = eta24_qexpansion(100_000)
    assert hashlib.sha256(repr(a).encode()).hexdigest() == (
        "63ece4b9cd325f3cf5510171949a3372da388fa57c173b2dc3d4e1ede6a7ebfc")


_BIG = 10 ** 40
coefficient_lists = st.one_of(
    st.lists(st.integers(-_BIG, _BIG), min_size=1, max_size=40),
    st.lists(st.integers(-_BIG, -1), min_size=1, max_size=40),
    st.lists(st.integers(-3, 3), min_size=1, max_size=40))


@settings(deadline=None)
@given(coefficient_lists, st.integers(1, 90), st.integers(0, 3), st.booleans())
@example([0] * 7, 5, 0, False)
@example([-_BIG], 1, 0, False)
@example([_BIG], 3, 0, False)
@example([-_BIG] * 40, 79, 0, False)
@example([-_BIG] * 40, 79, 2, True)
def test_square_slots_is_the_truncated_schoolbook_square(coeffs, nkeep, extra, half_offset):
    square = [0] * (nkeep + 2 * len(coeffs))
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            square[i + j] += a * b
    # slots of the least width w with 2 n m^2 < 10^w, offset by m; or, as
    # eta24_qexpansion's second squaring has them, offset by 10^w / 2 and
    # zero-padded by extra digits
    n, m = len(coeffs), max(map(abs, coeffs)) or 1
    w = len(str(2 * n * m * m))
    offset = 10 ** w // 2 if half_offset else m
    w += extra
    packed = "".join(str(c + offset).zfill(w) for c in reversed(coeffs))
    digits = ingest._square_slots(packed, str(offset).zfill(w) * n, w, nkeep)
    assert len(digits) == nkeep * w
    half = 10 ** w // 2
    assert [int(digits[j - w:j]) - half for j in range(nkeep * w, 0, -w)] == square[:nkeep]


def _form_text(form):
    return "weight 12 level 1 character trivial\n" + "".join(
        f"{n} {a}\n" for n, a in sorted(form.coefficients.items()))


def test_delta_form_roundtrip(tmp_path):
    form = delta_form(200)
    assert form.coefficients[2] == -24 and form.coefficients[3] == 252
    path = tmp_path / "delta.txt"
    path.write_text(_form_text(form))
    back = parse_form(str(path))
    assert back.weight == 12 and back.level == 1
    assert back.coefficients == form.coefficients


def test_parse_form_rejects_multiplicativity_violation(tmp_path):
    form = delta_form(50)
    form.coefficients[6] += 1
    path = tmp_path / "bad.txt"
    path.write_text(_form_text(form))
    with pytest.raises(MultiplicativityError) as err:
        parse_form(str(path))
    assert err.value.pair == (2, 3)
    assert err.value.line is None


def _prime_power_split(n):
    """(q, n // q) for q the power of the least prime of n that exactly divides it."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    q = p
    while n % (q * p) == 0:
        q *= p
    return q, n // q


@st.composite
def multiplicative_tables(draw, values=st.integers(-10 ** 6, 10 ** 6), n_min=1):
    """a(1..n_max), multiplicative, from one drawn value at each prime power."""
    table = {1: 1}
    for n in range(2, draw(st.integers(n_min, 2000)) + 1):
        q, rest = _prime_power_split(n)
        table[n] = draw(values) if rest == 1 else table[q] * table[rest]
    return table


@st.composite
def corrupted_tables(draw):
    """A multiplicative table and an index n, not a prime power, to change."""
    table = draw(multiplicative_tables(n_min=6))
    composite = [n for n in table if n > 1 and _prime_power_split(n)[1] > 1]
    return table, draw(st.sampled_from(composite))


def _delta_without(n_max, *missing):
    table = delta_form(n_max).coefficients
    for n in missing:
        del table[n]
    return table


@settings(deadline=None, max_examples=60)
@given(corrupted_tables(), st.none())
# with the pair of the first prime-power split whose two parts are present
@example((delta_form(3000).coefficients, 2500), (4, 625))
@example((delta_form(3000).coefficients, 1536), (3, 512))
@example((delta_form(3000).coefficients, 2310), (2, 1155))
@example((delta_form(3000).coefficients, 2730), (2, 1365))
@example((_delta_without(1000, 4), 60), (3, 20))   # a gap at the split at 2
def test_audit_refuses_any_changed_entry_with_a_pair_of_its_index(corrupted, pair):
    table, n = corrupted
    ingest._audit_multiplicativity(table)
    with pytest.raises(MultiplicativityError) as err:
        ingest._audit_multiplicativity({**table, n: table[n] + 1})
    m, k = err.value.pair
    assert m < k and m * k == n and math.gcd(m, k) == 1
    assert pair in (None, (m, k))


@settings(deadline=None, max_examples=30)
@given(multiplicative_tables(st.floats(-3, 3)), st.randoms(use_true_random=False))
def test_audit_takes_a_float_table_multiplicative_to_within_1e_9(table, rng):
    # each entry off by up to 1e-11 of itself, so a(q) a(n/q) stays within 1e-9
    ingest._audit_multiplicativity(
        {n: a * (1 + rng.uniform(-1e-11, 1e-11)) if n > 1 else a for n, a in table.items()})


def test_parse_form_error_positions(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(FormParseError) as err:
        parse_form(str(path))
    assert err.value.line == 1

    path.write_text("weight 12 level 1 character trivial\n1 1\n3 252\n2 -24\n")
    with pytest.raises(FormParseError) as err:
        parse_form(str(path))
    assert err.value.line == 4          # descending index

    path.write_text("weight 12 level 1 character trivial\n1 1\n2 x\n")
    with pytest.raises(FormParseError) as err:
        parse_form(str(path))
    assert err.value.line == 3

    path.write_text("weight 12 level 1 character trivial\n1 2\n")
    with pytest.raises(FormParseError):
        parse_form(str(path))           # a_1 != 1

    path.write_text("weight 12 level 1 character quadratic\n1 1\n")
    with pytest.raises(FormParseError):
        parse_form(str(path))


def test_parse_form_refuses_a_sparse_table_at_the_cost_of_its_entries(tmp_path):
    import time
    import tracemalloc
    path = tmp_path / "sparse.txt"
    path.write_text("weight 12 level 1 character trivial\n1 1\n2 -24\n10000000 0\n")
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(FormParseError) as err:
        parse_form(str(path))
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert err.value.line is None
    assert str(err.value) == ("too sparse: the largest index 10000000 exceeds both "
                              "64 times the 3 entries and 65536")
    assert elapsed < 0.05 and peak < 1 << 20


@pytest.mark.parametrize("last, ok", [(65536, True), (65537, False)])
def test_parse_form_takes_any_table_up_to_index_65536(tmp_path, last, ok):
    path = tmp_path / "small.txt"
    path.write_text(f"weight 12 level 1 character trivial\n1 1\n{last} 0\n")
    if ok:
        assert parse_form(str(path)).n_max == last
    else:
        with pytest.raises(FormParseError, match="too sparse"):
            parse_form(str(path))


def test_parse_form_takes_a_table_of_the_primes_to_1e5(tmp_path):
    from symcube.localfactor import primes_upto
    primes = primes_upto(10 ** 5)
    path = tmp_path / "primes.txt"
    path.write_text("weight 12 level 1 character trivial\n1 1\n"
                    + "".join(f"{p} 0\n" for p in primes))
    form = parse_form(str(path))
    assert len(form.coefficients) == len(primes) + 1 and form.n_max == primes[-1]
    assert sorted(satake_table(form)) == primes


def test_parse_form_decimal_coefficients(tmp_path):
    path = tmp_path / "dec.txt"
    path.write_text("weight 2 level 1 character trivial\n"
                    "1 1\n2 0.5\n3 0.25\n4 -0.75\n5 2\n6 0.125\n")
    form = parse_form(str(path))
    assert form.coefficients[2] == 0.5
    assert isinstance(form.coefficients[5], int)


def test_parse_hecke_shorthand(tmp_path):
    path = tmp_path / "hecke.txt"
    path.write_text("field-disc -23 chi-order 3\n"
                    "2 split 1/3 2/3\n"
                    "11 inert 0/1\n"
                    "13 split -0.5,0.8660254037844386 -0.5,-0.8660254037844386\n")
    data = parse_hecke(str(path))
    assert data.chi_order == 3 and data.field_disc == -23
    assert len(data.entries) == 3
    e2 = data.entries[0]
    assert e2.splitting == SPLIT
    assert e2.chi_p == Cyclo.root_of_unity(1, 3)
    assert e2.chi_pbar == Cyclo.root_of_unity(2, 3)
    e11 = data.entries[1]
    assert e11.splitting == INERT and e11.chi_p == Cyclo.one()
    assert isinstance(data.entries[2].chi_p, complex)


def test_parse_hecke_errors(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("field-disc -23 chi-order 3\n13 split 1/3\n")
    with pytest.raises(HeckeParseError) as err:
        parse_hecke(str(path))
    assert err.value.line == 2

    path.write_text("field-disc -23 chi-order 3\n7 inert 1/3\n7 split 1/3 2/3\n")
    with pytest.raises(HeckeParseError):
        parse_hecke(str(path))          # duplicate prime

    path.write_text("field-disc -23 chi-order 3\n7 inert 2.0,0.0\n")
    with pytest.raises(HeckeParseError):
        parse_hecke(str(path))          # non-unit under finite order

    path.write_text("field-disc -23 chi-order unknown\n5 ramified 1/2\n")
    with pytest.raises(HeckeParseError):
        parse_hecke(str(path))


_FORM_HEAD = "weight 12 level 1 character trivial\n"
_HECKE_HEAD = "field-disc -23 chi-order unknown\n"


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_form, "weight 12 level 1\n1 1\n", 1, "malformed header"),
    (parse_form, "weight x level 1 character trivial\n1 1\n", 1,
     "weight and level must be integers"),
    (parse_form, _FORM_HEAD + "1 1\n2\n", 3, "expected 'n a_n', got '2'"),
    (parse_hecke, "", 1, "empty file"),
    (parse_hecke, "field-disc x chi-order 3\n", 1, "field-disc must be an integer"),
    (parse_hecke, _HECKE_HEAD + "5 inert 1/2\n7 inert 1,x\n", 3, "bad re,im value '1,x'"),
    (parse_hecke, _HECKE_HEAD + "7 inert 1\n", 2, "'1' is neither k/n nor re,im"),
    (parse_hecke, _HECKE_HEAD + "x split 1/3 2/3\n", 2, "bad prime 'x'"),
    (parse_hecke, _HECKE_HEAD + "13 split\n", 2, "expected 'p split v v' or 'p inert v'"),
    # the values are read before the entry's shape is checked
    (parse_hecke, _HECKE_HEAD + "7 ramified 1\n", 2, "'1' is neither k/n nor re,im"),
    (parse_hecke, _HECKE_HEAD + "7 ramified 1/2\n", 2, "splitting must be split or inert"),
    (parse_hecke, _HECKE_HEAD + "3317044064679887385961981 inert 1/3\n", 2,
     "p must be a prime below 3.317e+24, got 3317044064679887385961981"),
])
def test_parse_refusals_name_their_line(tmp_path, parse, text, line, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises((FormParseError, HeckeParseError)) as err:
        parse(str(path))
    assert err.value.line == line and message in str(err.value)


@pytest.mark.parametrize("order, entries, line", [
    ("3", "2 split 1/3 2/3\n5 inert 1/7\n", 3),
    ("3", "13 split 0.5,0.8660254037844386 0.5,-0.8660254037844386\n", 2),
    ("3", "13 split 1/3 -0.5,0.8660254\n", 2),
    ("1", "5 inert 1/2\n", 2),
])
def test_parse_hecke_refuses_values_outside_the_chi_order(tmp_path, order, entries, line):
    """Under a finite chi-order each value raised to that order gives 1:
    exactly for k/n values, to 1e-9 for re,im values."""
    path = tmp_path / "h.txt"
    path.write_text(f"field-disc -23 chi-order {order}\n{entries}")
    with pytest.raises(HeckeParseError, match="root of unity") as err:
        parse_hecke(str(path))
    assert err.value.line == line


@pytest.mark.parametrize("entries, line, message", [
    ("5 split 1/3 2/3\n23 inert 1/3\n", 2,
     "p=5 is inert in Q(sqrt(-23)), where (-23/5) = -1; the entry says split"),
    ("2 split 1/3 2/3\n23 inert 1/3\n", 3,
     "p=23 ramifies in Q(sqrt(-23)), where (-23/23) = 0; the entry says inert"),
    ("2 split 1/3 2/3\n3 inert 1/3\n", 3,
     "p=3 splits in Q(sqrt(-23)), where (-23/3) = 1; the entry says inert"),
])
def test_parse_hecke_refuses_an_entry_of_the_wrong_type(tmp_path, entries, line, message):
    path = tmp_path / "h.txt"
    path.write_text(f"field-disc -23 chi-order 3\n{entries}")
    with pytest.raises(HeckeParseError) as err:
        parse_hecke(str(path))
    assert err.value.line == line and str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("disc", [-23, -47, -4, -3, -7, -8, 5, 8, 12, 13, 21, -84])
def test_kronecker_symbol_is_the_splitting_of_the_ring_of_integers(disc):
    # Dedekind: p splits, stays inert or ramifies in Q(sqrt(D)) as the minimal
    # polynomial of a generator of the integers has 2, 0 or 1 roots mod p
    b, c = (1, (1 - disc) // 4) if disc % 4 == 1 else (0, -disc // 4)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        roots = sum((x * x - b * x + c) % p == 0 for x in range(p))
        assert ingest._kronecker(disc, p) == {2: 1, 0: -1, 1: 0}[roots]


def test_parse_hecke_refuses_a_disc_whose_kronecker_symbol_misjudges_a_prime(tmp_path):
    # Q(sqrt(-5)) has discriminant -20, so 2 ramifies there, yet (-5/2) = -1
    path = tmp_path / "h.txt"
    path.write_text("field-disc -5 chi-order unknown\n2 inert 1/2\n3 split 1/2 1/2\n")
    with pytest.raises(HeckeParseError) as err:
        parse_hecke(str(path))
    assert err.value.line == 1 and "-5 is not a quadratic field discriminant" in str(err.value)


@pytest.mark.parametrize("disc", [0, 1, 4, 9, 6, 7, -1, -5, -12, -16, -48, 10 ** 40 + 2])
def test_parse_hecke_refuses_a_disc_that_names_no_quadratic_field(tmp_path, disc):
    path = tmp_path / "h.txt"
    path.write_text(f"field-disc {disc} chi-order unknown\n")
    with pytest.raises(HeckeParseError) as err:
        parse_hecke(str(path))
    assert err.value.line == 1 and f"field-disc {disc} is not a" in str(err.value)


@pytest.mark.parametrize("disc", [-3, -4, -8, -20, -23, -84, 5, 8, 12, -75])
def test_parse_hecke_takes_field_discriminants(tmp_path, disc):
    # each type from Dedekind's root count of the generator's minimal
    # polynomial mod p; -75 = -3 * 5^2 keeps an odd square factor, at whose
    # prime every entry would be refused as ramified
    b, c = (1, (1 - disc) // 4) if disc % 4 == 1 else (0, -disc // 4)
    lines = []
    for p in (2, 3, 5, 7, 11, 13):
        roots = sum((x * x - b * x + c) % p == 0 for x in range(p))
        if roots != 1:
            lines.append(f"{p} split 1/2 1/2" if roots == 2 else f"{p} inert 1/2")
    path = tmp_path / "h.txt"
    path.write_text(f"field-disc {disc} chi-order 2\n" + "\n".join(lines) + "\n")
    data = parse_hecke(str(path))
    assert data.field_disc == disc and len(data.entries) == len(lines) >= 3


@pytest.mark.parametrize("order", ["6", "unknown"])
def test_parse_hecke_takes_values_whose_order_divides_the_chi_order(tmp_path, order):
    path = tmp_path / "h.txt"
    path.write_text(f"field-disc -23 chi-order {order}\n2 split 1/3 2/3\n5 inert 1/2\n"
                    "13 split 0.5,0.8660254037844386 0.5,-0.8660254037844386\n")
    assert len(parse_hecke(str(path)).entries) == 3


def test_parse_hecke_mixed_entry_demotes_to_float(tmp_path):
    path = tmp_path / "mix.txt"
    path.write_text("field-disc -23 chi-order 3\n"
                    "13 split 1/3 -0.5,-0.8660254037844386\n")
    data = parse_hecke(str(path))
    e = data.entries[0]
    assert isinstance(e.chi_p, complex) and isinstance(e.chi_pbar, complex)
    from symcube.monomial import check_monomial_r3
    assert check_monomial_r3(e) < 1e-12


def test_parse_afe_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("gamma_shifts = 5.5, 16.5\nconductor = 1\n"
                    "cutoff = 4000\nself_dual = true\n")
    cfg = parse_afe_config(str(path))
    assert cfg.gamma_shifts == (5.5, 16.5)
    assert cfg.conductor == 1
    assert cfg.cutoff == 4000 and cfg.self_dual

    path.write_text("conductor = 1\n")
    with pytest.raises(ValueError):
        parse_afe_config(str(path))


def test_shipped_afe_config_file_is_the_cli_default():
    # the CLI without --config uses delta_sym3_config(); the README and the
    # benchmark read the file
    from pathlib import Path
    from symcube.analytic import delta_sym3_config
    path = Path(__file__).resolve().parents[1] / "data" / "delta_sym3_afe.cfg"
    assert parse_afe_config(str(path)) == delta_sym3_config()


def test_parse_afe_config_degree_key(tmp_path):
    # the degree is 2 x the number of Gamma_C factors; a key may restate it
    path = tmp_path / "cfg.txt"
    path.write_text("gamma_shifts = 5.5, 16.5\ndegree = 4\n")
    assert parse_afe_config(str(path)).gamma_shifts == (5.5, 16.5)
    for degree in ("3", "2", "six"):
        path.write_text(f"gamma_shifts = 5.5, 16.5\ndegree = {degree}\n")
        with pytest.raises(ValueError):
            parse_afe_config(str(path))


def test_satake_table(delta_8k):
    table = satake_table(delta_8k)
    assert 2 in table and 8191 in table    # 8191 is prime
    for p, c in table.items():
        assert abs(c.alpha * c.beta - 1.0) < 1e-12
        assert is_tempered(c, 1e-8)        # the coefficient bound, numerically


def test_satake_table_skips_level_primes():
    form = ParsedForm(2, 11, {1: 1, 2: -2, 3: -1, 4: 2, 5: 1, 6: 2,
                              7: -2, 8: 0, 9: -2, 10: -2, 11: 1})
    table = satake_table(form)
    assert 11 not in table
    assert 2 in table
