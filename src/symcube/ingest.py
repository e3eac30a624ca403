"""Parsers for coefficient tables, Hecke-character data, and AFE configs.

Coefficient files carry integer Fourier coefficients in arithmetic
normalization; integers are parsed exactly and only converted to floats when
Satake classes are built.  A built-in q-expansion of the weight-12 level-1
cusp form (eta^24) supplies test data without external downloads; its two
exact polynomial squarings pack coefficients into base-10^w slots of a
stdlib decimal.Decimal, which libmpdec multiplies by number-theoretic
transform, with w chosen so that no slot carries.  eta^12 stays in the
digit slots of the first squaring, zero-padded to the second's width, and
is never parsed to ints.
"""

from __future__ import annotations

import decimal
import math
from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from . import SymcubeInputError
from .localfactor import RepTag, ReciprocalPoly, local_factor, primes_upto
from .satake import Record, SatakeClass, satake_from_hecke, set_field

# cyclo and monomial serve only parse_hecke, which imports them when it runs
if TYPE_CHECKING:
    from .analytic import AFEConfig
    from .monomial import HeckeLocalData


class FormParseError(SymcubeInputError):
    """A fault in a coefficient file, at a line, or else in the table as a whole."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MultiplicativityError(FormParseError):
    def __init__(self, m: int, n: int):
        self.pair = (m, n)
        super().__init__(None, f"multiplicativity fails at coprime pair ({m}, {n}): "
                               f"a({m * n}) != a({m})*a({n})")


class HeckeParseError(SymcubeInputError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigParseError(SymcubeInputError):
    """A fault in an AFE config file, at a line, or else in a key's value."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        super().__init__(f"config line {line}: {message}" if line else f"config: {message}")


class ParsedForm(Record):
    def __init__(self, weight: int, level: int, coefficients: Dict[int, int],
                 source_path: str = ""):
        set_field(self, "weight", weight)
        set_field(self, "level", level)
        set_field(self, "coefficients", coefficients)
        set_field(self, "source_path", source_path)

    @property
    def n_max(self) -> int:
        return max(self.coefficients) if self.coefficients else 0


def _audit_multiplicativity(coeffs: Dict[int, object]) -> None:
    """a(mn) = a(m) a(n) for coprime m, n: each n, in the table's ascending
    order, against its first split q * (n/q), q = p^e exactly dividing n and p
    ascending, with both parts in the table.  Without gaps that split is at
    the least prime, so by induction on the number of primes every coprime
    pair holds: the check is complete.  It costs 4 bytes per index."""
    nmax = max(coeffs)
    least = array("I", [0]) * (nmax + 1)   # 0 at 0, 1 and the primes
    for p in reversed(primes_upto(math.isqrt(nmax))):
        least[p * p::p] = array("I", [p]) * len(range(p * p, nmax + 1, p))
    for n, lhs in coeffs.items():
        rest = n
        while rest > 1:
            p, q = least[rest] or rest, 1
            while rest % p == 0:
                rest, q = rest // p, q * p
            if q < n and q in coeffs and n // q in coeffs:
                rhs = coeffs[q] * coeffs[n // q]
                if (not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)
                        if isinstance(lhs, float) or isinstance(rhs, float) else lhs != rhs):
                    raise MultiplicativityError(*sorted((q, n // q)))
                break


def _headed_lines(path: str, error, header: str):
    """The first line of a headed file, and (line number, text) of each
    nonblank line after it; error(1, ...) when the first line is empty."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise error(1, f"empty file; expected header '{header}'")
    return lines[0], ((i, raw) for i, raw in enumerate(lines[1:], start=2) if raw.strip())


# The audit's least-prime table and satake_table's sieve cost a slot per index
# up to the largest, so a table may reach only this far past its entry count.
_SPARSE_RATIO, _SPARSE_FLOOR = 64, 1 << 16


def parse_form(path: str) -> ParsedForm:
    """Read and validate a coefficient file.

    Grammar: header ``weight k level N character trivial`` then ascending
    ``n a_n`` lines.  Validation: a_1 = 1, a largest index at most 64 times
    the entry count (or 65536), and the multiplicativity audit.
    """
    first, body = _headed_lines(path, FormParseError, "weight k level N character trivial")
    head = first.split()
    if len(head) != 6 or head[0] != "weight" or head[2] != "level" or head[4] != "character":
        raise FormParseError(1, f"malformed header {first!r}")
    try:
        weight, level = int(head[1]), int(head[3])
    except ValueError:
        raise FormParseError(1, "weight and level must be integers") from None
    if weight < 1 or level < 1:
        # at level 0 every prime would count as ramified and nothing be checked
        raise FormParseError(1, f"weight and level must be >= 1, got weight {weight} "
                                f"level {level}")
    if head[5] != "trivial":
        raise FormParseError(1, "only character trivial is accepted")
    coeffs: Dict[int, int] = {}
    prev = 0
    for i, raw in body:
        bits = raw.split()
        if len(bits) != 2:
            raise FormParseError(i, f"expected 'n a_n', got {raw!r}")
        try:
            n = int(bits[0])
            a = int(bits[1]) if "." not in bits[1] else float(bits[1])
        except ValueError:
            raise FormParseError(i, f"bad number in {raw!r}") from None
        if isinstance(a, float) and not math.isfinite(a):
            raise FormParseError(i, f"non-finite coefficient in {raw!r}")
        if n <= prev:
            raise FormParseError(i, f"indices must ascend; saw {n} after {prev}")
        prev = n
        coeffs[n] = a
    if coeffs.get(1) != 1:
        raise FormParseError(1, "a_1 must be 1 (normalized eigenform)")
    if prev > max(_SPARSE_RATIO * len(coeffs), _SPARSE_FLOOR):
        raise FormParseError(None, f"too sparse: the largest index {prev} exceeds both "
                                   f"{_SPARSE_RATIO} times the {len(coeffs)} entries "
                                   f"and {_SPARSE_FLOOR}")
    _audit_multiplicativity(coeffs)
    return ParsedForm(weight, level, coeffs, source_path=path)


class ParsedHeckeData(Record):
    def __init__(self, entries: List[HeckeLocalData], chi_order: Optional[int] = None,
                 field_disc: Optional[int] = None):
        set_field(self, "entries", entries)
        set_field(self, "chi_order", chi_order)
        set_field(self, "field_disc", field_disc)


def _parse_char_value(token: str, line: int):
    """Either exact root-of-unity shorthand 'k/n' or a 're,im' pair."""
    if "," in token:
        re_s, im_s = token.split(",", 1)
        try:
            return complex(float(re_s), float(im_s))
        except ValueError:
            raise HeckeParseError(line, f"bad re,im value {token!r}") from None
    if "/" in token:
        from .cyclo import Cyclo
        try:
            k_s, n_s = token.split("/", 1)
            return Cyclo.root_of_unity(int(k_s), int(n_s))
        except (ValueError, ZeroDivisionError):
            raise HeckeParseError(line, f"bad root-of-unity shorthand {token!r}") from None
    raise HeckeParseError(line, f"character value {token!r} is neither k/n nor re,im")


def _kronecker(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) at a prime p: 0 when p divides d, else +-1."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def parse_hecke(path: str) -> ParsedHeckeData:
    """Read quadratic-field Hecke character data.

    Grammar: header ``field-disc D chi-order n`` (n may be ``unknown``), then
    lines ``p split v v`` or ``p inert v`` where v is ``k/n`` or ``re,im``.
    D must be a quadratic field discriminant, up to an odd square factor.
    An entry's type must be that of p in Q(sqrt(D)): split where the
    Kronecker symbol (D/p) is 1, inert where it is -1; a p dividing D
    ramifies and is refused.
    """
    from .monomial import SPLIT, HeckeLocalData

    first, body = _headed_lines(path, HeckeParseError, "field-disc D chi-order n")
    head = first.split()
    if len(head) != 4 or head[0] != "field-disc" or head[2] != "chi-order":
        raise HeckeParseError(1, f"malformed header {first!r}")
    try:
        disc = int(head[1])
    except ValueError:
        raise HeckeParseError(1, "field-disc must be an integer") from None
    # (D/p) types every p right when D is a field discriminant times an odd
    # square, at whose primes each entry is refused as ramified
    if disc % 4 in (2, 3) or disc % 16 in (0, 4) or (disc >= 0 and math.isqrt(disc) ** 2 == disc):
        raise HeckeParseError(1, f"field-disc {disc} is not a quadratic field discriminant "
                                 f"(1 mod 4, or 4m with m 2 or 3 mod 4, and not a square)")
    try:
        order = None if head[3] == "unknown" else int(head[3])
    except ValueError:
        order = 0
    if order is not None and order < 1:
        raise HeckeParseError(1, f"chi-order must be an integer >= 1 or unknown, "
                                 f"got {head[3]!r}")
    entries, seen = [], set()
    for i, raw in body:
        bits = raw.split()
        if len(bits) not in (3, 4):
            raise HeckeParseError(i, f"expected 'p split v v' or 'p inert v', got {raw!r}")
        try:
            p = int(bits[0])
        except ValueError:
            raise HeckeParseError(i, f"bad prime {bits[0]!r}") from None
        if p in seen:
            raise HeckeParseError(i, f"duplicate prime {p}")
        seen.add(p)
        values = [_parse_char_value(token, i) for token in bits[2:]]
        try:
            entry = HeckeLocalData(p, bits[1], *values)
        except ValueError as exc:       # a fault of the entry itself: HeckeLocalData names it
            raise HeckeParseError(i, str(exc)) from None
        symbol = _kronecker(disc, p)
        if symbol != (1 if entry.splitting == SPLIT else -1):
            kind = ("ramifies", "splits", "is inert")[symbol]
            raise HeckeParseError(i, f"p={p} {kind} in Q(sqrt({disc})), where ({disc}/{p}) = "
                                     f"{symbol}; the entry says {entry.splitting}")
        for v in (entry.chi_p, entry.chi_pbar):
            # a finite-order character takes its values on the unit circle, so
            # a re,im value off it by more than 1e-9 (or NaN) is refused before
            # v^order, which must be 1: exactly for a Cyclo value, to 1e-9 for re,im
            if isinstance(v, complex):
                bad = not abs(math.hypot(v.real, v.imag) - 1) <= 1e-9 or (
                    order is not None and abs(v ** order - 1) > 1e-9)
            else:
                bad = v is not None and order is not None and v ** order != 1
            if bad:
                what = "on the unit circle" if order is None else f"an order-{order} root of unity"
                raise HeckeParseError(i, f"value at p={p} is not {what} "
                                         f"(chi-order {order or 'unknown'})")
        entries.append(entry)
    return ParsedHeckeData(entries, chi_order=order, field_disc=disc)


_SELF_DUAL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# the keys of a config file, each with the parser of its value
_CONFIG_KEYS = {"gamma_shifts": lambda t: tuple(float(x) for x in t.split(",")),
                "degree": int, "conductor": int, "cutoff": int, "x_scale": float,
                "self_dual": lambda t: _SELF_DUAL[t.lower()]}


def parse_afe_config(path: str) -> AFEConfig:
    """key = value lines: gamma_shifts, conductor, cutoff, self_dual, x_scale.

    An optional degree key must equal twice the number of gamma shifts.  A
    fault raises ConfigParseError, at its line where it has one: a line
    without =, an unknown key, a repeated key, a value that does not parse,
    a missing gamma_shifts, a wrong degree, a value AFEConfig rejects.
    """
    from .analytic import AFEConfig   # analytic loads numpy; parsing does not

    fields, set_at = {}, {}
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (t.strip() for t in line.partition("="))
            if not eq:
                raise ConfigParseError(i, f"expected key = value, got {raw!r}")
            if key not in _CONFIG_KEYS:
                raise ConfigParseError(i, f"unknown key {key!r}; the keys are "
                                          f"{', '.join(_CONFIG_KEYS)}")
            if key in set_at:
                raise ConfigParseError(i, f"repeated key {key!r}; first set at line {set_at[key]}")
            set_at[key] = i
            try:
                fields[key] = _CONFIG_KEYS[key](val)
            except (ValueError, KeyError):
                raise ConfigParseError(i, f"bad {key} value {val!r}") from None
    if "gamma_shifts" not in fields:
        raise ConfigParseError(None, "gamma_shifts must be set")
    n, degree = len(fields["gamma_shifts"]), fields.pop("degree", None)
    if degree is not None and degree != 2 * n:
        raise ConfigParseError(None, f"degree = {degree} disagrees with {n} gamma "
                                     f"shifts (degree {2 * n})")
    try:
        return AFEConfig(**fields)
    except ValueError as exc:
        raise ConfigParseError(None, str(exc)) from None


# --- built-in q-expansion oracle ------------------------------------------

# Exact integer arithmetic on Decimals: nothing is rounded at any size.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


def _square_slots(packed: str, offset: str, w: int, nkeep: int) -> str:
    """The low nkeep w-digit slots of the square of an integer polynomial,
    each raised by half = 10^w / 2, as one decimal string, slot 0 last.

    Kronecker substitution at 10^w: coefficient i is slot i (from the right)
    of the digit string packed less that of offset, both of w-digit slots,
    and libmpdec squares the resulting Decimal with its number-theoretic
    transform.  A coefficient of the square is a sum of at most n products,
    n the number of slots, so it is at most n m^2 in size, m the largest
    |coefficient|; the caller picks w with 2 n m^2 < 10^w, which keeps it
    below half.  With half added to each of the low nkeep slots every one of
    them lies in (0, 10^w), so none borrows from or carries into its
    neighbour and the low nkeep * w digits read off directly.

    No large int passes through str() or Decimal(): Decimal(int) is
    quadratic in the digits, and str(int) raises past
    sys.get_int_max_str_digits().
    """
    with decimal.localcontext(_EXACT):
        x = decimal.Decimal(packed) - decimal.Decimal(offset)
        x = x * x + decimal.Decimal(str(10 ** w // 2) * nkeep)
    digits = str(x)
    del x
    # the raise has nkeep * w digits, so digits is at least that long
    return digits[len(digits) - nkeep * w:]


def eta24_qexpansion(n_max: int) -> List[int]:
    """Coefficients a(0..n_max) of q prod_k (1-q^k)^24, exactly.

    The cube of the Euler product is the sparse series
    sum_k (-1)^k (2k+1) q^{k(k+1)/2} (Jacobi); its square is summed over
    each unordered pair of terms once, and the 12th and 24th powers come
    from two _square_slots calls.  The 12th power stays in the digit slots
    of the first: the slot strings have one width, so their max and min as
    strings are those as numbers and give its largest |coefficient| m; each
    slot is zero-padded to the width 2 n m^2 needs, keeping its offset.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = n_max  # coefficients of (eta-product)^24 up to q^{n-1}, then shift by 1
    cube = []
    k = 0
    while k * (k + 1) // 2 < n:
        cube.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    sixth = [0] * n
    for i, (e1, c1) in enumerate(cube):
        if 2 * e1 >= n:
            break
        sixth[2 * e1] += c1 * c1
        c1 *= 2
        for e2, c2 in cube[i + 1:]:
            e = e1 + e2
            if e >= n:
                break
            sixth[e] += c1 * c2
    m = max(map(abs, sixth))   # sixth[0] = 1
    w1 = len(str(2 * n * m * m))
    twelfth = _square_slots("".join([str(c + m).zfill(w1) for c in reversed(sixth)]),
                            str(m).zfill(w1) * n, w1, n)
    slots = [twelfth[j:j + w1] for j in range(0, n * w1, w1)]
    half1 = 10 ** w1 // 2
    m = max(int(max(slots)) - half1, half1 - int(min(slots)))
    w2 = max(w1, len(str(2 * n * m * m)))
    pad = "0" * (w2 - w1)
    packed = pad + pad.join(slots)
    del twelfth, slots   # freed before the second product is allocated
    full = _square_slots(packed, (pad + str(half1)) * n, w2, n)
    half2 = 10 ** w2 // 2
    return [0] + [int(full[j - w2:j]) - half2 for j in range(n * w2, 0, -w2)]


def delta_form(n_max: int) -> ParsedForm:
    """Built-in sample: the weight-12 level-1 eigenform, coefficients to n_max."""
    a = eta24_qexpansion(n_max)
    return ParsedForm(12, 1, {i: a[i] for i in range(1, n_max + 1)},
                      source_path=f"builtin:delta:{n_max}")


def satake_classes(form: ParsedForm, primes) -> Iterator[Tuple[int, SatakeClass]]:
    """(p, Satake class) at each of the primes given, in their order, that
    the table holds and the level does not divide, each class built only
    when it is drawn."""
    return ((p, satake_from_hecke(form.coefficients[p], p, form.weight, 1.0))
            for p in primes if form.level % p and p in form.coefficients)


def satake_table(form: ParsedForm) -> Dict[int, SatakeClass]:
    """Satake classes at all good primes in the parsed range.

    Primes dividing the level are the ramified set and are skipped.
    """
    return dict(satake_classes(form, primes_upto(form.n_max)))


def sym3_factors(form: ParsedForm, limit: int) -> Dict[int, ReciprocalPoly]:
    """The sym3 factor map of the primes p <= limit; 1 at those dividing the level."""
    primes = primes_upto(limit)
    factors = {p: ReciprocalPoly([1]) for p in primes if form.level % p == 0}
    factors.update((p, local_factor(RepTag.SYM3, c)) for p, c in satake_classes(form, primes))
    return factors
