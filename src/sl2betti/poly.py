"""Exact sparse multivariate polynomial arithmetic over the rationals.

A monomial is a tuple of non-negative integer exponents, one per ring
variable.  A polynomial maps monomials to nonzero rational coefficients,
ints or Fractions: `normalize` and the engines give ints, the validating
constructor and the parser Fractions.  Equal values compare and print
alike.  The zero polynomial stores no terms.  Rings carry positive
integer weights so that deg(x_i) = weights[i], and all degree bookkeeping
is weighted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .linalg import primitive

Exponent = Tuple[int, ...]
Coefficient = Union[int, Fraction]

# largest exponent of one variable that any input or product may carry; it
# fills the 12-bit field in which `invariants._ImageCache` packs exponents,
# and the fields of the packed order keys (`PackedKey`) add a guard bit to it
MAX_EXPONENT = 4095


class RingMismatchError(ValueError):
    """Operands live in different rings or have inconsistent shapes."""


@dataclass(frozen=True)
class GradedRing:
    """Polynomial ring K[x_1..x_m] with positive integer variable weights."""

    names: Tuple[str, ...]
    weights: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.names) != len(self.weights):
            raise RingMismatchError("variable and weight counts differ")
        if len(set(self.names)) != len(self.names):
            raise RingMismatchError("variable names must be pairwise distinct")
        if any(w < 1 for w in self.weights):
            raise RingMismatchError("weights must be positive integers")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero_exponent(self) -> Exponent:
        return (0,) * self.nvars

    def weighted_degree(self, m: Exponent) -> int:
        if len(m) != self.nvars:
            raise RingMismatchError("exponent length does not match ring")
        return sum(e * w for e, w in zip(m, self.weights))

    def variable(self, i: int) -> "Polynomial":
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial._raw(self, {tuple(exp): Fraction(1)})

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial._raw(self, {})
        return Polynomial._raw(self, {self.zero_exponent(): c})

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)


def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def graded_monomials(
    grades: Sequence[Sequence[int]], target: Sequence[int]
) -> List[Exponent]:
    """Every exponent vector alpha with sum(alpha[v] * grades[v]) == target,
    in ascending lexicographic order.

    grades[v] is the grade vector of variable v: nonnegative and nonzero,
    of the target's length.  A target with a negative entry has no
    monomials.  The weighted degree of a ring is the grading (w,) per
    variable; `invariants.CoefficientRing.grades` is the isobaric grading
    of an sl2-weight piece.

    The remainder target - grade(prefix) is packed into one int, one field
    per target entry, each below a guard bit.  A field holds the target
    plus the largest grade entry, so subtracting a grade is one integer
    subtraction that never borrows across fields, and a field that goes
    negative clears its guard bit.  reach[v] is the set of remainders the
    variables v.. fill exactly, so the search enters only branches that end
    in a monomial.
    """
    target = tuple(target)
    for g in grades:
        if len(g) != len(target):
            raise ValueError("grade vector length does not match the target")
        if not any(g):
            raise ValueError("a grade vector must be nonzero")
        if min(g) < 0:
            raise ValueError("grades must be nonnegative")
    if min(target, default=0) < 0:
        return []
    top_entry = max((x for g in grades for x in g), default=0)
    bits = (max(target, default=0) + top_entry).bit_length() + 1
    guard = 1 << (bits - 1)

    def pack(vec: Sequence[int]) -> int:
        return sum(x << (j * bits) for j, x in enumerate(vec))

    guards = pack([guard] * len(target))
    top = guards + pack(target)
    # a remainder guards + r lies under the target iff every field of
    # top + guards - (guards + r) = guards + target - r keeps its guard bit
    lim = top + guards
    steps = [pack(g) for g in grades]
    n = len(steps)
    reach = [set() for _ in range(n)] + [{guards}]
    for v in range(n - 1, -1, -1):
        # a walk stops at a remainder already seen: an earlier walk went
        # on from it through every multiple under the target
        here, g = reach[v], steps[v]
        for r in reach[v + 1]:
            while r not in here and (lim - r) & guards == guards:
                here.add(r)
                r += g
    if top not in reach[0]:
        return []
    if not n:
        return [()]
    # the last variable's exponent is forced: read it off a nonzero field
    j = next(j for j, x in enumerate(grades[-1]) if x)
    shift, unit, mask = j * bits, grades[-1][j], (1 << bits) - 1
    out: List[Exponent] = []
    expo = [0] * n

    def rec(v: int, rem: int) -> None:
        if v == n - 1:
            expo[v] = (((rem >> shift) & mask) - guard) // unit
            out.append(tuple(expo))
            return
        g, nxt = steps[v], reach[v + 1]
        e = 0
        while rem & guards == guards:
            if rem in nxt:
                expo[v] = e
                rec(v + 1, rem)
            rem -= g
            e += 1

    rec(0, top)
    return out


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order.

    kind "weighted":  weighted degree first, reverse-lexicographic tie-break.
    kind "lex":       plain lexicographic on exponents.
    kind "block":     eliminates the first `block` variables: the front block
                      is compared (weighted degrevlex) before the back block.
    """

    kind: str = "weighted"
    block: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("weighted", "lex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise ValueError("block order needs a positive front block size")

    def key_function(self, ring: GradedRing) -> "PackedKey":
        """Sort key: bigger key = bigger monomial (see `PackedKey`)."""
        return _packed_key(self, ring)


# bits per exponent field of a packed key: MAX_EXPONENT and one guard bit
FIELD_BITS = MAX_EXPONENT.bit_length() + 1


class PackedKey:
    """A monomial order as one non-negative int, affine in the exponent.

    key(m) = const + sum(m[i] * coeffs[i]) for exponents up to MAX_EXPONENT.
    The lowest nvars fields of FIELD_BITS bits hold MAX_EXPONENT - m[i],
    variable 0 lowest, with the top (guard) bit of each field clear; they
    are the reverse-lexicographic tie-break of the weighted order and let
    `decode` read the exponent back.  Above them, the head decides the
    order: the weighted degree, the lex exponents, or the front block's
    degree and reverse-lexicographic fields then the back block's degree.
    Keys of monomials with equal heads compare by the tail, which never
    changes an order the head already fixes.
    """

    __slots__ = ("nvars", "const", "coeffs", "_shifts")

    def __init__(self, nvars: int, head: Sequence[Tuple[int, int, Sequence[int]]]) -> None:
        """head: fields (bits, constant, per-variable coefficients), least
        significant first; the last field's width is never used."""
        f = FIELD_BITS
        tail = [
            (f, MAX_EXPONENT, [-int(v == i) for v in range(nvars)])
            for i in range(nvars)
        ]
        const, coeffs, shift = 0, [0] * nvars, 0
        for bits, c, q in tail + list(head):
            const += c << shift
            coeffs = [a + (b << shift) for a, b in zip(coeffs, q)]
            shift += bits
        self.nvars = nvars
        self.const = const
        self.coeffs = tuple(coeffs)
        self._shifts = tuple(f * i for i in range(nvars))

    def __call__(self, m: Exponent) -> int:
        if max(m, default=0) > MAX_EXPONENT:
            raise ValueError(f"exponent {max(m)} exceeds the supported maximum {MAX_EXPONENT}")
        return self.const + sum(map(mul, m, self.coeffs))

    def decode(self, key: int) -> Exponent:
        mask = (1 << FIELD_BITS) - 1
        return tuple(MAX_EXPONENT - ((key >> s) & mask) for s in self._shifts)


@lru_cache(maxsize=64)
def _packed_key(order: MonomialOrder, ring: GradedRing) -> PackedKey:
    n, w = ring.nvars, ring.weights
    units = [[int(v == i) for v in range(n)] for i in range(n)]
    if order.kind == "weighted":
        return PackedKey(n, [(0, 0, w)])
    if order.kind == "lex":
        return PackedKey(n, [(FIELD_BITS, 0, units[i]) for i in reversed(range(n))])
    k = order.block
    if k >= n:
        raise RingMismatchError("front block exceeds ring size")
    back = (0,) * k + w[k:]
    head = [((sum(back) * MAX_EXPONENT).bit_length(), 0, back)]
    head += [(FIELD_BITS, MAX_EXPONENT, [-e for e in units[i]]) for i in range(k)]
    head.append((0, 0, w[:k] + (0,) * (n - k)))
    return PackedKey(n, head)


def compare(order: MonomialOrder, ring: GradedRing, a: Exponent, b: Exponent) -> int:
    """-1, 0 or 1 as a <, =, > b under the order."""
    if len(a) != ring.nvars or len(b) != ring.nvars:
        raise RingMismatchError("exponent length does not match ring")
    if a == b:
        return 0
    key = order.key_function(ring)
    return 1 if key(a) > key(b) else -1


WEIGHTED = MonomialOrder("weighted")
LEX = MonomialOrder("lex")

def elimination_order(front_block: int) -> MonomialOrder:
    return MonomialOrder("block", front_block)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients: ints or
    Fractions (see the module docstring)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[Exponent, object]):
        clean: Dict[Exponent, Fraction] = {}
        n = ring.nvars
        for m, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(m) != n or any(e < 0 for e in m):
                raise RingMismatchError(f"bad exponent {m} for ring with {n} variables")
            clean[tuple(m)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, ring: GradedRing, terms: Dict[Exponent, Coefficient]) -> "Polynomial":
        """Trusted constructor: terms already clean (no zeros, right width)."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def monomials(self) -> Iterator[Exponent]:
        return iter(self.terms)

    def weighted_degree(self) -> int:
        """Maximum weighted degree over the support; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.weighted_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.weighted_degree(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self, order: MonomialOrder = WEIGHTED) -> List[Tuple[Exponent, Coefficient]]:
        key = order.key_function(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self, order: MonomialOrder = WEIGHTED) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        key = order.key_function(self.ring)
        return max(self.terms, key=key)

    def leading_coefficient(self, order: MonomialOrder = WEIGHTED) -> Coefficient:
        return self.terms[self.leading_monomial(order)]

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial._raw(self.ring, mul_dicts(self.terms, other.terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial._raw(self.ring, {})
        return Polynomial._raw(self.ring, {m: co * c for m, co in self.terms.items()})

    def mul_monomial(self, m: Exponent, c=1) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial._raw(self.ring, {})
        return Polynomial._raw(
            self.ring, {monomial_mul(mm, m): co * c for mm, co in self.terms.items()}
        )

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # mutable-looking container semantics; not hashable

    # -- normal form -----------------------------------------------------

    def normalize(self, order: MonomialOrder = WEIGHTED) -> "Polynomial":
        """Scale so coefficients are coprime ints and the leading one is positive.

        The zero polynomial normalizes to itself (a distinct signal, not an error).
        """
        if not self.terms:
            return self
        ints, _ = primitive(self.terms, self.leading_monomial(order))
        return Polynomial._raw(self.ring, ints)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<Polynomial {format_polynomial(self)}>"


def mul_dicts(
    a: Dict[Exponent, Coefficient], b: Dict[Exponent, Coefficient]
) -> Dict[Exponent, Coefficient]:
    """Exact product of two term maps."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Dict[Exponent, Coefficient] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


# ---------------------------------------------------------------------------
# Text grammar
#
#   ring x1 x2 ... ; weights 3 3 2 ... ; order weighted ;
#   <one polynomial per line>
#
# Terms look like `-1/2*x3*x9^2`; `^1` is optional, a bare rational is a
# constant term, and a bare variable product has an implicit coefficient 1.
# Lines starting with `#` are comments.
# ---------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")


def parse_polynomial(text: str, ring: GradedRing) -> Polynomial:
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial text")
    index = {n: i for i, n in enumerate(ring.names)}
    terms: Dict[Exponent, Fraction] = {}
    for chunk in _TERM_SPLIT.split(s):
        if not chunk or chunk in "+-":
            if chunk:
                raise ValueError(f"dangling sign in {text!r}")
            continue
        sign = 1
        body = chunk
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * ring.nvars
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                if "e" in factor or "E" in factor:
                    # Fraction("1e999999999") would build a billion-digit integer
                    raise ValueError(f"exponent notation in {factor!r} in {text!r}")
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r} in {text!r}") from None
                continue
            m = _VAR_RE.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            i = index[m.group(1)]
            exps[i] += int(m.group(2) or 1)
            if exps[i] > MAX_EXPONENT:
                raise ValueError(
                    f"exponent of {m.group(1)} exceeds {MAX_EXPONENT} in {text!r}"
                )
        mono = tuple(exps)
        c = terms.get(mono, Fraction(0)) + coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return Polynomial._raw(ring, terms)


def format_polynomial(p: Polynomial, order: MonomialOrder = WEIGHTED) -> str:
    if not p.terms:
        return "0"
    pieces: List[str] = []
    for m, c in p.sorted_terms(order):
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.ring.names, m)
            if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


_ORDER_TOKENS = {
    "weighted": WEIGHTED,
    "degrevlex": WEIGHTED,
    "lex": LEX,
}


def parse_header(text: str) -> Tuple[GradedRing, MonomialOrder]:
    """Parse the `ring ...; weights ...; order ...;` header clauses, each at
    most once."""
    names: Optional[Tuple[str, ...]] = None
    weights: Optional[Tuple[int, ...]] = None
    order = WEIGHTED
    seen = set()
    for clause in text.split(";"):
        words = clause.split()
        if not words:
            continue
        head, rest = words[0], words[1:]
        if head in seen:
            raise ValueError(f"repeated header clause {head!r}")
        seen.add(head)
        if head == "ring":
            names = tuple(rest)
        elif head == "weights":
            weights = tuple(int(w) for w in rest)
        elif head == "order":
            if not rest:
                raise ValueError("order clause needs a kind")
            if rest[0] == "block":
                if len(rest) != 2:
                    raise ValueError("block order needs exactly one front block size")
                order = elimination_order(int(rest[1]))
            elif rest[0] in _ORDER_TOKENS:
                order = _ORDER_TOKENS[rest[0]]
            else:
                raise ValueError(f"unknown order kind {rest[0]!r}")
        else:
            raise ValueError(f"unknown header clause {head!r}")
    if names is None:
        raise ValueError("header missing ring clause")
    if weights is None:
        weights = (1,) * len(names)
    return GradedRing(names, weights), order


def parse_session(text: str) -> Tuple[GradedRing, MonomialOrder, List[Polynomial]]:
    """Parse a full document: header line(s) then one polynomial per line.

    The header is everything up to and including the line containing the
    last header clause; in practice headers are written on one line.
    """
    lines = [ln for ln in text.splitlines()]
    header_parts: List[str] = []
    body_start = 0
    for i, ln in enumerate(lines):
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            body_start = i + 1
            continue
        if stripped.startswith(("ring", "weights", "order")):
            header_parts.append(stripped)
            body_start = i + 1
            continue
        break
    ring, order = parse_header(" ".join(header_parts))
    polys = []
    for ln in lines[body_start:]:
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        polys.append(parse_polynomial(stripped, ring))
    return ring, order, polys


def format_session(ring: GradedRing, order: MonomialOrder, polys: Sequence[Polynomial]) -> str:
    if order.kind == "block":
        order_txt = f"block {order.block}"
    else:
        order_txt = order.kind
    head = (
        f"ring {' '.join(ring.names)} ; "
        f"weights {' '.join(str(w) for w in ring.weights)} ; "
        f"order {order_txt} ;"
    )
    return "\n".join([head] + [format_polynomial(p, order) for p in polys]) + "\n"
