"""Exact arithmetic in a graded-supercommutative cohomology model of J x S.

The ring is the tensor product of an exterior algebra on 2q odd degree-1
generators th_1..th_{2q} (the Jacobian factor J) with a truncated surface
factor S carrying odd degree-1 generators be_1..be_{2q}, even degree-2
symbols ("Sigma", "zeta", "K", "alpha", ...) pairing symmetrically into the
point class [S], and the reductions

    be_i . be_j  =  a_ij Sigma          (a antisymmetric)
    be_i . Sigma =  0
    sym  . sym'  =  <sym, sym'> [S]
    [S]  . (anything of positive S-degree) = 0

together with truncation of every monomial whose J-degree exceeds 2q or
whose S-degree exceeds 4.  Any product of three or more odd surface
generators vanishes; on ruled surfaces and their blow-ups H^1 pulls back
from the base curve, which forces both this and be_i.Sigma = 0 (the latter
is also required for associativity once some a_ij is nonzero).

Coefficients are exact rationals; no floating point is used anywhere.
Monomials are kept in a canonical form (J generators sorted by index, then
the S-side word), so equality of elements is literal dictionary equality.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType

from .errors import ModelMismatchError, PreconditionError

SIGMA = "Sigma"

_ONE = Fraction(1)

# S-side monomial encodings: (s_degree, payload)
S_ONE = (0, ())
S_PT = (4, ())


def s_odd(i):
    return (1, (i,))


def s_even(sym):
    return (2, (sym,))


def s_mixed(i, sym):
    return (3, (i, sym))


def frac(x) -> Fraction:
    """Coerce an int / str / Fraction into an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


def exact_int(x, what) -> int:
    """Coerce an integral int / str / Fraction into an int; never truncates.

    A value with a fractional part raises PreconditionError naming ``what``.
    """
    f = frac(x)
    if f.denominator != 1:
        raise PreconditionError(f"{what} must be an integer, got {f}")
    return f.numerator


def _merge_odd(t1, t2):
    """Exterior product of two sorted index tuples: (sign, merged) or (0, None)."""
    if not t1:
        return 1, t2
    if not t2:
        return 1, t1
    sign = 1
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        x, y = t1[i], t2[j]
        if x == y:
            return 0, None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
            if (n1 - i) & 1:
                sign = -sign
    out.extend(t1[i:])
    out.extend(t2[j:])
    return sign, tuple(out)


class ModelSpec:
    """Presentation of H*(J) (x) H*(S): generators, a_ij data, Gram pairings.

    Models are immutable after construction and safe to share; identity is
    object identity.  ``a_matrix`` is the antisymmetric matrix with
    be_i.be_j = a_ij Sigma; ``gram`` holds the symmetric pairings among the
    even degree-2 symbols (Sigma.Sigma = 0 always).
    """

    def __init__(self, q, a_matrix, gram, even_symbols=(SIGMA, "zeta", "K", "alpha")):
        q = int(q)
        if q < 0:
            raise PreconditionError("q must be non-negative")
        self.q = q
        n = 2 * q
        a = tuple(tuple(frac(x) for x in row) for row in a_matrix)
        if len(a) != n or any(len(row) != n for row in a):
            raise PreconditionError(f"a_matrix must be {n}x{n} for q={q}")
        for i in range(n):
            for j in range(n):
                if a[i][j] != -a[j][i]:
                    raise PreconditionError("a_matrix must be antisymmetric")
        self.a_matrix = a
        if SIGMA not in even_symbols:
            raise PreconditionError("the even symbol table must contain Sigma")
        self.even_symbols = tuple(even_symbols)
        self._gram = {}
        for (s1, s2), val in dict(gram).items():
            if s1 not in self.even_symbols or s2 not in self.even_symbols:
                raise PreconditionError(f"gram entry for unregistered symbol ({s1},{s2})")
            v = frac(val)
            old = self._gram.get((s1, s2))
            if old is not None and old != v:
                raise PreconditionError(f"conflicting gram entries for ({s1},{s2})")
            self._gram[(s1, s2)] = v
            self._gram[(s2, s1)] = v
        if self._gram.get((SIGMA, SIGMA), Fraction(0)) != 0:
            raise PreconditionError("Sigma.Sigma must be 0")
        self.j_top = tuple(range(n))
        self._omega_powers = None

    # -- pairings -------------------------------------------------------

    def pair(self, s1, s2) -> Fraction:
        """Gram pairing of two even symbols (0 when unset)."""
        return self._gram.get((s1, s2), Fraction(0))

    # -- element constructors -------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return GradedElement(self, {((), S_ONE): _ONE})

    def scalar(self, c) -> "GradedElement":
        c = frac(c)
        return GradedElement(self, {((), S_ONE): c} if c else {})

    def theta(self, i) -> "GradedElement":
        """J-side odd generator th_i (0-based index)."""
        self._check_index(i)
        return GradedElement(self, {((i,), S_ONE): _ONE})

    def beta(self, i) -> "GradedElement":
        """S-side odd generator be_i (0-based index)."""
        self._check_index(i)
        return GradedElement(self, {((), s_odd(i)): _ONE})

    def even(self, sym) -> "GradedElement":
        """An even degree-2 surface symbol."""
        if sym not in self.even_symbols:
            raise PreconditionError(f"unregistered even symbol {sym!r}")
        return GradedElement(self, {((), s_even(sym)): _ONE})

    def point(self) -> "GradedElement":
        """The point class [S]."""
        return GradedElement(self, {((), S_PT): _ONE})

    def _check_index(self, i):
        if not 0 <= i < 2 * self.q:
            raise PreconditionError(f"generator index {i} out of range for q={self.q}")

    # -- distinguished classes ------------------------------------------

    def omega_class(self) -> "GradedElement":
        """omega = sum_{i<j} a_ij th_i th_j on the Jacobian factor."""
        terms = {}
        n = 2 * self.q
        for i in range(n):
            for j in range(i + 1, n):
                c = self.a_matrix[i][j]
                if c:
                    terms[((i, j), S_ONE)] = c
        return GradedElement(self, terms)

    def omega_pow(self, p) -> "GradedElement":
        """Cached p-th power of omega."""
        if p < 0:
            raise PreconditionError("negative omega power")
        if self._omega_powers is None:
            self._omega_powers = [self.one(), self.omega_class()]
        while len(self._omega_powers) <= p:
            self._omega_powers.append(self._omega_powers[-1] * self._omega_powers[1])
        return self._omega_powers[p]

    def universal_class(self) -> "GradedElement":
        """E = sum_i th_i be_i, the first Chern class of the universal bundle."""
        return GradedElement(
            self, {((i,), s_odd(i)): _ONE for i in range(2 * self.q)})

    def interior_omega(self, i) -> "GradedElement":
        """Interior product of be_i with omega: sum_j a_ij th_j."""
        self._check_index(i)
        return GradedElement(
            self,
            {((j,), S_ONE): self.a_matrix[i][j]
             for j in range(2 * self.q) if self.a_matrix[i][j]})

    # -- S-side product table -------------------------------------------

    def _smul(self, s1, s2):
        """Product of two S-side monomials: (coeff, monomial) or None."""
        d1, p1 = s1
        d2, p2 = s2
        if d1 == 0:
            return _ONE, s2
        if d2 == 0:
            return _ONE, s1
        if d1 + d2 > 4:
            return None
        if d1 == 1:
            i = p1[0]
            if d2 == 1:
                j = p2[0]
                if i == j:
                    return None
                c = self.a_matrix[i][j]
                return (c, s_even(SIGMA)) if c else None
            if d2 == 2:
                sym = p2[0]
                return None if sym == SIGMA else (_ONE, s_mixed(i, sym))
            # d2 == 3: be_i . (be_j sym) = a_ij <Sigma, sym> [S]
            j, sym = p2
            c = self.a_matrix[i][j] * self.pair(SIGMA, sym)
            return (c, S_PT) if c else None
        if d1 == 2:
            sym = p1[0]
            if d2 == 1:
                return None if sym == SIGMA else (_ONE, s_mixed(p2[0], sym))
            if d2 == 2:
                g = self.pair(sym, p2[0])
                return (g, S_PT) if g else None
            return None  # 2 + 3 exceeds top degree
        if d1 == 3 and d2 == 1:
            j, sym = p1
            c = self.a_matrix[j][p2[0]] * self.pair(SIGMA, sym)
            return (c, S_PT) if c else None
        return None

    def __repr__(self):
        return f"ModelSpec(q={self.q}, even_symbols={self.even_symbols})"


class GradedElement:
    """A finite rational sum of canonical monomials of the J x S model.

    Treat instances as immutable.  Arithmetic operators implement the
    supercommutative ring structure with Koszul signs; scalars (int or
    Fraction) mix freely with * and /.
    """

    __slots__ = ("model", "_terms")

    def __init__(self, model, terms):
        self.model = model
        self._terms = terms

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _require_same_model(self, other):
        if self.model is not other.model:
            raise ModelMismatchError("elements over different models")

    # -- additive structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_model(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return GradedElement(self.model, out)

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_model(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            s = out.get(k, 0) - v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return GradedElement(self.model, out)

    def __neg__(self):
        return GradedElement(self.model, {k: -v for k, v in self._terms.items()})

    # -- multiplicative structure ---------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            try:
                c = frac(other)
            except (TypeError, ValueError):
                return NotImplemented
            if not c:
                return GradedElement(self.model, {})
            return GradedElement(self.model, {k: v * c for k, v in self._terms.items()})
        self._require_same_model(other)
        model = self.model
        smul = model._smul
        acc = {}
        for (j1, s1), c1 in self._terms.items():
            s1_odd = s1[0] & 1
            for (j2, s2), c2 in other._terms.items():
                sign, jm = _merge_odd(j1, j2)
                if jm is None:
                    continue
                sp = smul(s1, s2)
                if sp is None:
                    continue
                if s1_odd and (len(j2) & 1):
                    sign = -sign
                c = c1 * c2 * sp[0]
                if sign < 0:
                    c = -c
                key = (jm, sp[1])
                s = acc.get(key, 0) + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return GradedElement(model, acc)

    def __rmul__(self, other):
        try:
            c = frac(other)
        except (TypeError, ValueError):
            return NotImplemented
        if not c:
            return GradedElement(self.model, {})
        return GradedElement(self.model, {k: v * c for k, v in self._terms.items()})

    def __truediv__(self, other):
        c = frac(other)
        return GradedElement(self.model, {k: v / c for k, v in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("powers must be non-negative integers")
        out = self.model.one()
        for _ in range(n):
            out = out * self
            if out.is_zero():
                break
        return out

    # -- inspection -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.model is other.model and self._terms == other._terms

    def __hash__(self):
        return hash((id(self.model), frozenset(self._terms.items())))

    def coefficient(self, monomial) -> Fraction:
        return self._terms.get(monomial, Fraction(0))

    def scalar_part(self) -> Fraction:
        return self._terms.get(((), S_ONE), Fraction(0))

    def component(self, total_degree) -> "GradedElement":
        """The part of pure total degree ``total_degree``."""
        return GradedElement(
            self.model,
            {k: v for k, v in self._terms.items() if len(k[0]) + k[1][0] == total_degree})

    def total_degrees(self):
        return sorted({len(j) + s[0] for (j, s) in self._terms})

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for key in sorted(self._terms, key=_mono_sort_key):
            c = self._terms[key]
            bits.append(f"({c})*{monomial_str(key)}")
        return " + ".join(bits)


def _mono_sort_key(key):
    (j, s) = key
    return (len(j) + s[0], j, s)


def monomial_str(key) -> str:
    (j, s) = key
    parts = [f"th{i + 1}" for i in j]
    d, payload = s
    if d == 1:
        parts.append(f"be{payload[0] + 1}")
    elif d == 2:
        parts.append(payload[0])
    elif d == 3:
        parts.append(f"be{payload[0] + 1}")
        parts.append(payload[1])
    elif d == 4:
        parts.append("[S]")
    return "*".join(parts) if parts else "1"


def exp_truncated(a: GradedElement) -> GradedElement:
    """exp(a) = sum a^n / n!, truncated by the ring; requires no degree-0 part."""
    if a.scalar_part() != 0:
        raise PreconditionError("exp_truncated requires a vanishing degree-0 component")
    out = a.model.one()
    term = a.model.one()
    n = 0
    while True:
        n += 1
        term = term * a / n
        if term.is_zero():
            return out
        out = out + term


def inverse_unit_series(a: GradedElement) -> GradedElement:
    """Multiplicative inverse of a unit series 1 + (positive-degree part)."""
    if a.scalar_part() != 1:
        raise PreconditionError("inverse_unit_series requires degree-0 component equal to 1")
    u = a.model.one() - a
    out = a.model.one()
    p = a.model.one()
    while True:
        p = p * u
        if p.is_zero():
            return out
        out = out + p


def integrate(a: GradedElement) -> Fraction:
    """Evaluation against the top monomial th_1...th_{2q} (x) [S]."""
    return a.coefficient((a.model.j_top, S_PT))


def integrate_jacobian(a: GradedElement) -> Fraction:
    """Evaluation of a pure Jacobian class against th_1...th_{2q}."""
    return a.coefficient((a.model.j_top, S_ONE))


def term_list(a: GradedElement):
    """Canonical JSON-ready term list (sorted monomials, "num/den" coefficients)."""
    out = []
    for key in sorted(a._terms, key=_mono_sort_key):
        c = a._terms[key]
        out.append({"monomial": monomial_str(key), "coeff": f"{c.numerator}/{c.denominator}"})
    return out


def to_json(a: GradedElement) -> str:
    return json.dumps({"terms": term_list(a)}, sort_keys=True)
