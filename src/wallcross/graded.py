"""Exact arithmetic in a graded-supercommutative cohomology model of J x S.

The ring is the tensor product of an exterior algebra on 2q odd degree-1
generators th_1..th_{2q} (the Jacobian factor J) with a truncated surface
factor S carrying odd degree-1 generators be_1..be_{2q}, even degree-2
symbols (Sigma, zeta, K and alpha) pairing symmetrically into the
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
A monomial th_{i_1}...th_{i_k} (x) s, with i_1 < ... < i_k, is the key
``(j, s)``: ``j`` is an int bitmask with bit i set for th_{i+1}, and ``s``
is the S-side word ``(s_degree, payload)``.  Keys are canonical, so equality
of elements is literal dictionary equality.

Products of J-monomials are bitmap blades (Dorst, Fontijne and Mann,
Geometric Algebra for Computer Science, 2007, ch. 19): ``j1 & j2`` nonzero
means a repeated generator and a zero product, and ``j1 | j2`` is the
merged monomial.  Sorting th_{j1} th_{j2} into index order crosses every
pair (x in j1, y in j2) with x > y once, so the sign is the parity of
``popcount(P(j1) & j2)``, where P(j1) holds bit y whenever an odd number of
bits of j1 lie above y.  Moving the left factor's S-part past th_{j2}
costs one more sign per generator of j2 when that S-part is odd, which
flips every bit of P(j1).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .errors import ModelMismatchError, PreconditionError

SIGMA = "Sigma"

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest q a model takes: the ring has 2^(2q) J-monomials and omega^k
# alone C(q, k) terms, so a larger q is refused rather than left to run.
MAX_Q = 12

# The largest magnitude of a wall input (p1, q and the pairings of zeta, w and K) and
# of a multiplicity r or s, 10^100: far past any priced wall or word, far below the
# 4,300 digits that printing meets
MAX_WALL_INPUT = 10 ** 100

# The largest decimal exponent a number string may carry: Fraction expands "1e<n>"
# in full, and 4,300 digits is the default int-string limit that printing meets
MAX_EXPONENT = 4300

# S-side monomial encodings: (s_degree, payload)
S_ONE = (0, ())
S_PT = (4, ())
_SCALAR = (0, S_ONE)

# The even degree-2 surface symbols every model carries
EVEN_SYMBOLS = (SIGMA, "zeta", "K", "alpha")

# The ``jacobian.Pairings`` field of each ordered pair of even symbols, both
# orders alike; Sigma.Sigma = 0 has none
PAIRING_FIELDS = {(SIGMA, SIGMA): None, **{
    pair: name for (s1, s2), name in (
        ((SIGMA, "zeta"), "sigmaZeta"), ((SIGMA, "K"), "sigmaK"), ((SIGMA, "alpha"), "sigmaAlpha"),
        (("zeta", "zeta"), "zeta2"), (("zeta", "K"), "zetaK"), (("zeta", "alpha"), "zetaAlpha"),
        (("K", "K"), "K2"), (("K", "alpha"), "Kalpha"), (("alpha", "alpha"), "alpha2"))
    for pair in ((s1, s2), (s2, s1))}}


def s_odd(i):
    return (1, (i,))


def s_even(sym):
    return (2, (sym,))


def s_mixed(i, sym):
    return (3, (i, sym))


def _shown(x) -> str:
    """``x`` for an error message: its repr (a Fraction num/den), past 48 characters cut."""
    try:
        text = str(x) if isinstance(x, Fraction) else repr(x)
    except ValueError:  # an int past Python's limit on the digits of an int as text
        return f"a {type(x).__name__} too long to print"
    return text if len(text) <= 48 else f"{text[:40]}... ({len(text)} characters)"


def frac(x) -> Fraction:
    """Coerce an int / str / Fraction / float into an exact rational: the
    package's one number rule.

    A float is read through its repr, as the JSON reader reads its text (0.1
    is 1/10).  A bool, a value that is no finite number (None, "a", "1/0", NaN,
    infinity), or a string whose exponent exceeds ``MAX_EXPONENT`` in magnitude
    raises PreconditionError.
    """
    if type(x) is Fraction:  # the common case, before Fraction's ABC checks
        return x
    if type(x) is int:  # a document's ints, before the bool, str and float tests
        return Fraction(x)
    if isinstance(x, bool):
        raise PreconditionError(f"{_shown(x)} is not an exact rational number")
    try:
        if isinstance(x, str) and "e" in x.lower():  # its exponent, before Fraction expands it
            if abs(int(x.lower().rpartition("e")[2])) > MAX_EXPONENT:
                raise PreconditionError(
                    f"the exponent of {_shown(x)} exceeds {MAX_EXPONENT} in size")
        return Fraction(float.__repr__(x) if isinstance(x, float) else x)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise PreconditionError(f"{_shown(x)} is not an exact rational number") from exc


def exact_int(x, what) -> int:
    """Coerce an integral value into an int by ``frac``'s rule; never truncates.

    A value with a fractional part, or no number, raises PreconditionError.
    """
    if type(x) is int:
        return x
    try:
        f = frac(x)
    except PreconditionError:
        raise PreconditionError(f"{what} must be an integer, got {_shown(x)}") from None
    if f.denominator != 1:
        raise PreconditionError(f"{what} must be an integer, got {_shown(f)}")
    return f.numerator


def exact_count(x, what, most=MAX_WALL_INPUT) -> int:
    """``exact_int`` of a count, by default a multiplicity r or s: a value below 0
    or above ``most`` raises PreconditionError too, before any message prints it."""
    n = exact_int(x, what)
    if n < 0:
        raise PreconditionError(f"{what} must be non-negative, got {_shown(n)}")
    if n > most:
        raise PreconditionError(f"{what} must be at most {_shown(most)}, got {_shown(n)}")
    return n


def exact_tuple(xs, coerce, what) -> tuple:
    """``coerce`` of each entry of the sequence ``xs``, as a tuple; a value that
    is no sequence (None, a number, a string) raises PreconditionError."""
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):
        raise PreconditionError(f"{what} must be a sequence, got {_shown(xs)}")
    return tuple(coerce(x) for x in xs)


def _above_parity(j):
    """P(j): bit y set when an odd number of bits of ``j`` lie above y."""
    x = j >> 1
    width = x.bit_length()
    shift = 1
    while shift < width:
        x ^= x >> shift
        shift <<= 1
    return x


def _indices(j):
    """The generator indices of a J-bitmask, in increasing order."""
    return tuple(i for i in range(j.bit_length()) if j >> i & 1)


def wedge(a, b) -> dict:
    """The product of two int J-forms' numerators ``{j: num}``, by the kernel's
    bitmask rule: a shared generator gives 0, and the sign is the parity of
    ``popcount(P(j1) & j2)``."""
    acc, b = {}, b.items()
    for j1, n1 in a.items():
        koszul = _above_parity(j1)
        for j2, n2 in b:
            if not j1 & j2:
                n = -n1 * n2 if (koszul & j2).bit_count() & 1 else n1 * n2
                acc[j1 | j2] = acc.get(j1 | j2, 0) + n
    return {j: n for j, n in acc.items() if n}


class ModelSpec:
    """Presentation of H*(J) (x) H*(S): generators, a_ij data, Gram pairings.

    Models are immutable after construction and safe to share; identity is
    object identity.  ``a_matrix`` holds the a_ij (be_i.be_j = a_ij Sigma) and
    ``pairings`` the ``jacobian.Pairings`` record of the even symbols, which
    ``pair`` reads.  Both are taken as given: ``jacobian.build_model`` makes a
    model from a ``PairingInput``, which checks them once.  Jacobian classes
    outside the ring multiply are int forms read off a_ij (``omega_form``,
    ``odd_form``), so a model builds no element.

    ``cache`` is one dict per J-side (q, a_ij), shared by ``with_pairings``.  A
    value kept there is keyed by a tag for its kind and every pairing it reads,
    each as its numerator and denominator ints (Fraction's pure-Python
    ``__hash__`` would dominate a lookup), so every model over the J-side whose
    pairings agree there shares it.  It holds ints, Fractions and term dicts,
    never elements: an element refers to its model, and a cycle would keep a
    dead model alive until a full garbage collection.
    """

    def __init__(self, q, a_matrix, pairings):
        self.q, self.a_matrix, self.j_top = q, a_matrix, (1 << 2 * q) - 1
        self.cache = {}
        # S-side products read the pairings, so each model has its own table
        self.pairings, self._s_table = pairings, {}

    def with_pairings(self, pairings) -> "ModelSpec":
        """The model over this J-side (q, a_ij and ``cache``) with new pairings.

        The cache is shared, so a sweep over pairings at fixed a_ij builds its
        J-side once.
        """
        model = object.__new__(ModelSpec)
        model.q, model.a_matrix, model.j_top = self.q, self.a_matrix, self.j_top
        model.cache = self.cache
        model.pairings, model._s_table = pairings, {}
        return model

    # -- pairings -------------------------------------------------------

    def pair(self, s1, s2) -> Fraction:
        """The pairing of two even symbols, read from ``pairings``."""
        name = PAIRING_FIELDS[s1, s2]
        return _ZERO if name is None else getattr(self.pairings, name)

    # -- element constructors -------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return GradedElement(self, {_SCALAR: _ONE})

    def scalar(self, c) -> "GradedElement":
        c = frac(c)
        return GradedElement(self, {_SCALAR: c} if c else {})

    def theta(self, i) -> "GradedElement":
        """J-side odd generator th_i (0-based index)."""
        i = self._index(i)
        return GradedElement(self, {(1 << i, S_ONE): _ONE})

    def beta(self, i) -> "GradedElement":
        """S-side odd generator be_i (0-based index)."""
        i = self._index(i)
        return GradedElement(self, {(0, s_odd(i)): _ONE})

    def even(self, sym) -> "GradedElement":
        """An even degree-2 surface symbol."""
        if sym not in EVEN_SYMBOLS:
            raise PreconditionError(f"unregistered even symbol {sym!r}")
        return GradedElement(self, {(0, s_even(sym)): _ONE})

    def point(self) -> "GradedElement":
        """The point class [S]."""
        return GradedElement(self, {(0, S_PT): _ONE})

    def monomials(self, j_degree, s_degree):
        """Every canonical monomial of J-degree ``j_degree`` and S-degree
        ``s_degree``, each as an element with coefficient 1."""
        n = 2 * self.q
        s_words = {0: [S_ONE], 1: [s_odd(i) for i in range(n)],
                   2: [s_even(sym) for sym in EVEN_SYMBOLS],
                   3: [s_mixed(i, sym) for i in range(n)
                       for sym in EVEN_SYMBOLS if sym != SIGMA],
                   4: [S_PT]}.get(s_degree, [])
        return [GradedElement(self, {(sum(1 << i for i in js), s): _ONE})
                for js in itertools.combinations(range(n), j_degree) for s in s_words]

    def _index(self, i) -> int:
        """A generator index as an int; PreconditionError when it is not one
        of 0..2q-1."""
        i = exact_int(i, "a generator index")
        if not 0 <= i < 2 * self.q:
            raise PreconditionError(f"generator index {i} out of range for q={self.q}")
        return i

    # -- distinguished classes ------------------------------------------

    def omega_form(self, k) -> tuple:
        """omega^k as the int form ``(den, {j: num})`` that Jacobian integrals read,
        kept once per J-side: omega = sum_{i<j} a_ij th_i th_j over the lcm D of the
        denominators of the non-zero a_ij (a zero's is 1), read off ``a_matrix``, and
        omega^k its ``wedge`` power, over one more D than omega^(k-1).  The powers
        read no pairing, so they are kept as one list under ``("omega",)``."""
        if k < 0:
            raise PreconditionError("negative omega power")
        powers = self.cache.setdefault(("omega",), [(1, {0: 1})])
        if len(powers) <= k:
            if len(powers) == 1:
                terms = [(1 << i | 1 << j, c) for i, row in enumerate(self.a_matrix)
                         for j, c in enumerate(row[i + 1:], i + 1) if c]
                d = math.lcm(*{c.denominator for _, c in terms})
                powers.append((d, {bit: c.numerator * (d // c.denominator)
                                   for bit, c in terms}))
            (d, omega), (scale, prev) = powers[1], powers[-1]
            while len(powers) <= k:
                prev, scale = wedge(prev, omega), scale * d
                powers.append((scale, prev))
        return powers[k]

    def omega_pow(self, p) -> "GradedElement":
        """The p-th power of omega as an element, built from ``omega_form`` for a
        caller that multiplies with it."""
        den, nums = self.omega_form(p)
        return GradedElement(self, {(j, S_ONE): Fraction(n, den) for j, n in nums.items()})

    def odd_form(self, gammas, threes) -> tuple:
        """th_{g_1} ... th_{g_a} . i_{be_{j_1}} omega ... i_{be_{j_b}} omega, the odd part
        of an insertion word, as an int form ``(den, {j: num})``: th_i is bit i, and
        i_{be_j} omega = sum_i a_ji th_i is row j of a_ij over the lcm of that row's
        denominators.  An index naming no class of the model raises."""
        den, nums = 1, {0: 1}
        for i in gammas:
            nums = wedge(nums, {1 << self._index(i): 1})
        for j in threes:
            row = self.a_matrix[self._index(j)]
            d = math.lcm(*(c.denominator for c in row))
            nums, den = wedge(nums, {1 << i: c.numerator * (d // c.denominator)
                                     for i, c in enumerate(row) if c}), den * d
        return den, nums

    def universal_class(self) -> "GradedElement":
        """E = sum_i th_i be_i, the first Chern class of the universal bundle."""
        return GradedElement(
            self, {(1 << i, s_odd(i)): _ONE for i in range(2 * self.q)})

    def interior_omega(self, i) -> "GradedElement":
        """Interior product of be_i with omega: sum_j a_ij th_j."""
        i = self._index(i)
        return GradedElement(
            self,
            {(1 << j, S_ONE): self.a_matrix[i][j]
             for j in range(2 * self.q) if self.a_matrix[i][j]})

    # -- S-side product table -------------------------------------------

    def _smul(self, s1, s2):
        """Product of two S-side monomials: (coeff, monomial) or None, memoised."""
        key = (s1, s2)
        if key not in self._s_table:
            self._s_table[key] = self._s_product(s1, s2)
        return self._s_table[key]

    def _s_product(self, s1, s2):
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
        if d1 == 3 and d2 == 1:
            j, sym = p1
            c = self.a_matrix[j][p2[0]] * self.pair(SIGMA, sym)
            return (c, S_PT) if c else None
        return None

    def __repr__(self):
        return f"ModelSpec(q={self.q})"


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

    def _scaled(self, c):
        if c == 1:
            return self  # elements are immutable
        if not c:
            return GradedElement(self.model, {})
        return GradedElement(self.model, {k: v * c for k, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            try:
                return self._scaled(frac(other))
            except PreconditionError:
                return NotImplemented
        self._require_same_model(other)
        # a scalar commutes with everything and only rescales the other factor
        if len(other._terms) == 1 and _SCALAR in other._terms:
            return self._scaled(other._terms[_SCALAR])
        if len(self._terms) == 1 and _SCALAR in self._terms:
            return other._scaled(self._terms[_SCALAR])
        model = self.model
        smul = model._smul
        right = _by_s_part(other._terms)
        acc = {}
        for s1, left in _by_s_part(self._terms).items():
            flip = model.j_top if s1[0] & 1 else 0
            left = [(j1, _above_parity(j1) ^ flip, c1) for j1, c1 in left]
            for s2, terms2 in right.items():
                sp = smul(s1, s2)
                if sp is None:
                    continue
                sc, s = sp
                for j1, koszul, c1 in left:
                    if sc is not _ONE:
                        c1 = c1 * sc
                    for j2, c2 in terms2:
                        if j1 & j2:
                            continue
                        c = c1 * c2
                        key = (j1 | j2, s)
                        old = acc.get(key)
                        if (koszul & j2).bit_count() & 1:
                            acc[key] = -c if old is None else old - c
                        else:
                            acc[key] = c if old is None else old + c
        return GradedElement(model, {k: v for k, v in acc.items() if v})

    def __rmul__(self, other):
        try:
            return self._scaled(frac(other))
        except PreconditionError:
            return NotImplemented

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
        return self._terms.get(monomial, _ZERO)

    def scalar_part(self) -> Fraction:
        return self._terms.get(_SCALAR, _ZERO)

    def components(self) -> dict:
        """The parts of pure total degree, ``{degree: element}``, split in one pass."""
        parts = {}
        for key, v in self._terms.items():
            parts.setdefault(key[0].bit_count() + key[1][0], {})[key] = v
        return {deg: GradedElement(self.model, terms) for deg, terms in parts.items()}

    def total_degrees(self):
        return sorted({j.bit_count() + s[0] for (j, s) in self._terms})

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
    return (j.bit_count() + s[0], _indices(j), s)


def monomial_str(key) -> str:
    (j, s) = key
    parts = [f"th{i + 1}" for i in _indices(j)]
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


def _by_s_part(terms):
    """The terms of an element grouped by S-side word: {s: [(j, coeff), ...]}."""
    groups = {}
    for (j, s), c in terms.items():
        groups.setdefault(s, []).append((j, c))
    return groups


def integrate(a: GradedElement) -> Fraction:
    """Evaluation against the top monomial th_1...th_{2q} (x) [S]."""
    return a.coefficient((a.model.j_top, S_PT))


def integrate_jacobian(a: GradedElement) -> Fraction:
    """Evaluation of a pure Jacobian class against th_1...th_{2q}."""
    return a.coefficient((a.model.j_top, S_ONE))


def integration_index(terms) -> tuple:
    """Terms ``{(j, s): c}`` as ``(den, {s: {j: num}})``: int numerators over
    the lcm of their denominators, so the form is reduced."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    index = {}
    for (j, s), c in terms.items():
        index.setdefault(s, {})[j] = c.numerator * (den // c.denominator)
    return den, index


def form_pairs(model, form) -> tuple:
    """A J-form ``(den, {j: num})`` as the left factor of a Jacobian integral,
    ``(den, ((j_top ^ j, num), ...))``: each numerator carries the Koszul sign of
    th_j th_{j_top ^ j}."""
    full, (den, nums) = model.j_top, form
    return den, tuple(
        (full ^ j, -num if (_above_parity(j) & (full ^ j)).bit_count() & 1 else num)
        for j, num in nums.items())


def integrate_forms(pairs, form) -> tuple:
    """The integral over J of a times b as ``(num, den)``, from ``form_pairs`` of a
    and b's int J-form ``(den, {j: num})``: only complementary J-monomials reach
    th_1...th_2q, so it is one dot product of ints."""
    (den_a, left), (den_b, right) = pairs, form
    return sum(num * right.get(j, 0) for j, num in left), den_a * den_b
