"""Concrete J x S models built from numeric pairing data, and the
distinguished Jacobian classes living on them.

A model is determined by q, the antisymmetric a_ij data (full matrix or
block coefficients a_1, ..., a_r with omega = a_1 th_1 th_2 + ...), and the
Gram pairings among the even symbols Sigma, zeta, K, alpha.  Block
coefficients are integers in the geometric situation; rationals are
accepted so that the Sigma-rescaling invariance (Sigma -> r Sigma divides
every a_ij by r) can be exercised exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, SchemaError
from .graded import (_ZERO, MAX_Q, SIGMA, GradedElement, ModelSpec, exact_count, exact_int,
                     exact_tuple, frac, integrate_jacobian, integrate_product)

PAIRING_KEYS = ("zeta2", "zetaK", "zetaAlpha", "sigmaZeta", "sigmaAlpha",
                "sigmaK", "K2", "Kalpha", "alpha2")


@dataclass(frozen=True)
class Pairings:
    """The nine intersection pairings among Sigma, zeta, K, alpha."""

    zeta2: Fraction = _ZERO
    zetaK: Fraction = _ZERO
    zetaAlpha: Fraction = _ZERO
    sigmaZeta: Fraction = _ZERO
    sigmaAlpha: Fraction = _ZERO
    sigmaK: Fraction = _ZERO
    K2: Fraction = _ZERO
    Kalpha: Fraction = _ZERO
    alpha2: Fraction = _ZERO

    def __init__(self, zeta2=_ZERO, zetaK=_ZERO, zetaAlpha=_ZERO, sigmaZeta=_ZERO,
                 sigmaAlpha=_ZERO, sigmaK=_ZERO, K2=_ZERO, Kalpha=_ZERO, alpha2=_ZERO):
        # a frozen instance's fields go straight into its __dict__, and a Fraction is
        # kept without a call.  On CPython 3.11 this build takes 0.7-0.9 us against
        # 1.7-2.4 us through object.__setattr__, and a field read 12-37 ns either way
        # (the class defaults keep it off the fast path); a verify sweep reads ~20 per build
        fields = self.__dict__
        fields["zeta2"] = zeta2 if type(zeta2) is Fraction else frac(zeta2)
        fields["zetaK"] = zetaK if type(zetaK) is Fraction else frac(zetaK)
        fields["zetaAlpha"] = zetaAlpha if type(zetaAlpha) is Fraction else frac(zetaAlpha)
        fields["sigmaZeta"] = sigmaZeta if type(sigmaZeta) is Fraction else frac(sigmaZeta)
        fields["sigmaAlpha"] = sigmaAlpha if type(sigmaAlpha) is Fraction else frac(sigmaAlpha)
        fields["sigmaK"] = sigmaK if type(sigmaK) is Fraction else frac(sigmaK)
        fields["K2"] = K2 if type(K2) is Fraction else frac(K2)
        fields["Kalpha"] = Kalpha if type(Kalpha) is Fraction else frac(Kalpha)
        fields["alpha2"] = alpha2 if type(alpha2) is Fraction else frac(alpha2)


@dataclass(frozen=True)
class PairingInput:
    """Numeric input for build_model: q, a_ij data and the pairings.

    Exactly one of ``a_blocks`` / ``a_matrix`` may be given; with neither,
    the principal block form a_i = 1 for i <= q is used (vol = 1).
    """

    q: int
    pairings: Pairings
    a_blocks: tuple = None
    a_matrix: tuple = None

    def __post_init__(self):
        if not isinstance(self.pairings, Pairings):
            raise PreconditionError(f"pairings must be a Pairings, got {self.pairings!r}")
        q = exact_int(self.q, "q")
        if not 0 <= q <= MAX_Q:
            raise PreconditionError(f"q must be between 0 and {MAX_Q}, got {q}")
        object.__setattr__(self, "q", q)
        if self.a_blocks is not None and self.a_matrix is not None:
            raise PreconditionError("give a_blocks or a_matrix, not both")
        if self.a_blocks is not None:
            blocks = exact_tuple(self.a_blocks, frac, "a_blocks")
            if len(blocks) > q:
                raise PreconditionError(f"at most q={q} block coefficients allowed")
            if any(b == 0 for b in blocks):
                raise PreconditionError("block coefficients must be nonzero")
            object.__setattr__(self, "a_blocks", blocks)
        if self.a_matrix is not None:
            a = exact_tuple(self.a_matrix, lambda row: exact_tuple(row, frac, "a row"), "a_matrix")
            n = 2 * q
            if len(a) != n or any(len(row) != n for row in a):
                raise PreconditionError(f"a_matrix must be {n}x{n} for q={q}")
            for i, (row, column) in enumerate(zip(a, zip(*a))):
                for x, y in zip(row[i:], column[i:]):
                    # reduced, so x = -y exactly when these agree
                    if x.numerator != -y.numerator or x.denominator != y.denominator:
                        raise PreconditionError("a_matrix must be antisymmetric")
            object.__setattr__(self, "a_matrix", a)

    @classmethod
    def from_json_dict(cls, doc) -> "PairingInput":
        try:
            raw = doc.get("pairings", {})
            if not isinstance(raw, dict):
                raise SchemaError("'pairings' must be an object")
            unknown = set(raw) - set(PAIRING_KEYS)
            if unknown:
                raise SchemaError(f"unknown pairing keys: {sorted(unknown)}")
            return cls(q=doc["q"], pairings=Pairings(**raw), a_blocks=doc.get("a_blocks"),
                       a_matrix=doc.get("a_matrix"))
        except SchemaError:
            raise
        except (ArithmeticError, KeyError, TypeError, ValueError, PreconditionError) as exc:
            raise SchemaError(f"bad PairingInput document: {exc}") from exc


def build_model(inp: PairingInput) -> ModelSpec:
    """Realize a PairingInput as a concrete ring model."""
    if not isinstance(inp, PairingInput):
        raise PreconditionError(f"build_model needs a PairingInput, got {inp!r}")
    matrix = inp.a_matrix
    if matrix is None:
        n = 2 * inp.q
        blocks = inp.a_blocks if inp.a_blocks is not None else (Fraction(1),) * inp.q
        rows = [[_ZERO] * n for _ in range(n)]
        for r, b in enumerate(blocks):
            rows[2 * r][2 * r + 1] = b
            rows[2 * r + 1][2 * r] = -b
        matrix = tuple(tuple(row) for row in rows)
    return ModelSpec(inp.q, matrix, inp.pairings)


def volume(model: ModelSpec) -> Fraction:
    """vol = (1/q!) integral over J of omega^q; equals 1 when q = 0.

    It reads no pairing, so it is kept once per J-side, under ``("volume",)``.
    """
    if not isinstance(model, ModelSpec):
        raise PreconditionError(f"volume needs a ModelSpec, got {model!r}")
    cache, key = model.cache, ("volume",)
    vol = cache.get(key)
    if vol is None:
        vol = cache[key] = integrate_jacobian(model.omega_pow(model.q)) / math.factorial(model.q)
    return vol


def e_divisor(model: ModelSpec, sigma_dot) -> GradedElement:
    """Slant of c_1(F)^2 against a divisor class D with Sigma.D = sigma_dot:
    -2 (Sigma.D) omega."""
    return model.omega_pow(1) * (-2 * frac(sigma_dot))


def e_alpha(model: ModelSpec) -> GradedElement:
    """e_alpha = -2 (Sigma.alpha) omega."""
    return e_divisor(model, model.pair(SIGMA, "alpha"))


def e_zeta(model: ModelSpec) -> GradedElement:
    """e_zeta = -2 (Sigma.zeta) omega."""
    return e_divisor(model, model.pair(SIGMA, "zeta"))


def e_gamma(model: ModelSpec, i) -> GradedElement:
    """The degree-1 class attached to the H_1 basis element number i: th_i."""
    return model.theta(i)


def e_zeta_beta(model: ModelSpec, i) -> GradedElement:
    """The degree-1 class attached to the H_3 insertion dual to be_i:
    (Sigma.zeta) * (interior product of be_i with omega)."""
    return model.interior_omega(i) * model.pair(SIGMA, "zeta")


def jacobian_odd_integral(model: ModelSpec, gammas, threes) -> Fraction:
    """The functional F on the odd part of an insertion word.

    Zero when the odd count is odd or when q - (a+b)/2 < 0 (the omega power
    cannot fill the top degree); otherwise the integral over J of
    th_{g_1} ... th_{g_a} . i_{be_{j_1}} omega ... i_{be_{j_b}} omega . omega^{q-(a+b)/2}.
    It reads no pairing, so it is kept once per J-side under ("F", gammas, threes).
    """
    a, b = len(gammas), len(threes)
    if (a + b) % 2:
        return Fraction(0)
    p = model.q - (a + b) // 2
    if p < 0:
        return Fraction(0)
    cache, key = model.cache, ("F", tuple(gammas), tuple(threes))
    value = cache.get(key)
    if value is None:
        elem = model.one()
        for i in gammas:
            elem = elem * model.theta(i)
        for j in threes:
            elem = elem * model.interior_omega(j)
        # a vanishing product needs no omega power
        value = cache[key] = (Fraction(0) if elem.is_zero()
                              else integrate_product(elem, model.omega_pow(p)))
    return value


@dataclass(frozen=True)
class InsertionWord:
    """The argument x^r alpha^s gamma_1...gamma_a A_1...A_b of the invariant.

    ``gammas`` lists H_1 basis indices (degree-3 insertions), ``threes``
    lists H_3 classes through their Poincare-dual H^1 basis indices
    (degree-1 insertions).  Indices are 0-based; repeats are rejected since
    odd insertions anticommute.
    """

    r: int = 0
    s: int = 0
    gammas: tuple = field(default=())
    threes: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "r", exact_count(self.r, "the multiplicity r"))
        object.__setattr__(self, "s", exact_count(self.s, "the multiplicity s"))
        # no model has an index of 2 MAX_Q or more
        object.__setattr__(self, "gammas", exact_tuple(
            self.gammas, lambda i: exact_count(i, "a gamma index", 2 * MAX_Q - 1), "gammas"))
        object.__setattr__(self, "threes", exact_tuple(
            self.threes, lambda j: exact_count(j, "an A index", 2 * MAX_Q - 1), "threes"))
        if len(set(self.gammas)) != len(self.gammas) or len(set(self.threes)) != len(self.threes):
            raise PreconditionError("odd insertions may appear at most once each")
        # kept: evaluate and both l = 0 routes check it at every point
        object.__setattr__(self, "_degree", 4 * self.r + 2 * self.s + 3 * len(self.gammas)
                           + len(self.threes))

    @classmethod
    def plain(cls, r, d) -> "InsertionWord":
        """x^r alpha^(d - 2r), the word a route taking r prices: r is checked
        before d - 2r is formed, and r > d/2, which names no word, is refused."""
        r = exact_count(r, "the multiplicity r")
        if 2 * r > d:
            raise PreconditionError(f"x^r alpha^(d - 2r) needs 2r <= d, got r = {r}, d = {d}")
        return cls(r=r, s=d - 2 * r)

    def degree(self) -> int:
        return self._degree

    def odd_count(self) -> int:
        return len(self.gammas) + len(self.threes)

    def describe(self) -> str:
        bits = []
        if self.r:
            bits.append(f"x^{self.r}")
        if self.s:
            bits.append(f"alpha^{self.s}")
        bits += [f"d{i + 1}" for i in self.gammas]
        bits += [f"B{j + 1}" for j in self.threes]
        return " ".join(bits) if bits else "1"


def read_document(text: str) -> dict:
    """Parse a JSON document, model or surface: a top-level object of schema version 1."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the int-string limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    version = doc.get("schema_version", 1)
    if version != 1:
        raise SchemaError(f"unsupported schema_version {version}")
    return doc


def pairing_input_from_json(text: str) -> tuple:
    """Parse a JSON document into (PairingInput, wall_section_or_None)."""
    doc = read_document(text)
    inp = PairingInput.from_json_dict(doc)
    wall = doc.get("wall")
    if wall is not None and not isinstance(wall, dict):
        raise SchemaError("'wall' must be an object")
    return inp, wall
