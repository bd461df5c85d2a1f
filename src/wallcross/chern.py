"""Chern character <-> Chern / Segre class conversions.

``ChernData`` stores the rank together with a_i = i! ch_i (even classes in
the ring).  Chern and Segre classes come from Newton's recurrence in the
a_i, n steps for the n-th class; each ``ChernData`` memoises its Chern and
its Segre classes, so c_0..c_n or s_0..s_n cost n steps in total.  The
classical Hessenberg determinant, which the recurrence solves, is kept only
for ``closed.segre_det_determinant``, where the determinant is itself the
claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ModelMismatchError, PreconditionError
from .graded import GradedElement, ModelSpec, frac


@dataclass(frozen=True)
class ChernData:
    """Rank plus the sequence a_i = i! ch_i of a sheaf, as ring elements.

    ``a[k]`` holds a_{k+1}; entries beyond the list are zero.  Each stored
    a_i must be homogeneous of total degree 2i (or zero).
    """

    model: ModelSpec
    rank: Fraction
    a: tuple = field(default=())
    _segre_memo: list = field(init=False, repr=False, compare=False, default_factory=list)
    _chern_memo: list = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "rank", frac(self.rank))
        object.__setattr__(self, "a", tuple(self.a))
        for k, elem in enumerate(self.a):
            if elem.model is not self.model:
                raise ModelMismatchError("ChernData entry over a different model")
            degs = elem.total_degrees()
            if degs and degs != [2 * (k + 1)]:
                raise PreconditionError(
                    f"a_{k + 1} must be homogeneous of degree {2 * (k + 1)}, got degrees {degs}")

    def a_i(self, i) -> GradedElement:
        """a_i = i! ch_i, zero when not stored."""
        if i <= 0 or i > len(self.a):
            return self.model.zero()
        return self.a[i - 1]


def chern_data_from_element(ch: GradedElement) -> ChernData:
    """Split a total Chern character into (rank, a_1, a_2, ...)."""
    model = ch.model
    parts = ch.components()
    a = [parts[2 * i] * math.factorial(i) if 2 * i in parts else model.zero()
         for i in range(1, model.q + 3)]
    while a and a[-1].is_zero():
        a.pop()
    return ChernData(model, ch.scalar_part(), tuple(a))


def ch_dual(data: ChernData) -> ChernData:
    """Chern data of the dual sheaf: a_i -> (-1)^i a_i, rank preserved."""
    return ChernData(data.model, data.rank,
                     tuple(elem if (k + 1) % 2 == 0 else -elem
                           for k, elem in enumerate(data.a)))


def ch_direct_sum(x: ChernData, y: ChernData) -> ChernData:
    """Chern data of a direct sum: ranks and a_i add componentwise."""
    if x.model is not y.model:
        raise ModelMismatchError("ChernData over different models")
    n = max(len(x.a), len(y.a))
    a = tuple(x.a_i(i) + y.a_i(i) for i in range(1, n + 1)) if n else ()
    return ChernData(x.model, x.rank + y.rank, a)


def _newton(data: ChernData, seq, segre, n) -> GradedElement:
    """Extend the list ``seq`` = [x_0, x_1, ...] in place up to x_n and return x_n.

    Newton's identities (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2): x_0 = 1 and n x_n = sum_{k=1..n} e_k a_k x_(n-k),
    with e_k = (-1)^(k-1) for the Chern classes and (-1)^k for the Segre
    classes.
    """
    if not seq:
        seq.append(data.model.one())
    for m in range(len(seq), n + 1):
        acc = data.model.zero()
        for k in range(1, min(m, len(data.a)) + 1):
            term = data.a[k - 1] * seq[m - k]
            acc = acc - term if (k % 2 == 1) == segre else acc + term
        seq.append(acc / m)
    return seq[n]


def chern_from_ch(data: ChernData, n) -> GradedElement:
    """n-th Chern class by Newton's identities in the a_i, memoised on ``data``
    like the Segre classes."""
    if n < 0:
        raise PreconditionError("chern_from_ch needs n >= 0")
    return _newton(data, data._chern_memo, False, n)


def segre_from_ch(data: ChernData, n) -> GradedElement:
    """n-th Segre class, the degree-2n part of the inverse total Chern class.

    Newton's identities with the sign flipped; the classes are memoised on
    ``data``, so asking for n = 0..N costs N steps in total.
    """
    if n < 0:
        raise PreconditionError("segre_from_ch needs n >= 0")
    return _newton(data, data._segre_memo, True, n)


def _det(model, rows) -> GradedElement:
    """Determinant of a square matrix of commuting (even) ring elements.

    Cofactor expansion along the first row, structural zeros skipped.  The
    minor below row k is the determinant of rows k.. on the columns left,
    so it is kept by those columns and expanded once: on the Hessenberg
    matrices used below, which have at most two nonzero entries per first
    row, that leaves O(n^2) minors, not 2^n expansions.
    """
    minors = {(): model.one()}

    def minor(cols):
        if cols not in minors:
            row, total = rows[len(rows) - len(cols)], model.zero()
            for i, j in enumerate(cols):
                if not row[j].is_zero():
                    term = row[j] * minor(cols[:i] + cols[i + 1:])
                    total = total - term if i % 2 else total + term
            minors[cols] = total
        return minors[cols]
    return minor(tuple(range(len(rows))))


def hessenberg_det(data: ChernData, n, signed) -> GradedElement:
    """The literal n x n Hessenberg determinant in the a_i.

    It equals n! c_n, or n! s_n when ``signed``.  Newton's recurrence gives
    the same class in n steps, so only ``closed.segre_det_determinant``,
    where the determinant is itself the claim, evaluates it.
    """
    model = data.model
    zero = model.zero()
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i + 1:
                row.append(model.scalar(-(n - i)) if signed else model.scalar(n - i))
            elif j <= i:
                a = data.a_i(i - j + 1)
                if signed and (i - j + 1) % 2 == 1:
                    a = -a
                row.append(a)
            else:
                row.append(zero)
        rows.append(row)
    return _det(model, rows)


def total_chern(data: ChernData) -> GradedElement:
    """Sum of chern_from_ch over all degrees representable in the model."""
    return sum((chern_from_ch(data, n) for n in range(data.model.q + 3)), data.model.zero())
