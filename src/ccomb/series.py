"""Truncated exact-rational series: moments, Cauchy-type transforms and the
additive/multiplicative convolutions of monotone, boolean, orthogonal and
conditionally monotone (c-monotone) type.

Conventions
-----------
A distribution is carried as a truncated moment sequence ``M_0 .. M_N`` with
``M_0 = 1``; positivity or realizability is never checked, the identities in
this module are formal. Writing ``w = 1/z``:

* G-series: ``G(z) = sum_n M_n z^(-n-1)``, stored as ``(M_0, .., M_N)``.
* F-series: ``F(z) = 1/G(z) = z + c_0 + c_1/z + .. + c_(N-1)/z^(N-1)``,
  stored as the tail ``(c_0, .., c_(N-1))``; the leading ``z`` is implied.
* eta-series: ``eta = psi / (1 + psi)`` with ``psi(z) = sum_(n>=1) M_n z^n``,
  stored as ``(N(1), .., N(N))``; for an adjacency operator the ``N(n)``
  are first-return walk counts.

A product, reciprocal or composition of order-N inputs is exact to order N;
this holds for every operation below, including the nested
composition-plus-quotient shapes, because each is evaluated in a form whose
coefficient of index n only consumes input coefficients of index <= n.

Rationals run on integers. Dilating a distribution by lam scales M_k and
N(k) by lam**k and c_j by lam**(j+1), and the convolutions commute with
it. So each kernel call dilates its `Fraction` inputs to integers by a lam
built up from their denominators, runs the ring-generic loops on them, and
divides coefficient k by its power of lam on the way out. A series that a
multiplicative convolution uses linearly (eta1, each boolean factor) is
multiplied by the lcm of its own denominators instead. Integers, and a call
with an input in any other ring, get lam = 1: the loops run on the values given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import sub

__all__ = [
    "MomentSeries",
    "FSeries",
    "DivisorVanishes",
    "moment_series",
    "eta_series",
    "point_mass_moments",
    "moments_to_F",
    "F_to_moments",
    "compose_F",
    "additive_convolve",
    "eta_from_moments",
    "moments_from_eta",
    "multiplicative_convolve",
    "coefficient_formula",
    "compositions",
]

ADDITIVE_KINDS = ("monotone", "boolean", "orthogonal", "c-monotone")
MULTIPLICATIVE_KINDS = ("monotone", "boolean", "orthogonal", "c-monotone")


class DivisorVanishes(Exception):
    """The divisor eta-series vanishes identically through the truncation
    order, i.e. the corresponding distribution is concentrated at zero."""


@dataclass(frozen=True)
class MomentSeries:
    """Truncated moment sequence M_0..M_N with M_0 = 1."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty moment sequence")
        if self.coeffs[0] != 1:
            raise ValueError("moment sequence must be normalized (M_0 = 1)")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class FSeries:
    """A truncated transform; `kind` selects the coefficient convention."""

    kind: str
    coeffs: tuple

    _KINDS = ("F", "eta")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        if not self.coeffs:
            raise ValueError("empty series")

    @property
    def order(self) -> int:
        return len(self.coeffs)


def moment_series(values) -> MomentSeries:
    return MomentSeries(tuple(values))


def eta_series(values) -> FSeries:
    return FSeries("eta", tuple(values))


def point_mass_moments(value, order: int) -> MomentSeries:
    """Moments of the point mass at `value`: M_n = value**n."""
    return MomentSeries(tuple(value**n for n in range(order + 1)))


# -- polynomial helpers (dense lists, low degree first, truncated) ----------


def _mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        if i >= n or not x:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def _recip(a, n):
    # 1 / a mod x^n for a with a[0] == 1
    if a[0] != 1:
        raise ValueError("series reciprocal needs unit constant term")
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        s = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                s += a[i] * out[k - i]
        out[k] = -s
    return out


def _power_sum(c, x, n):
    """sum_k c[k] * x^k, truncated mod z^n."""
    acc = [0] * n
    pw = [1] + [0] * (n - 1)
    for k, ck in enumerate(c):
        if k:
            pw = _mul(pw, x, n)
        if ck:
            for i, p in enumerate(pw):
                if p:
                    acc[i] += ck * p
    return acc


def _dilation(first, *seqs) -> int:
    """A lam making every seq[k] * lam**(k + first) an integer; built up from
    the denominators, it divides their lcm. It is 1 unless every entry of
    `seqs` is an int or a `Fraction`."""
    lam = 1
    if all(type(x) in (int, Fraction) for s in seqs for x in s):
        for s in seqs:
            for k, x in enumerate(s, first):
                lam *= x.denominator // gcd(x.denominator, lam**k)
    return lam


def _dilate(seq, lam, first=0, scale=1) -> list:
    """The integers seq[k] * scale * lam**(k + first), or seq if both are 1."""
    if lam == scale == 1:
        return list(seq)
    ks = enumerate(seq, first)
    return [x.numerator * (scale * lam**k // x.denominator) for k, x in ks]


def _undilate(seq, lam, first=0, scale=1) -> tuple:
    """seq[k] / (scale * lam**(k + first)), the inverse of `_dilate`."""
    if lam == scale == 1:
        return tuple(seq)
    return tuple(Fraction(x, scale * lam**k) for k, x in enumerate(seq, first))


def _same_order(*series):
    orders = {s.order for s in series}
    if len(orders) != 1:
        raise ValueError(f"mixed truncation orders {sorted(orders)}")
    return orders.pop()


# -- moments <-> F ------------------------------------------------------------


def moments_to_F(m: MomentSeries) -> FSeries:
    """Reciprocal of the G-series, computed as an exact series reciprocal
    in the variable w = 1/z."""
    n = m.order
    lam = _dilation(0, m.coeffs)
    q = _recip(_dilate(m.coeffs, lam), n + 1)
    return FSeries("F", _undilate(q[1:], lam, 1))


def F_to_moments(f: FSeries) -> MomentSeries:
    if f.kind != "F":
        raise ValueError("expected an F-series")
    n = f.order
    lam = _dilation(1, f.coeffs)
    m = _recip([1, *_dilate(f.coeffs, lam, 1)], n + 1)
    return MomentSeries(_undilate(m, lam))


def compose_F(f1: FSeries, f2: FSeries) -> FSeries:
    """Formal composition F1(F2(z)) at infinity.

    With F2 = z * u(w), 1/F2 = w / u(w), so the tail of F1(F2) is the tail
    of F2 plus sum_k c_k (w / u(w))^k over the tail coefficients c_k of F1,
    truncated.
    """
    if f1.kind != "F" or f2.kind != "F":
        raise ValueError("compose_F expects F-series")
    n = _same_order(f1, f2)
    lam = _dilation(1, f1.coeffs, f2.coeffs)
    c1, c2 = _dilate(f1.coeffs, lam, 1), _dilate(f2.coeffs, lam, 1)
    w_over_u = [0, *_recip([1, *c2], n)[: n - 1]]
    comp = _power_sum(c1, w_over_u, n)
    return FSeries("F", _undilate([a + b for a, b in zip(c2, comp)], lam, 1))


def additive_convolve(
    kind: str,
    mu1: MomentSeries,
    mu2: MomentSeries,
    nu2: MomentSeries | None = None,
) -> MomentSeries:
    """Additive convolution through the F-transform identities.

    monotone      F1(F2(z))
    boolean       F1(z) + F2(z) - z
    orthogonal    F1(F2(z)) - F2(z) + z
    c-monotone    F1(F_nu(z)) + F2(z) - F_nu(z)
    """
    if kind not in ADDITIVE_KINDS:
        raise ValueError(f"unknown additive convolution kind {kind!r}")
    if kind == "c-monotone" and nu2 is None:
        raise ValueError("c-monotone additive convolution needs nu2")
    _same_order(mu1, mu2, *((nu2,) if kind == "c-monotone" else ()))
    f1 = moments_to_F(mu1)
    f2 = moments_to_F(mu2)
    if kind == "monotone":
        out = compose_F(f1, f2)
    elif kind == "boolean":
        out = FSeries("F", tuple(a + b for a, b in zip(f1.coeffs, f2.coeffs)))
    elif kind == "orthogonal":
        comp = compose_F(f1, f2)
        out = FSeries("F", tuple(a - b for a, b in zip(comp.coeffs, f2.coeffs)))
    else:
        fn = moments_to_F(nu2)
        comp = compose_F(f1, fn)
        out = FSeries(
            "F",
            tuple(a + b - c for a, b, c in zip(comp.coeffs, f2.coeffs, fn.coeffs)),
        )
    return F_to_moments(out)


# -- moments <-> eta ----------------------------------------------------------


def eta_from_moments(m: MomentSeries) -> FSeries:
    """eta = psi / (1 + psi), with psi = sum_(n>=1) M_n z^n."""
    if m.order < 1:
        raise ValueError("eta-series needs at least one moment beyond M_0")
    n = m.order
    lam = _dilation(1, m.coeffs[1:])
    c = _dilate(m.coeffs[1:], lam, 1)
    h = _mul([0, *c], _recip([1, *c], n + 1), n + 1)
    return FSeries("eta", _undilate(h[1:], lam, 1))


def moments_from_eta(h: FSeries) -> MomentSeries:
    """The moments 1, psi_1, .., psi_N of psi = eta / (1 - eta)."""
    if not isinstance(h, FSeries) or h.kind != "eta":
        raise ValueError("expected an eta-series")
    n = h.order
    lam = _dilation(1, h.coeffs)
    c = _dilate(h.coeffs, lam, 1)
    p = _mul([0, *c], _recip([1, *(-x for x in c)], n + 1), n + 1)
    return MomentSeries((1, *_undilate(p[1:], lam, 1)))


# -- multiplicative convolutions ---------------------------------------------


def multiplicative_convolve(
    kind: str,
    mu1: FSeries,
    mu2: FSeries,
    nu2: FSeries | None = None,
) -> FSeries:
    """Multiplicative convolution on eta-series.

    monotone      eta1(eta2(z))
    boolean       eta1(z) * eta2(z) / z
    orthogonal    z * eta1(eta2(z)) / eta2(z)
    c-monotone    (eta2(z) / eta_nu(z)) * eta1(eta_nu(z))

    nu2 is read for c-monotone only. Every input read must be an eta-series
    and all must share one truncation order, or ValueError is raised.

    The quotient kinds are evaluated in the cancelled form
    ``prefactor * sum_r N1(r) * eta_divisor^(r-1)``, which agrees with the
    quotient whenever that is defined and stays a power series whenever the
    divisor is not identically zero. DivisorVanishes is raised only in the
    genuinely undefined case of a divisor concentrated at zero.
    """
    if kind not in MULTIPLICATIVE_KINDS:
        raise ValueError(f"unknown multiplicative convolution kind {kind!r}")
    if kind == "c-monotone" and nu2 is None:
        raise ValueError("c-monotone multiplicative convolution needs nu2")
    inputs = (mu1, mu2, nu2) if kind == "c-monotone" else (mu1, mu2)
    if not all(isinstance(s, FSeries) and s.kind == "eta" for s in inputs):
        raise ValueError("multiplicative_convolve expects eta-series")
    n = _same_order(*inputs)
    divisor = {"orthogonal": ("second", mu2), "c-monotone": ("nu2", nu2)}
    if kind in divisor and not any(divisor[kind][1].coeffs):
        raise DivisorVanishes(
            f"{divisor[kind][0]} eta-series vanishes to this order "
            "(distribution concentrated at zero)"
        )
    # eta1 and the boolean eta2, used linearly, each take the lcm of their own
    # denominators (d1, d2); eta2 and eta_nu, composed, are dilated by lam, so
    # coefficient k carries d1 * lam**k. Another ring among the inputs gives 1s.
    seqs = (mu1.coeffs, mu2.coeffs, nu2.coeffs if kind == "c-monotone" else ())
    exact = all(type(x) in (int, Fraction) for s in seqs for x in s)
    d1, d2 = (lcm(*(x.denominator for x in s)) if exact else 1 for s in seqs[:2])
    e1 = _dilate(mu1.coeffs, 1, scale=d1)
    if kind == "boolean":
        out = _mul(e1, _dilate(mu2.coeffs, 1, scale=d2), n)
        return FSeries("eta", _undilate(out, 1, scale=d1 * d2))
    lam = _dilation(1, *seqs[1:]) if exact else 1
    p2 = [0, *_dilate(mu2.coeffs, lam, 1)]
    if kind == "orthogonal":  # sum_r N1(r) eta2^(r-1)
        return FSeries("eta", _undilate(_power_sum(e1, p2, n), lam, 0, d1))
    if kind == "monotone":
        out = _power_sum([0, *e1], p2, n + 1)  # sum_r N1(r) eta2^r
    else:
        out = _mul(p2, _power_sum(e1, [0, *_dilate(seqs[2], lam, 1)], n + 1), n + 1)
    return FSeries("eta", _undilate(out[1:], lam, 1, d1))


def compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`, one for
    each choice of `parts - 1` cut points among 1 .. total - 1."""
    if parts < 1 or total < parts:
        yield from [()] * (total == parts == 0)
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def coefficient_formula(kind: str, n: int, n_mu1, n_mu2, n_nu2=None):
    """Direct combinatorial sum for the n-th eta coefficient of a
    multiplicative convolution; sequences are 1-based (seq[k-1] is N(k)).

    boolean      sum over j + k = n + 1 of N1(j) N2(k)
    monotone     sum over r >= 1 of N1(r) * products of N2 over
                 compositions of n into r parts
    c-monotone   as monotone, but in each composition the first r - 1
                 factors come from nu2 and the last factor from mu2
    orthogonal   c-monotone with nu2 the given N2 and mu2 the point mass
                 at 1 (eta = z): only compositions ending in 1 count

    The sum starts at r = 1, where the nu2-part is the empty product; the
    r = 1 term contributes N1(1) * N2(n).
    """
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    if kind == "boolean":
        return sum(
            n_mu1[j - 1] * n_mu2[n + 1 - j - 1] for j in range(1, n + 1)
        )
    if kind == "orthogonal":  # c-monotone with mu2 the point mass at 1
        n_mu2, n_nu2 = (1,) + (0,) * (n - 1), n_mu2
    elif kind == "monotone":
        n_nu2 = n_mu2
    elif kind != "c-monotone":
        raise ValueError(f"unknown coefficient formula kind {kind!r}")
    elif n_nu2 is None:
        raise ValueError("c-monotone coefficient formula needs nu2")
    # N1 is cleared by its lcm d1, and N2 and N_nu are dilated by a shared
    # lam (N(k) times lam**k): every term then carries d1 * lam**n
    seqs, d1, lam = (n_mu1[:n], n_mu2[:n], n_nu2[:n]), 1, 1
    if all(type(x) in (int, Fraction) for s in seqs for x in s):
        d1 = lcm(*(x.denominator for x in seqs[0]))
        lam = lcm(*(x.denominator for s in seqs[1:] for x in s))
    if d1 * lam > 1:
        n_mu1 = [x.numerator * (d1 // x.denominator) for x in seqs[0]]
        n_mu2, n_nu2 = (
            [x.numerator * (lam**k // x.denominator) for k, x in enumerate(s, 1)]
            for s in seqs[1:]
        )
    total = 0
    for r in range(1, n + 1):
        c = n_mu1[r - 1]
        if not c:
            continue
        inner = 0
        for ks in compositions(n, r):
            term = n_mu2[ks[-1] - 1]
            if not term:
                continue
            for k in ks[:-1]:
                term *= n_nu2[k - 1]
            inner += term
        total += c * inner
    return total if d1 == lam == 1 else Fraction(total, d1 * lam**n)
