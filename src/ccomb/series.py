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
* psi-series: ``psi(z) = sum_(n>=1) M_n z^n``, stored as ``(M_1, .., M_N)``.
* eta-series: ``eta = psi / (1 + psi)``, stored as ``(N(1), .., N(N))``;
  for an adjacency operator the ``N(n)`` are first-return walk counts.

A product, reciprocal or composition of order-N inputs is exact to order N;
this holds for every operation below, including the nested
composition-plus-quotient shapes, because each is evaluated in a form whose
coefficient of index n only consumes input coefficients of index <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    "psi_from_moments",
    "moments_from_psi",
    "eta_from_psi",
    "psi_from_eta",
    "eta_from_moments",
    "moments_from_eta",
    "multiplicative_convolve",
    "coefficient_formula",
    "compositions",
    "series_csv_rows",
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

    _KINDS = ("F", "eta", "psi")

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


def _is_zero(seq) -> bool:
    return all(x == 0 for x in seq)


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
    q = _recip(list(m.coeffs), n + 1)
    return FSeries("F", tuple(q[1:]))


def F_to_moments(f: FSeries) -> MomentSeries:
    if f.kind != "F":
        raise ValueError("expected an F-series")
    n = f.order
    m = _recip([1, *f.coeffs], n + 1)
    return MomentSeries(tuple(m))


def compose_F(f1: FSeries, f2: FSeries) -> FSeries:
    """Formal composition F1(F2(z)) at infinity.

    With F2 = z * u(w), 1/F2 = w / u(w), so the tail of F1(F2) is the tail
    of F2 plus sum_k c_k (w / u(w))^k over the tail coefficients c_k of F1,
    truncated.
    """
    if f1.kind != "F" or f2.kind != "F":
        raise ValueError("compose_F expects F-series")
    n = _same_order(f1, f2)
    w_over_u = [0, *_recip([1, *f2.coeffs], n)[: n - 1]]
    comp = _power_sum(f1.coeffs, w_over_u, n)
    return FSeries("F", tuple(a + b for a, b in zip(f2.coeffs, comp)))


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
    f1 = moments_to_F(mu1)
    f2 = moments_to_F(mu2)
    if kind == "monotone":
        out = compose_F(f1, f2)
    elif kind == "boolean":
        _same_order(f1, f2)
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


# -- psi / eta ----------------------------------------------------------------


def psi_from_moments(m: MomentSeries) -> FSeries:
    if m.order < 1:
        raise ValueError("psi-series needs at least one moment beyond M_0")
    return FSeries("psi", m.coeffs[1:])


def moments_from_psi(p: FSeries) -> MomentSeries:
    if p.kind != "psi":
        raise ValueError("expected a psi-series")
    return MomentSeries((1, *p.coeffs))


def eta_from_psi(p: FSeries) -> FSeries:
    if p.kind != "psi":
        raise ValueError("expected a psi-series")
    n = p.order
    inv = _recip([1, *p.coeffs], n + 1)
    h = _mul([0, *p.coeffs], inv, n + 1)
    return FSeries("eta", tuple(h[1:]))


def psi_from_eta(h: FSeries) -> FSeries:
    if h.kind != "eta":
        raise ValueError("expected an eta-series")
    n = h.order
    inv = _recip([1, *(-c for c in h.coeffs)], n + 1)
    p = _mul([0, *h.coeffs], inv, n + 1)
    return FSeries("psi", tuple(p[1:]))


def eta_from_moments(m: MomentSeries) -> FSeries:
    return eta_from_psi(psi_from_moments(m))


def moments_from_eta(h: FSeries) -> MomentSeries:
    return moments_from_psi(psi_from_eta(h))


# -- multiplicative convolutions ---------------------------------------------


def _eta_poly(h: FSeries) -> list:
    return [0, *h.coeffs]


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

    The quotient kinds are evaluated in the cancelled form
    ``prefactor * sum_r N1(r) * eta_divisor^(r-1)``, which agrees with the
    quotient whenever that is defined and stays a power series whenever the
    divisor is not identically zero. DivisorVanishes is raised only in the
    genuinely undefined case of a divisor concentrated at zero.
    """
    if kind not in MULTIPLICATIVE_KINDS:
        raise ValueError(f"unknown multiplicative convolution kind {kind!r}")
    for s in (mu1, mu2) + ((nu2,) if nu2 is not None else ()):
        if s.kind != "eta":
            raise ValueError("multiplicative_convolve expects eta-series")
    if kind == "c-monotone" and nu2 is None:
        raise ValueError("c-monotone multiplicative convolution needs nu2")
    n = _same_order(mu1, mu2, *((nu2,) if nu2 is not None else ()))
    p2 = _eta_poly(mu2)
    if kind == "monotone":
        out = _power_sum(_eta_poly(mu1), p2, n + 1)  # sum_r N1(r) eta2^r
        return FSeries("eta", tuple(out[1:]))
    if kind == "boolean":
        return FSeries("eta", tuple(_mul(mu1.coeffs, mu2.coeffs, n)))
    if kind == "orthogonal":
        if _is_zero(mu2.coeffs):
            raise DivisorVanishes(
                "second eta-series vanishes to this order "
                "(distribution concentrated at zero)"
            )
        return FSeries("eta", tuple(_power_sum(mu1.coeffs, p2, n)))
    # c-monotone
    if _is_zero(nu2.coeffs):
        raise DivisorVanishes(
            "nu2 eta-series vanishes to this order "
            "(distribution concentrated at zero)"
        )
    s = _power_sum(mu1.coeffs, _eta_poly(nu2), n + 1)
    out = _mul(p2, s, n + 1)
    return FSeries("eta", tuple(out[1:]))


def compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def coefficient_formula(kind: str, n: int, n_mu1, n_mu2, n_nu2=None):
    """Direct combinatorial sum for the n-th eta coefficient of a
    multiplicative convolution; sequences are 1-based (seq[k-1] is N(k)).

    boolean      sum over j + k = n + 1 of N1(j) N2(k)
    orthogonal   sum over r >= 2 of N1(r) * products of N2 over
                 compositions of n - 1 into r - 1 parts;  n = 1 gives N1(1)
    monotone     sum over r >= 1 of N1(r) * products of N2 over
                 compositions of n into r parts
    c-monotone   as monotone, but in each composition the first r - 1
                 factors come from nu2 and the last factor from mu2

    For monotone and c-monotone the sum starts at r = 1, where the nu2-part
    is the empty product; the r = 1 term contributes N1(1) * N2(n).
    """
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    if kind == "boolean":
        return sum(
            n_mu1[j - 1] * n_mu2[n + 1 - j - 1] for j in range(1, n + 1)
        )
    if kind == "orthogonal":
        if n == 1:
            return n_mu1[0]
        total = 0
        for r in range(2, n + 1):
            c = n_mu1[r - 1]
            if not c:
                continue
            inner = 0
            for ks in compositions(n - 1, r - 1):
                term = 1
                for k in ks:
                    term *= n_mu2[k - 1]
                inner += term
            total += c * inner
        return total
    if kind in ("monotone", "c-monotone"):
        if kind == "monotone":
            n_nu2 = n_mu2
        elif n_nu2 is None:
            raise ValueError("c-monotone coefficient formula needs nu2")
        total = 0
        for r in range(1, n + 1):
            c = n_mu1[r - 1]
            if not c:
                continue
            inner = 0
            for ks in compositions(n, r):
                term = n_mu2[ks[-1] - 1]
                for k in ks[:-1]:
                    term *= n_nu2[k - 1]
                inner += term
            total += c * inner
        return total
    raise ValueError(f"unknown coefficient formula kind {kind!r}")


def series_csv_rows(values, first_index: int = 0) -> list:
    """CSV rows `n,value-as-fraction,value-as-decimal` for a coefficient
    table; exact values are never rounded away, the decimal is advisory."""
    rows = ["n,fraction,decimal"]
    for k, v in enumerate(values):
        f = Fraction(v)
        rows.append(f"{first_index + k},{f},{float(f)!r}")
    return rows
