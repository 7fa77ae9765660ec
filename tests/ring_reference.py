"""A ring that is neither int nor Fraction, for the ring-generic kernels.

The series kernels, the oracle (`WordPlan`) and the realization route
(`realize_pair`, `build_cmonotone`, `sparse_apply`, `WordMomentEvaluator`)
use only +, -, * and tests against 0 and 1, so they run unchanged on any
commutative ring.
Tests run them on the integers mod a prime and compare with the `Fraction`
results reduced mod p, so a kernel that stops being ring-generic fails.
"""

from fractions import Fraction


class ModP:
    """The integers mod a prime: a ring that is neither int nor Fraction, so
    the kernels run their generic loops on it as given."""

    P = 1_000_003  # above every denominator the tests use, so each is invertible

    def __init__(self, value):
        if isinstance(value, Fraction):
            value = value.numerator * pow(value.denominator, -1, self.P)
        self.v = value % self.P

    @staticmethod
    def _of(other):
        return other.v if isinstance(other, ModP) else ModP(other).v

    def __add__(self, other):
        return ModP(self.v + ModP._of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ModP(self.v - ModP._of(other))

    def __rsub__(self, other):
        return ModP(ModP._of(other) - self.v)

    def __mul__(self, other):
        return ModP(self.v * ModP._of(other))

    __rmul__ = __mul__

    def __neg__(self):
        return ModP(-self.v)

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, ModP)):
            return NotImplemented
        return self.v == ModP._of(other)

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"ModP({self.v})"


def mod_p(values):
    """Each value reduced mod p, as a tuple."""
    return tuple(ModP(x) for x in values)
