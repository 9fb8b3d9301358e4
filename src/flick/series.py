"""Integer polynomials, rational generating functions, exact formal series.

Everything here is exact: polynomial coefficients are Python ints, series
coefficients are Fractions (`fractions` is imported only when a `SeriesQ` is
built), and a truncation order is carried explicitly so no operation can
silently read terms it never computed.  A rational generating function is a
plain (numerator, denominator) pair of `PolyZ`.

The two Bell routes here never read the triangle, and both are quadratic in
big-integer steps: `bell_closed_form(n)` runs an integer recurrence for the
exponential of a series, O(n^2); `bell_ogf_coefficients(order)` builds one
numerator and one denominator in O(order^2) and expands them with a single
long division, also O(order^2).  `SeriesQ` is the general truncated series
type; neither route needs it.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING

from .exact import exact_div

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "PolyZ",
    "SeriesQ",
    "expand_rational",
    "row_gf_odd",
    "row_gf_full",
    "bell_ogf_coefficients",
    "bell_closed_form",
]


class PolyZ:
    """Integer polynomial, coefficients ascending by degree.

    Immutable; trailing zeros are trimmed so the zero polynomial is ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[int] | tuple[int, ...]) -> None:
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyZ is immutable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: PolyZ) -> PolyZ:
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return PolyZ([a + b for a, b in pairs])

    def __mul__(self, other: PolyZ) -> PolyZ:
        # A zero factor makes `out` empty or all zeros, which trims to ().
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyZ(out)

    def __call__(self, x: int) -> int:
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def to_str(self, var: str = "x") -> str:
        """Human form, ascending like the coefficient list: "1 - 5*x + 4*x^2"."""
        text = ""
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            sign = "-" if c < 0 else "+"
            text += f" {sign} {body}" if text else ("-" if c < 0 else "") + body
        return text or "0"

    def __repr__(self) -> str:
        return f"PolyZ({list(self.coeffs)!r})"


def expand_rational(num: PolyZ, den: PolyZ, order: int) -> list[int]:
    """Maclaurin coefficients c_0 .. c_{order-1} of num/den by long division.

    den(0) = +-1 makes every coefficient an integer: c_j solves the linear
    recurrence den_0 * c_j = num_j - sum_{i>=1} den_i * c_{j-i}.  Any other
    den(0), zero or an empty denominator included, is a ValueError.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num, den = num.coeffs, den.coeffs
    den0 = den[0] if den else 0
    if den0 not in (1, -1):
        raise ValueError(f"denominator constant term must be +-1, got {den0}")
    coeffs: list[int] = []
    for j in range(order):
        acc = num[j] if j < len(num) else 0
        for i in range(1, min(j, len(den) - 1) + 1):
            acc -= den[i] * coeffs[j - i]
        coeffs.append(acc * den0)  # den0 in {1, -1}, so this is exact division
    return coeffs


def _squared_factor_product(n: int, step: int) -> PolyZ:
    """Product of (1 - j^2 * x^step) for j = 1..n, expanded."""
    poly = PolyZ([1])
    for j in range(1, n + 1):
        poly = poly * PolyZ([1] + [0] * (step - 1) + [-(j * j)])
    return poly


def row_gf_odd(n: int) -> tuple[PolyZ, PolyZ]:
    """(num, den) of x / prod_{j=1..n} (1 - j^2 x), a row's odd slots."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PolyZ([0, 1]), _squared_factor_product(n, 1)


def row_gf_full(n: int) -> tuple[PolyZ, PolyZ]:
    """(num, den) of x(1 + nx) / prod_{j=1..n} (1 - j^2 x^2), a full row."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PolyZ([0, 1, n]), _squared_factor_product(n, 2)


def bell_ogf_coefficients(order: int) -> list[int]:
    """Coefficients of x^1 .. x^(order-1) of the flickering Bell sequence OGF.

    The OGF is a sum over k >= 1 of N_k / P_k with N_k = x^(2k-1) + (k+1) x^(2k)
    and P_k the product of (1 - j^2 x^2), j = 1..k.  Each summand's lowest
    term is x^(2k-1), so only k <= K with 2K - 1 < order contribute below the
    truncation order and the infinite sum collapses to a finite exact one.
    That sum is one fraction C_K / P_K, built with C_k = (1 - k^2 x^2) C_(k-1)
    + N_k and P_k = (1 - k^2 x^2) P_(k-1), and expanded by one long division.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    last = order // 2
    num = [0] * (2 * last + 1)
    den = [1] + [0] * (2 * last)
    for k in range(1, last + 1):
        step = k * k
        for i in range(2 * k, 1, -1):
            num[i] -= step * num[i - 2]
            den[i] -= step * den[i - 2]
        num[2 * k - 1] += 1
        num[2 * k] += k + 1
    return expand_rational(PolyZ(num), PolyZ(den), order)[1:]


class SeriesQ:
    """Truncated formal power series with exact rational coefficients.

    `order` is the truncation: terms of degree >= order are unspecified, and
    a product truncates to the smaller order of its operands.
    len(coeffs) == order always holds.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: list[Fraction | int], order: int) -> None:
        if len(coeffs) != order:
            raise ValueError("need exactly `order` coefficients")
        # Imported here, so that only building a series loads `fractions`.
        from fractions import Fraction

        self.coeffs = [Fraction(c) for c in coeffs]
        self.order = order

    @classmethod
    def one(cls, order: int) -> SeriesQ:
        return cls([int(i == 0) for i in range(order)], order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesQ)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other: SeriesQ) -> SeriesQ:
        order = min(self.order, other.order)
        out = [0] * order
        for i, a in enumerate(self.coeffs[:order]):
            if a == 0:
                continue
            for j in range(order - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return SeriesQ(out, order)

    def __repr__(self) -> str:
        return f"SeriesQ({self.coeffs!r}, order={self.order})"


def bell_closed_form(n: int) -> int:
    """Term n of the flickering Bell sequence from its hyperbolic closed form.

    With k = floor((n+1)/2) and s = sinh(t/2), the value is
    (2k)! [t^(2k)] (cosh(2s) + [n even] * s*sinh(2s)).  Substituting t = 2u
    turns cosh(2s) and sinh(2s) into the even and odd parts of
    E(u) = exp(2 sinh u) = sum E_m u^m / m!, and E' = 2 cosh(u) E gives the
    integer recurrence E_0 = 1, E_m = sum_{odd j <= m} 2 C(m-1, j-1) E_(m-j)
    (Knuth, TAOCP Vol. 2, 4.7).  The value is then
    (E_2k + [n even] * sum_{odd i} C(2k, i) E_(2k-i)) / 4^k, an exact
    division.  O(k^2) big-integer steps; the triangle is never read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = (n + 1) // 2
    top = 2 * k
    exp_coeffs = [1]
    binom = [1]  # row m - 1 of Pascal's triangle
    for m in range(1, top + 1):
        exp_coeffs.append(
            2 * sum(binom[j - 1] * exp_coeffs[m - j] for j in range(1, m + 1, 2))
        )
        binom = [1] + [binom[i - 1] + binom[i] for i in range(1, m)] + [1]
    value = exp_coeffs[top]
    if n % 2 == 0:
        value += sum(binom[i] * exp_coeffs[top - i] for i in range(1, top + 1, 2))
    return exact_div(value, 4**k)
