"""Truncated iterated Laurent series in s and t with F2Poly coefficients.

The ambient ring is k((t))((s)): s is small relative to t, so the series
order is lexicographic in (e_s, e_t).  A series carries a Window
describing where its coefficients are guaranteed exact:

  * every coefficient with e_s >= min_s, e_t >= min_t and
    e_s + e_t <= max_total is exactly the stored one (absent means zero);
  * coefficients with total degree above max_total are unknown, never
    assumed zero;
  * every series is honest in s: the true series is known to vanish
    below min_s, at every total degree, as each element of k((t))((s))
    has a least power of s;
  * a series "honest" in t is known to vanish below min_t as well.
    Inverses of genuinely bivariate series (like t + s) have unboundedly
    negative t-exponents, so they are exact inside their window but not
    honest in t.

max_total = inf (math.inf) means the series is exact (known in full);
JSON, which has no infinity, prints it as null.  An inverse or a
composite is formed on a finite window only: series_inverse and
series_compose take one, and series_pow takes one for a negative power.

coefficient, shift, square, restricted, map_coeffs and residue take a
series that is not honest in t; series_add, series_mul, series_pow for
any k >= 1, series_inverse, series_compose and series_reversion refuse
one.  series_inverse also refuses a unit with a term of lower total than
its lead, series_compose substitutes a series in t alone for t,
series_reversion reverses a series in t, and residue takes the residue
in s.

A series stores no key outside its window and no zero coefficient; the
constructor trusts its caller, and each producer makes both once.
truncated (so also _known) drops zeros and keys outside the window, exact
and map_coeffs drop zeros, f2.map_product drops the sums that cancel and
the exponents past its total bound, and the other operations build clean
maps.

f2.map_product is the one product kernel: it sums the products of pairs
of coefficient maps up to a bound on the total e_s + e_t, tested before a
product is formed, and forms each output coefficient in one set as the
pairs arrive.  Every product of two keys lies on or above the sum of
their series' axes, so no lower bound is tested.  No product chain
starts from 1: series_pow and the powers of u in series_compose start
from their first factor.  series_mul passes map_product one pair, to its
window's max_total, and series_compose makes one call with the pair
(u^i, row i) for every row i of a, on a total bound; a factor that is the
constant 1, as u^0 and a row that is 1 are, costs map_product one set
XOR and no monomial product.
series_reversion's column recurrence sums its coefficient products with
one f2.sum_of_products call per output coefficient.  A coefficient that
cancels is dropped.  _window builds the derived windows of sums,
inverses, restrictions and composites, and keeps the zeros below the
s-axis when nothing else is left; _sum_window is the window of a sum, for
series_add and for the rows that series_compose sums.

Squaring is the Frobenius of characteristic 2 and takes no product: the
even powers of series_compose and series_reversion are squares, and so
is every feeder of series_inverse, which forms c = (1 + r)^{-1} by
f2.map_inverse from c = (1 + r) c^2, one coefficient from the squares of
coefficients at half its e_s and total.  Each operation forms only what
its window reads: series_reversion only the powers of b that a's terms
need, and series_inverse only the rows e_s the box reaches, to the total
it is known to.
"""

from __future__ import annotations

from math import inf

from .f2 import F2Poly, map_inverse, map_product, sum_of_products


class LaurentError(Exception):
    pass


class EmptyWindowError(LaurentError):
    pass


class NotInvertibleError(LaurentError):
    pass


class NonComposableError(LaurentError):
    pass


class BadValuationError(LaurentError):
    pass


class WindowMissError(LaurentError):
    pass


class Window:
    """Exactness region: e_s >= min_s, e_t >= min_t, e_s + e_t <= max_total,
    where max_total inf bounds no total.

    An immutable value, equal and hashed by its three fields."""

    __slots__ = ("min_s", "min_t", "max_total")

    def __init__(self, min_s: int, min_t: int, max_total: int | float = inf):
        if min_s + min_t > max_total:
            raise EmptyWindowError(
                f"empty window: min_s={min_s}, min_t={min_t}, max_total={max_total}"
            )
        _set_min_s(self, min_s)
        _set_min_t(self, min_t)
        _set_max_total(self, max_total)

    def __setattr__(self, name, value):
        raise AttributeError("Window is immutable")

    def _fields(self) -> tuple:
        return self.min_s, self.min_t, self.max_total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "Window(min_s={!r}, min_t={!r}, max_total={!r})".format(*self._fields())

    def __reduce__(self):
        # copy and pickle rebuild a window through __init__, past __setattr__
        return Window, self._fields()

    def contains(self, es: int, et: int) -> bool:
        return es >= self.min_s and et >= self.min_t and es + et <= self.max_total

    def shifted(self, ds: int, dt: int) -> "Window":
        return Window(self.min_s + ds, self.min_t + dt, self.max_total + ds + dt)

    def describe(self) -> str:
        return f"[e_s>={self.min_s}, e_t>={self.min_t}, e_s+e_t<={self.max_total}]"


class LaurentSeries:
    """Sparse bivariate Laurent series with an exactness window."""

    __slots__ = ("window", "coeffs", "honest_t")

    def __init__(self, window: Window, coeffs: dict, honest_t: bool = True):
        """Store the arguments as given: every key of coeffs lies inside
        window, no coefficient is zero, and nothing mutates coeffs later."""
        _set_window(self, window)
        _set_coeffs(self, coeffs)
        _set_honest_t(self, honest_t)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a series through __init__, past __setattr__
        return LaurentSeries, (self.window, self.coeffs, self.honest_t)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(terms: dict) -> "LaurentSeries":
        """A series the caller knows in full: window covers the support."""
        nz = {e: p for e, p in terms.items() if not p.is_zero()}
        if not nz:
            return LaurentSeries.zero()
        min_s = min(es for es, _ in nz)
        min_t = min(et for _, et in nz)
        return LaurentSeries(Window(min_s, min_t), nz)

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries(Window(0, 0), {})

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries.monomial(0, 0)

    @staticmethod
    def monomial(es: int, et: int, poly: F2Poly | None = None) -> "LaurentSeries":
        poly = F2Poly.one() if poly is None else poly
        return LaurentSeries.exact({(es, et): poly})

    @staticmethod
    def truncated(terms: dict, window: Window, honest_t: bool = True) -> "LaurentSeries":
        """A series known exactly on the given window, unknown above."""
        kept = {e: p for e, p in terms.items() if window.contains(*e) and not p.is_zero()}
        return LaurentSeries(window, kept, honest_t)

    def is_exact(self) -> bool:
        return self.window.max_total == inf

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def certified_min_total(self):
        """A lower bound for the total degree of the true series.

        Everything below it is known to vanish; inf means the series is
        zero in full.  Valid only for series honest in t.
        """
        return min((es + et for es, et in self.coeffs), default=self.window.max_total + 1)

    def coefficient(self, es: int, et: int) -> F2Poly:
        if not self.window.contains(es, et):
            w = self.window
            below_axis = es < w.min_s or (self.honest_t and et < w.min_t)
            if below_axis and es + et <= w.max_total:
                return F2Poly.zero()  # certified vanishing below an honest axis
            raise WindowMissError(
                f"({es},{et}) outside guaranteed window {self.window.describe()}"
            )
        return self.coeffs.get((es, et), F2Poly.zero())

    def covers(self, box: Window) -> bool:
        """Whether coefficient answers at every position of box: each lies
        in the window, or below an honest axis up to its max_total."""
        w = self.window
        return box.max_total <= w.max_total and (self.honest_t or w.min_t <= box.min_t)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_add(self, other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_mul(self, other)

    def shift(self, ds: int, dt: int) -> "LaurentSeries":
        """Multiply by the monomial s^ds t^dt."""
        coeffs = {(es + ds, et + dt): p for (es, et), p in self.coeffs.items()}
        return LaurentSeries(self.window.shifted(ds, dt), coeffs, self.honest_t)

    def square(self) -> "LaurentSeries":
        # Frobenius: cross terms cancel in pairs, so (sum)^2 = sum of squares
        # and the square is exact out to 2*max_total + 1 (odd totals vanish).
        w = self.window
        new_w = Window(2 * w.min_s, 2 * w.min_t, 2 * w.max_total + 1)
        coeffs = {(2 * es, 2 * et): p.square() for (es, et), p in self.coeffs.items()}
        return LaurentSeries(new_w, coeffs, self.honest_t)

    def restricted(self, window: Window) -> "LaurentSeries":
        """Forget knowledge outside the given window."""
        # an honest axis keeps its quadrant bound: coefficients between
        # the bounds are known zero, so only max_total truly restricts
        w = self.window
        return _known(
            self.coeffs,
            w.min_s,
            w.min_t if self.honest_t else max(w.min_t, window.min_t),
            min(w.max_total, window.max_total),
            self.honest_t,
        )

    def map_coeffs(self, fn) -> "LaurentSeries":
        """Apply fn to every coefficient, dropping those it sends to zero."""
        mapped = {e: q for e, p in self.coeffs.items() if not (q := fn(p)).is_zero()}
        return LaurentSeries(self.window, mapped, self.honest_t)

    # -- comparison and rendering ---------------------------------------

    def __eq__(self, other) -> bool:
        """Structural equality: same window, coefficients and honesty in t."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.window == other.window
            and self.coeffs == other.coeffs
            and self.honest_t == other.honest_t
        )

    def first_disagreement(self, other: "LaurentSeries", box: Window):
        """The first exponent, by total degree and then e_s, where the
        stored coefficients differ inside box, or None.  This compares
        every coefficient of the box only when both series cover it."""
        diffs = [
            e
            for e in set(self.coeffs) | set(other.coeffs)
            if box.contains(*e)
            and self.coeffs.get(e, F2Poly.zero()) != other.coeffs.get(e, F2Poly.zero())
        ]
        return min(diffs, key=lambda e: (e[0] + e[1], e[0])) if diffs else None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (es, et) in sorted(self.coeffs, key=lambda e: (e[0] + e[1], e[0])):
            poly = self.coeffs[(es, et)]
            mono = []
            if es:
                mono.append("s" if es == 1 else f"s^{es}")
            if et:
                mono.append("t" if et == 1 else f"t^{et}")
            mono_str = " ".join(mono)
            if not mono_str:
                parts.append(f"({poly})" if len(poly.monomials) > 1 else str(poly))
            elif poly.is_one():
                parts.append(mono_str)
            elif len(poly.monomials) > 1:
                parts.append(f"({poly}) {mono_str}")
            else:
                parts.append(f"{poly} {mono_str}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentSeries({self} @ {self.window.describe()})"

    def to_json_terms(self) -> list:
        return [
            {"es": es, "et": et, "coeff": str(self.coeffs[(es, et)])}
            for (es, et) in sorted(self.coeffs, key=lambda e: (e[0] + e[1], e[0]))
        ]


# each slot's own setter stores a field past the refusing __setattr__, at
# a fraction of the cost of object.__setattr__
_set_min_s = Window.min_s.__set__
_set_min_t = Window.min_t.__set__
_set_max_total = Window.max_total.__set__
_set_window = LaurentSeries.window.__set__
_set_coeffs = LaurentSeries.coeffs.__set__
_set_honest_t = LaurentSeries.honest_t.__set__


def _window(min_s: int, min_t: int, max_total: int | float) -> Window:
    """The window [min_s, min_t, max_total] of a series.

    When that window is empty, the s-axis is lowered until the window
    holds one position: every series is honest in s, so each coefficient
    below its s-axis is a known zero, and this claims nothing new.
    """
    if min_s + min_t > max_total:
        min_s = max_total - min_t
    return Window(min_s, min_t, max_total)


def _known(
    coeffs: dict, min_s: int, min_t: int, max_total: int | float, honest_t: bool = True
) -> LaurentSeries:
    """The series known to be coeffs on the window [min_s, min_t, max_total]."""
    return LaurentSeries.truncated(coeffs, _window(min_s, min_t, max_total), honest_t)


def _require_honest(a: LaurentSeries, b: LaurentSeries) -> None:
    if not (a.honest_t and b.honest_t):
        raise LaurentError("sums and products need series honest in t")


def _sum_window(wa: Window, wb: Window) -> Window:
    """The window of the sum of two honest series on wa and wb: both vanish
    below their axes, so the sum does below the lesser ones, and it is known
    to the lesser max_total.  When both are exact, the sum's window follows
    its support instead, and only its max_total inf is meaningful."""
    return Window(
        min(wa.min_s, wb.min_s), min(wa.min_t, wb.min_t), min(wa.max_total, wb.max_total)
    )


def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """The sum of two honest series, on the window _sum_window gives."""
    _require_honest(a, b)
    coeffs = {**a.coeffs, **b.coeffs}
    for e in a.coeffs.keys() & b.coeffs.keys():
        coeffs[e] = a.coeffs[e] + b.coeffs[e]  # may cancel to zero
    w = _sum_window(a.window, b.window)
    if w.max_total == inf:
        # a sum that cancels is the exact zero
        return LaurentSeries.exact(coeffs)
    return LaurentSeries.truncated(coeffs, w)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """The product of two honest series on the window both certify; it is
    honest too, and an exact zero factor gives the exact zero."""
    _require_honest(a, b)
    if any(x.is_exact() and not x.coeffs for x in (a, b)):
        return LaurentSeries.zero()
    wa, wb = a.window, b.window
    max_total = min(
        wa.max_total + b.certified_min_total(), wb.max_total + a.certified_min_total()
    )
    w = Window(wa.min_s + wb.min_s, wa.min_t + wb.min_t, max_total)
    # every product of keys lies on or above the summed axes of w
    return LaurentSeries(w, map_product(((a.coeffs, b.coeffs),), w.max_total))


def series_pow(a: LaurentSeries, k: int, window: Window | None = None) -> LaurentSeries:
    """a**k, restricted to window if one is given; a negative k inverts
    a**(-k) on window, which must then be given and finite.

    a**0 is 1.  For k >= 1 the square-and-multiply chain starts from its
    first factor, so a**1 is a and a**2 its square, with no product; a
    series that is not honest is refused, and an exact zero gives the exact
    zero, as in series_mul."""
    if k < 0:
        return series_inverse(series_pow(a, -k), window)
    if k == 0:
        result = LaurentSeries.one()
    else:
        _require_honest(a, a)
        if a.is_exact() and not a.coeffs:
            a = LaurentSeries.zero()
        result = None
        while k:
            if k & 1:
                result = a if result is None else series_mul(result, a)
            k >>= 1
            if k:
                a = a.square()
    if window is not None:
        result = result.restricted(window)
    return result


def series_inverse(a: LaurentSeries, window: Window) -> LaurentSeries:
    """Multiplicative inverse with series_mul(a, result) = 1 on the finite
    window.

    The leading term in the s-small order must be a bare monomial with
    coefficient 1 that no unknown term can undercut, and no term may have
    a lower total than the lead.  For a = lead (1 + r) it is lead^-1 c,
    c = (1 + r)^{-1}, which over F2 obeys c = (1 + r) c^2: f2.map_inverse
    forms c row by row in e_s up to the largest e_s of the window, each
    coefficient from squares of ones at half its e_s and total, and a lead
    at (0, 0) needs no shift.  The terms of r are lexicographically
    positive and of total >= 0, so c has none below e_s = 0 or total 0.
    It is known to total a.max_total - 2 total(lead).  It is honest in s,
    like every series, and a window above the lead's s-axis is lowered to
    start at s^-lead_s, below which the inverse has no term.  It is honest
    in t when r has no term of negative e_t and the window, moved to the
    lead, reaches down to e_t = 0, where c holds 1: a term of negative e_t
    has e_s >= 1, and its powers fall ever lower in t.
    """
    if window is None or window.max_total == inf:
        raise NotInvertibleError("the inverse needs a finite window")
    if not a.honest_t:
        raise NotInvertibleError("cannot invert a non-quadrant-bounded series")
    if a.is_zero():
        raise NotInvertibleError("zero series has no inverse")
    lead = min(a.coeffs)  # the k((t))((s)) order: least e_s, then least e_t
    if not a.coeffs[lead].is_one():
        raise NotInvertibleError(
            f"leading coefficient at s^{lead[0]} t^{lead[1]} is "
            f"{a.coeffs[lead]}, not 1"
        )

    # relative series r with a = lead * (1 + r); every term of r is
    # lexicographically positive, so the inverse converges per window
    rel = a if lead == (0, 0) else a.shift(-lead[0], -lead[1])
    r = {e: p for e, p in rel.coeffs.items() if e != (0, 0)}
    if any(es + et < 0 for es, et in r):
        raise NotInvertibleError("a term has a lower total than the leading term")
    if a.window.max_total < inf and a.window.min_s < lead[0]:
        # an unknown term of lower e_s, above max_total, would lead instead
        raise NotInvertibleError("leading term is not minimal in the s-small order")

    # target window for the relative inverse c = (1 + r)^{-1}; c has no
    # term below e_s = 0, so its s-axis is lowered to min_s <= 0, as
    # restricted keeps an honest axis
    box = window.shifted(lead[0], lead[1])
    min_s = min(box.min_s, 0)
    bs = box.max_total - box.min_t  # largest e_s in the box
    # a product with an unknown term of r lies above rel's max_total
    max_total = min(box.max_total, rel.window.max_total)
    # c holds 1 at (0, 0); a term of r with negative e_t has e_s >= 1, and
    # its powers fall ever lower in t, below any t-axis
    honest_t = box.min_t <= 0 and not any(et < 0 for _, et in r)
    c = LaurentSeries(
        _window(min_s, box.min_t, max_total),
        map_inverse(r, bs, box.min_t, max_total),
        honest_t,
    )
    return c if lead == (0, 0) else c.shift(-lead[0], -lead[1])


def _cap_unknown_tail(
    result: LaurentSeries, a: LaurentSeries, u: LaurentSeries
) -> LaurentSeries:
    """Cut the composite, a sum of honest products, down to where a's
    unknown tail cannot reach.

    A tail term s^k t^i of a has k + i > M = a's max_total and i >= v_min,
    a's least exponent of t, and adds s^k u^i.  As val(u) >= 1, an i >= 0
    lands at totals > M.  An i < 0 only occurs for v_min < 0; there u, a
    series in t alone, is t^L (1 + r) with L = val(u) and r of positive
    total, so the tail lands at totals >= k + i L > M + v_min (L - 1).
    An exact a has no tail: M is inf, and so is the cap.
    """
    w = result.window
    cap, v_min = a.window.max_total, a.window.min_t
    if v_min < 0:
        cap += v_min * (u.certified_min_total() - 1)
    return _known(result.coeffs, w.min_s, w.min_t, min(w.max_total, cap))


def series_compose(a: LaurentSeries, u: LaurentSeries, window: Window) -> LaurentSeries:
    """Substitute u for t in a, on the finite window.

    a and u must be honest in t, and u must be a series in t alone (no
    known term off e_s = 0) with certified valuation >= 1, so
    that its powers eventually leave every window and all per-bidegree
    sums are finite; anything else is refused.  Row i of a, its
    coefficients at t^i, is an exact polynomial in s: the result sums u^i
    times row i in one product, with each power of u formed once (an even
    one by squaring) and restricted to the window, and is then cut to what
    a's unknown tail cannot reach and to the window.  A negative power is
    formed on the window, and is refused with NonComposableError when that
    leaves it not honest in t: when the window lies above the power's lead
    t^(i val(u)) in t.
    """
    if window.max_total == inf:
        raise NonComposableError("composition needs a finite window")
    if not (a.honest_t and u.honest_t):
        raise NonComposableError("composition needs series honest in t")
    if any(es for es, _ in u.coeffs):
        raise NonComposableError("the substituted series must be a series in t alone")
    mt_u = u.certified_min_total()
    if mt_u < 1:
        raise NonComposableError(
            f"substituted series has total valuation {mt_u} < 1; "
            "powers would not be summable"
        )
    rows: dict = {}
    for (es, et), p in a.coeffs.items():
        rows.setdefault(et, {})[(es, 0)] = p
    if a.window.min_t < 0 and not u.coeffs:
        raise NonComposableError(
            "negative powers of t need a known leading term of u"
        )

    pows: dict = {0: LaurentSeries.one()}

    def power(i: int) -> LaurentSeries:
        if i in pows:
            return pows[i]
        if i > 1 and i % 2 == 0:
            # Frobenius: u^(2k) = (u^k)^2 needs no product
            p = power(i // 2).square()
        elif i > 0:
            # u^1 is u, with no product by 1
            p = series_mul(power(i - 1), u) if i > 1 else series_pow(u, 1)
        else:
            p = series_pow(u, i, window)
            if not p.honest_t:
                raise NonComposableError(
                    f"u^{i} is not honest in t on the target window {window.describe()}: "
                    f"the window must reach e_t = {i * mt_u}"
                )
        pows[i] = p = p.restricted(window)
        return p

    # One product sums u^i times row i over every row i, on the window
    # that series_add gives the series_mul terms in row order: a term's is
    # u^i's shifted by s^lo, lo the least e_s of its row.  No product past
    # its max_total or the target window's is formed.
    pairs, w = [], None
    for i in sorted(rows):
        p, row = power(i), rows[i]
        pairs.append((p.coeffs, row))
        term = p.window.shifted(min(es for es, _ in row), 0)
        w = term if w is None else _sum_window(w, term)
    if w is None:  # no coefficient of a is known
        result = LaurentSeries.zero()
    else:
        # every product lies on or above the axes of w
        limit = min(w.max_total, window.max_total)
        result = LaurentSeries(_window(w.min_s, w.min_t, limit), map_product(pairs, limit))
    return _cap_unknown_tail(result, a, u).restricted(window)


def series_reversion(a: LaurentSeries, max_total: int | float = inf) -> LaurentSeries:
    """Compositional inverse b of an honest series a = t + (higher order)
    in t alone, with a(b) = t, known to the lesser of a's max_total and
    max_total; both inf, an exact a with no bound given, is refused.

    pows[j][n] is the t^n coefficient of b^j (pows[1] is b); for j >= 2 it
    needs only b_1 .. b_{n-1}.  As a starts with t and a(b) has no t^d term,
    b_d = sum_{j>=2} a_j pows[j][d], so only the powers j of a's terms are
    read, and pows holds those and the ones they are formed from.  Degree d
    adds column d to each: an even power is the Frobenius square of its
    half, pows[j][d] = pows[j/2][d/2]^2 (nothing at odd d), and an odd one
    is b^(j-1) b, one sum over the terms of b.  For z(t) only the b^(2^k)
    are formed, all by squaring.  b and pows hold no zeros.
    """
    if not a.honest_t or any(es for es, _ in a.coeffs):
        raise BadValuationError("reversion needs an honest series in t alone")
    coeffs = {et: p for (_, et), p in a.coeffs.items()}
    if min(coeffs, default=0) < 1 or coeffs.get(1) != F2Poly.one():
        raise BadValuationError(
            "reversion needs a = t + higher terms with leading coefficient 1"
        )
    m = min(a.window.max_total, max_total)
    if m == inf:
        raise BadValuationError("reversion of an exact series needs an explicit max_total")

    # the powers b^j that the b_d read, and those they are formed from: an
    # even j from j/2, an odd j from j - 1
    needed: set = set()
    for j in coeffs:
        while 2 <= j <= m and j not in needed:
            needed.add(j)
            j = j // 2 if j % 2 == 0 else j - 1
    b = {1: F2Poly.one()}
    pows = {1: b, **{j: {} for j in needed}}
    for d in range(2, m + 1):
        for j in needed:
            if j % 2 == 0:
                # Frobenius: b^j = (b^(j/2))^2, with nothing at odd d
                half = pows[j // 2].get(d // 2) if d % 2 == 0 else None
                p = F2Poly.zero() if half is None else half.square()
            else:
                prev = pows[j - 1]
                p = sum_of_products((prev[d - k], bk) for k, bk in b.items() if d - k in prev)
            if not p.is_zero():
                pows[j][d] = p
        p = sum_of_products(
            (c, pows[j][d]) for j, c in coeffs.items() if 2 <= j <= d and d in pows[j]
        )
        if not p.is_zero():
            b[d] = p

    return LaurentSeries(Window(0, 1, m), {(0, d): p for d, p in b.items()})


def residue(a: LaurentSeries) -> LaurentSeries:
    """The coefficient of s^{-1}, as a series in t.

    a need not be honest: the residues of the Adem coefficients are read
    from negative powers of t + s, which are not honest in t.
    """
    w = a.window
    if w.min_s > -1:
        raise WindowMissError("exponent -1 in s lies outside the window")
    coeffs = {(0, et): p for (es, et), p in a.coeffs.items() if es == -1}
    new_w = Window(0, w.min_t, w.max_total + 1)
    return LaurentSeries(new_w, coeffs, honest_t=a.honest_t)
