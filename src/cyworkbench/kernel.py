"""Bit-exact rounding, the decimal text format, and the shared bounds.

``hodge`` and ``anomaly`` both round on signed integer mantissas and
binary exponents instead of mpmath objects, bit for bit as mpmath does:
``_round`` rounds a two-term sum as ``libmp.mpf_add`` does, ``_div`` a
quotient to nearest, and ``_Z`` holds a complex value as signed
mantissas and exponents whose operators round as mpc's do.  ``_kernel``
and ``_mpmath`` convert to and from mpc; an mpc with an inf, nan or
far-out part stays one and takes libmp's route.  ``_conj`` is the exact
conjugate that ``HodgePointReport.conjugate`` and ``hodge_stage`` take.

Decimals are read and written on raw ``_mpf_`` tuples: ``_parse_complex``
reads a JSON pair [re, im] as ``mp.mpc`` would, and ``_format_complex``
writes one with ``_DIGITS`` significant digits, as ``hodge.json`` does.

This module imports only the standard library and mpmath.
"""

from __future__ import annotations

import re

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_neg, to_str

_GUARD_BITS = 24
# the residual kernel leaves parts with |exponent| >= this to libmp
_KERNEL_EXPONENT = 1 << 15
# significant digits of every decimal written (grid values, hodge.json)
_DIGITS = 40
# The largest binary precision any input may ask for.  A Hodge point costs
# about 0.085 s at 8192 bits, and past about 14300 bits a value near
# 2^-prec cannot be printed to 40 digits (Python's int-string limit).
MAX_PRECISION_BITS = 8192
# bound on a recursion residual, and on dbar S - C relative to max |C|
RESIDUAL_TOLERANCE = 1e-8


def _round(u, x, v, y, prec, down=False):
    """u 2^x + v 2^y rounded as libmp.mpf_add rounds it at prec bits, to
    nearest or (down) toward zero, with its shortcut for a far smaller
    term; a signed mantissa and exponent (a carry may leave 2^prec).  A
    zero term is not aligned, so the exact zero part of a _Z product
    keeps the next product's alignment (hodge's ladder at real z)."""
    if x > y:
        u, x, v, y = v, y, u, x
    if u:
        t = u + (v << y - x)
    else:
        t, x = v, y
    n = t.bit_length() - prec
    if n > 4 and u and v:
        gap = v.bit_length() + y - u.bit_length() - x
        if abs(gap) > prec + 4:
            s, xs, b, xb = (u, x, v, y) if gap > 0 else (v, y, u, x)
            zs, zb = (s & -s).bit_length() - 1, (b & -b).bit_length() - 1
            if xb + zb - xs - zs > 100:
                t = ((b >> zb) << prec + 4) + (1 if s > 0 else -1)
                x, n = xb + zb - prec - 4, t.bit_length() - prec
    if n <= 0:
        return t, x
    if down:
        return (t >> n if t > 0 else -(-t >> n)), x + n
    q = t >> n - 1  # the half bit last; a tie needs the bits below it
    if q & 1 and (q & 2 or t & (1 << n - 1) - 1):
        return (q >> 1) + 1, x + n
    return q >> 1, x + n


def _div(n, x, m, f, prec):
    """n 2^x / (m 2^f), m > 0, rounded to nearest at prec bits."""
    k = max(prec + 2 + m.bit_length() - n.bit_length(), 0)
    q, r = divmod(abs(n) << k, m)
    q = q << 1 | (r > 0)
    return _round(-q if n < 0 else q, x - f - k - 1, 0, x - f - k - 1, prec)


class _Z(tuple):
    """a 2^ea + i b 2^eb as (a, ea, b, eb), rounded as mpc operators do."""

    __slots__ = ()

    def __add__(z, w, sign=1):
        (a, ea, b, eb), (c, ec, d, ed), p = z, w, mp._prec_rounding[0]
        return _Z(_round(a, ea, sign * c, ec, p)
                  + _round(b, eb, sign * d, ed, p))

    def __sub__(z, w):
        return z.__add__(w, -1)

    def __mul__(z, w):
        """As mpc_mul at the working precision, of z's type: hodge's power
        ladder runs it on plain tuples."""
        (a, ea, b, eb), (c, ec, d, ed), p = z, w, mp._prec_rounding[0]
        return type(z)(_round(a * c, ea + ec, -b * d, eb + ed, p)
                       + _round(a * d, ea + ed, b * c, eb + ec, p))

    def __rmul__(z, n, e=0):
        (a, ea, b, eb), p = z, mp._prec_rounding[0]
        return _Z(_round(n * a, ea + e, 0, ea + e, p)
                  + _round(n * b, eb + e, 0, eb + e, p))

    def __truediv__(z, two):
        return z.__rmul__(1, -1) if two == 2 else NotImplemented


def _kernel(x, bound=_KERNEL_EXPONENT):
    """x as a _Z if an mpc with finite parts whose exponents lie below
    bound in absolute value; an exact zero part takes the other part's
    exponent, so it does not stretch a sum of such values."""
    if type(x) is not mp.mpc:
        return x
    (s, a, ea, na), (t, b, eb, nb) = x._mpc_
    if na >= 0 and nb >= 0 and abs(ea) | abs(eb) < bound:
        return _Z((-a if s else a, ea if a else eb, -b if t else b,
                   eb if b else ea))
    return x


def _mpmath(x):
    return mp.make_mpc((from_man_exp(x[0], x[1]), from_man_exp(
        x[2], x[3]))) if type(x) is _Z else x


def _conj(x):
    """The exact conjugate of an mpc: the imaginary sign flipped, unrounded."""
    return mp.make_mpc((x._mpc_[0], mpf_neg(x._mpc_[1])))


# a decimal as nstr writes it; any other spelling goes through mp.mpf
_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]*))?(?:e([-+]?[0-9]+))?")


def _parse_real(s):
    """mp.mpf(s)._mpf_: a decimal m 10^e with |e| <= 400 is rounded once
    to nearest, the same operation libmp.from_str applies to it."""
    match = _DECIMAL.fullmatch(s) if type(s) is str else None
    if match:
        whole, frac, e = match.groups()
        frac = (frac or "").rstrip("0")
        man, exp = int(whole + frac), int(e or 0) - len(frac)
        if 0 <= exp <= 400:
            return from_int(man * 10 ** exp, *mp._prec_rounding)
        if -400 <= exp < 0:  # one division, rounded by its remainder
            return from_man_exp(*_div(man, 0, 10 ** -exp, 0, mp.prec))
    return mp.mpf(s)._mpf_


def _parse_complex(pair):
    """A JSON pair [re, im] of decimals as an mpc; null stays None."""
    if pair is None:
        return None
    if type(pair) is not list or len(pair) != 2:
        raise ValueError(f"{pair!r} is not a pair [re, im]")
    return mp.make_mpc((_parse_real(pair[0]), _parse_real(pair[1])))


def _format_complex(x):
    if x is None:
        return None
    # to_str, nstr's own call, does not re-round; nstr(mp.zero) is "0.0"
    if hasattr(x, "_mpc_"):
        return [to_str(x._mpc_[0], _DIGITS), to_str(x._mpc_[1], _DIGITS)]
    if hasattr(x, "_mpf_"):
        return [to_str(x._mpf_, _DIGITS), "0.0"]
    return [mp.nstr(getattr(x, "real", x), _DIGITS),
            mp.nstr(getattr(x, "imag", 0), _DIGITS)]
