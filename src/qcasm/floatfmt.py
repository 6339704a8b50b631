"""'%.17g' for arrays of doubles, in numpy.

Past 14 digits each '%.17g' call takes CPython's bignum route; this
module formats a whole array of finite doubles in a few numpy passes and
gives the same text.  |x| is scaled by 10**(16 - X), X = floor(log10 |x|),
in double-double arithmetic from a table of 10**k as hi + lo (relative
error below 2**-100), and rounded to the nearest 17-digit integer N.  A
value is left to the caller's '%.17g' when the arithmetic cannot settle
its rounding (the scaled fraction within 2**-40 of one half, exact ties
included), when its scaled integer part is not 17 digits (X misjudged
near a power of ten), when its 10**(16 - X) is outside the table, or when
its fixed form has digits before the point past the first (10 <= |x| <
1e16, never an amplitude).  Each number is laid out in NUM_WORDS uint32
words of text, NUL where a character is absent (a positive sign, a
stripped trailing zero, the exponent of a fixed-form number), so that
text joined from such words drops every NUL.

``sim`` imports this module when it formats its first pair array, so a
process that emits none does not compile it or build its tables.
"""
from __future__ import annotations

import numpy as np

NUM_WORDS = 9

# 10**(16 - X) for every X of a finite double: X = -324 .. 308.
_K_MIN, _K_MAX = -292, 340
_SPLIT = 2.0**27 + 1  # Veltkamp's split: a double as the sum of two 26-bit halves
_TIE_SLACK = 2.0**-40


def as_words(text: str, count: int) -> np.ndarray:
    """``text`` in ``count`` uint32 words, NUL-padded."""
    return np.frombuffer(text.encode("ascii").ljust(4 * count, b"\0"), np.uint32)


def _table(texts: list[str]) -> np.ndarray:
    """One word per text of at most 4 characters."""
    return as_words("".join(t.ljust(4, "\0") for t in texts), len(texts))


def _pow10_table():
    """10**k as (hi + lo) * 2**s for k = _K_MIN.._K_MAX: hi is 10**k / 2**s
    rounded to a double in [0.5, 2), lo the rest rounded to a double, and
    the relative error below 2**-118.  s is int32, which np.ldexp takes
    without a slow conversion."""
    his, los, exps = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length()
        shift = 120 - s
        t = (num << shift) // den if shift >= 0 else num >> -shift  # 10**k * 2**shift
        hi = t / (1 << 120)
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((t - (a << 120) // b) / (1 << 120))
        exps.append(s)
    return np.array(his), np.array(los), np.array(exps, dtype=np.int32)


_POW10_HI, _POW10_LO, _POW10_EXP = _pow10_table()
_c = _SPLIT * _POW10_HI
_POW10_HI_HEAD = _c - (_c - _POW10_HI)
_POW10_HI_TAIL = _POW10_HI - _POW10_HI_HEAD
del _c

# The words of a number: sign and "0.000" lead (2), first digit and its
# point (1), digits 2-17 (4) and exponent (2).
_d = ["%02d" % i for i in range(100)]
_z = np.frombuffer("".join(t.rstrip("0").ljust(2, "\0") for t in _d).encode("ascii"),
                   np.uint8).reshape(100, 2)
_d = np.frombuffer("".join(_d).encode("ascii"), np.uint8).reshape(100, 2)
# Four digits as [stripped, first pair, second pair]: the stripped half
# (entries 10000 on) has its trailing zeros as NUL.
_DIGITS4 = np.empty((2, 100, 100, 4), np.uint8)
_DIGITS4[:, :, :, :2] = _d[:, None]
_DIGITS4[0, :, :, 2:] = _d
_DIGITS4[1, :, :, 2:] = _z
_DIGITS4[1, :, 0, :2] = _z
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
del _d, _z
_FIRST = _table(["%d%s" % (d, p) for d in range(10) for p in ("", ".")])
_lead = [s + z for s in ("", "-") for z in ("", "0.", "0.0", "0.00", "0.000")]
_SIGN_LEAD = (_table([t[:4] for t in _lead]), _table([t[4:] for t in _lead]))
_exp = ["" if -5 < x < 17 else "e%+03d" % x for x in range(-330, 330)]
_EXPONENT = (_table([t[:4] for t in _exp]), _table([t[4:] for t in _exp]))
del _lead, _exp


def _decimal17(v: np.ndarray):
    """For each finite double of ``v``: the integer N of its 17 '%.17g'
    digits (0 for zero), its decimal exponent X, and whether the scaled
    arithmetic settled both (where it did not, N is 0)."""
    with np.errstate(all="ignore"):
        a = np.abs(v)
        zero = a == 0
        X = np.log10(a)
        np.floor(X, out=X)
        X[zero] = 0
        X = X.astype(np.intp)
        f, e = np.frexp(a)
        del a
        k = 16 - _K_MIN - X
        ok = (k >= 0) & (k <= _K_MAX - _K_MIN)
        k[~ok] = 16 - _K_MIN
        # y = f * (hi + lo) * 2**s as yh + yl: f * hi exactly (Dekker's
        # product of Veltkamp halves), plus f * lo.
        yh = f * _POW10_HI[k]
        fh = _SPLIT * f
        fh -= fh - f
        ft = f - fh
        yl = fh * _POW10_HI_HEAD[k]
        yl -= yh
        yl += fh * _POW10_HI_TAIL[k]
        yl += ft * _POW10_HI_HEAD[k]
        yl += ft * _POW10_HI_TAIL[k]
        yl += f * _POW10_LO[k]
        del f, fh, ft
        ph = yh
        yh = ph + yl
        yl -= yh - ph
        scale = np.ldexp(1.0, e + _POW10_EXP[k])  # exact, as y is near 10**16
        yh *= scale
        yl *= scale
        floor = np.floor(yl)
        frac = yl - floor
        N = yh.astype(np.int64)
        N += floor.astype(np.int64)
        # 17 digits before rounding, and no carry into an 18th from it.
        ok &= (N >= 10**16) & (N < 10**17 - 1)
        ok &= np.abs(frac - 0.5) > _TIE_SLACK
        N += frac > 0.5
    N[~ok] = 0
    ok |= zero
    return N, X, ok


def format_floats(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the '%.17g' text of each finite double of ``v`` into the
    uint32 words ``out[:, :NUM_WORDS]``, NUL where no character is.
    Returns the indices of the values whose text it could not settle,
    whose words the caller is to overwrite."""
    N, X, ok = _decimal17(v)
    high = N // 10**8
    low = N - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    groups = []
    for x in (high, low):
        g = x // 10**4
        groups += [g, x - g * 10**4]
    strip = np.full(v.shape, 10000)  # while every later group is 0
    for j in (3, 2, 1, 0):
        out[:, 3 + j] = _DIGITS4[groups[j] + strip]
        strip *= groups[j] == 0
    fixed = (X > -5) & (X < 17)
    lead = fixed & (X < 0)
    sign_lead = np.signbit(v) * 5 + np.where(lead, -X, 0)
    out[:, 0] = _SIGN_LEAD[0][sign_lead]
    out[:, 1] = _SIGN_LEAD[1][sign_lead]
    out[:, 2] = _FIRST[2 * first + ((strip == 0) & ~lead)]
    out[:, 7] = _EXPONENT[0][X + 330]
    out[:, 8] = _EXPONENT[1][X + 330]
    ok &= ~(fixed & (X > 0))  # the point after digit X + 1: not laid out here
    return np.flatnonzero(~ok)
