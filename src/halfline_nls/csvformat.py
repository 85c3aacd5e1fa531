"""The CSV outputs' number format: Python's "%.17g", vectorised in numpy.

format_rows turns a 2-D float64 block into exactly the bytes of
",".join(f"{v:.17g}" for v in row) + "\n" for each row, the fixed-precision
case of Adams's Ryu printf (OOPSLA 2019) done on arrays. Each value's 17
digits come from a double-double product with a power of ten, its layout
from lookup tables; the values that arithmetic cannot certify go through
Python's own formatter, so the bytes are exact by construction.
"""
from __future__ import annotations

import functools

import numpy as np

# the double-double arithmetic below serves 10**-_K_SAFE <= |v| < 10**_K_SAFE:
# v and the powers of ten it meets stay clear of overflow when split by
# 2**27+1, and v is normal; other values take the fallback
_K_SAFE = 280
# a digit count closer than this to a rounding tie takes the fallback (the
# arithmetic errs by under 1e-14)
_TIE = 1e-6
# the byte template of one value: sign, "0.000" lead, first digit, point,
# 16 digits, exponent "e+XXX", separator; unused bytes are 0
_W = 30


@functools.cache
def _pow10(p):
    """10**p as a double-double hi + lo, with hi split by Veltkamp into
    26-bit halves: (hi, hi_high, hi_low, lo)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int / int rounds correctly
    hn, hd = hi.as_integer_ratio()
    lo = (num * hd - hn * den) / (den * hd)
    c = 134217729.0 * hi
    high = c - (c - hi)
    return hi, high, hi - high, lo


@functools.cache
def _tables():
    """(groups, frames): the 4-digit groups "0000".."9999" as uint32, then
    the same with trailing zeros as 0 bytes; and for each exponent k in
    -_K_SAFE-2..._K_SAFE+2 (row k + _K_SAFE + 2) the template bytes that
    depend on k alone: the "0.000" lead, the point after the first digit and
    the exponent of %g, and the separator ","."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    zeros = np.cumprod((digits == 48)[:, ::-1], axis=1)[:, ::-1].astype(bool)
    groups = np.concatenate([digits, np.where(zeros, 0, digits)]).astype(np.uint8)
    frames = []
    for k in range(-_K_SAFE - 2, _K_SAFE + 3):
        sci = k < -4 or k >= 17
        lead = b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""
        point = b"." if sci or k == 0 else b"\0"
        exp = b"e%+03d" % k if sci else b""
        frames.append(b"\0" + lead.ljust(5, b"\0") + b"\0" + point + b"\0" * 16
                      + exp.ljust(5, b"\0") + b",")
    frames = np.frombuffer(b"".join(frames), np.uint8).reshape(-1, _W)
    return groups.view(np.uint32)[:, 0], frames


def _scaled(a, k):
    """(ph, r): a * 10**(16-k) as ph + r, within 1e-14 below 1e17.
    ph = fl(a * hi) is an integer from 2**53 up; r is its rounding error,
    exact by Dekker's product, plus a * lo."""
    p = 16 - k
    p0 = int(p.min())
    table = np.array([_pow10(q) for q in range(p0, int(p.max()) + 1)]).T
    hi, high, low, lo = (np.take(col, p - p0) for col in table)
    ph = a * hi
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    pl = ((ah * high - ph) + ah * low + al * high) + al * low  # a * hi - ph
    return ph, pl + a * lo


def format_rows(block):
    """The bytes of ",".join(f"{v:.17g}" for v in row) + "\n" for each row
    of a 2-D float64 block.

    Each value's 17 digits are the integer D = round(|v| * 10**(16-k)),
    k = floor(log10 |v|), taken in double-double arithmetic and written into
    a fixed-width template by table lookups; the 0 bytes left in the
    template are dropped. Values that arithmetic cannot certify (near a
    rounding tie or a power of ten; nonzero and outside 10**-_K_SAFE <= |v|
    < 10**_K_SAFE, inf and nan among them) are formatted by Python's %.17g
    and spliced in, so the bytes are exact.
    """
    groups, frames = _tables()
    rows, width = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0
    ok = (a >= 10.0**-_K_SAFE) & (a < 10.0**_K_SAFE)  # false on inf and nan
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    # D = ph + r must lie in [1e16, 1e17): correct k by one where log10 missed
    ph, r = _scaled(a, k)
    off = (ph >= 1e17).view(np.int8) - (ph < 1e16).view(np.int8)
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        ph[fix], r[fix] = _scaled(a[fix], k[fix])
        bad = fix[(ph[fix] < 1e16) | (ph[fix] >= 1e17)]
        ok[bad] = False
        ph[bad] = 1e16
    # ph is an even integer, so rounding r half to even rounds ph + r so too
    q = np.rint(r)
    ok &= np.abs(np.abs(r - q) - 0.5) > _TIE
    D = ph.astype(np.int64) + q.astype(np.int64)
    ok &= D >= 10**16
    # D = 1e16 is right only if ph + r >= 1e16; D = 1e17 is 1e16 at k + 1
    edge = np.flatnonzero(D == 10**16)
    ok[edge] &= (ph[edge] - 1e16) + r[edge] >= _TIE
    top = D >= 10**17
    D[top] = 10**16
    k[top] += 1
    D[zero] = 0

    t = frames[k + _K_SAFE + 2]
    t[:, 0] = np.signbit(v).view(np.uint8) * np.uint8(ord("-"))
    d0 = D // 10**16
    t[:, 6] = d0 + 48
    rest = D - d0 * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g = np.stack([hi8 // 10**4, hi8 % 10**4, lo8 // 10**4, lo8 % 10**4], axis=1)
    # a group is stripped of trailing zeros when every later group is 0
    later = np.stack([rest % 10**12, lo8, g[:, 3], np.zeros_like(rest)], axis=1) == 0
    body = t[:, 8:24].view(np.uint32)
    body[:] = groups[g + 10000 * later]
    t[:, 7] *= rest != 0  # no point before an empty fraction
    # 1 <= k <= 16 without exponent: the point follows digit k, and the
    # integer part keeps its zeros
    mid = np.flatnonzero((k >= 1) & (k <= 16))
    for kk in np.unique(k[mid]):
        i = mid[k[mid] == kk]
        full = groups[g[i]].view(np.uint8)
        seg = np.zeros((len(i), 18), np.uint8)
        seg[:, 0] = t[i, 6]
        seg[:, 1:kk + 1] = full[:, :kk]
        if kk < 16:
            seg[:, kk + 1] = np.where(t[i, 8 + kk] != 0, ord("."), 0)
            seg[:, kk + 2:] = t[i, 8 + kk:24]
        t[i, 6:24] = seg
    t.reshape(rows, width, _W)[:, -1, -1] = ord("\n")
    for i in np.flatnonzero(~ok & ~zero):
        text = ("%.17g" % v[i]).encode()
        t[i, :-1] = 0
        t[i, :len(text)] = np.frombuffer(text, np.uint8)
    return t.tobytes().translate(None, b"\0")
