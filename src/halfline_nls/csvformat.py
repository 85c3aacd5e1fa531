"""The CSV outputs' number format: Python's "%.17g", vectorised in numpy.

format_rows turns a 2-D float64 block into exactly the bytes of
",".join(f"{v:.17g}" for v in row) + "\n" for each row, the fixed-precision
case of Adams's Ryu printf (OOPSLA 2019) done on arrays. Each value's 17
digits come from a double-double product with a power of ten. Its bytes are
one gathered template row, chosen by exponent, sign, first digit and whether
a point follows, with the other 16 digits copied in as four 4-digit groups,
formed in int32 and looked up in a table. The values that arithmetic cannot
certify go through Python's own formatter, so the bytes are exact by
construction.
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
# the tables hold the exponents k = floor(log10 |v|) in -_K0..._K0, k in
# row e = k + _K0 (the correction by one and a rounding up reach past _K_SAFE)
_K0 = _K_SAFE + 2


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
    """(groups, frames, powers).

    groups: the 4-digit groups "0000".."9999" as uint32, then the same with
    trailing zeros as 0 bytes (index g + 10000).
    frames: the template of every (k, sign, first digit d0, point kept) in
    row ((e * 2 + signbit) * 10 + d0) * 2 + kept, e = k + _K0: the sign, the
    "0.000" lead, d0, the point of %g (dropped before an empty fraction) and
    its exponent, the separator ","; the 16 digit bytes are 0.
    powers: _pow10(16 - k) in column e, one row per part.
    """
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    zeros = np.cumprod((digits == 48)[:, ::-1], axis=1)[:, ::-1].astype(bool)
    groups = np.concatenate([digits, np.where(zeros, 0, digits)]).astype(np.uint8)
    frames = []
    for k in range(-_K0, _K0 + 1):
        sci = k < -4 or k >= 17
        lead = b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""
        point = b"." if sci or k == 0 else b"\0"
        exp = b"e%+03d" % k if sci else b""
        frames.append(b"\0" + lead.ljust(5, b"\0") + b"\0" + point + b"\0" * 16
                      + exp.ljust(5, b"\0") + b",")
    frames = np.frombuffer(b"".join(frames), np.uint8).reshape(-1, 1, 1, 1, _W)
    frames = np.tile(frames, (1, 2, 10, 2, 1))
    frames[:, 1, ..., 0] = ord("-")
    frames[..., 6] = np.arange(48, 58)[:, None]
    frames[..., 0, 7] = 0
    powers = np.array([_pow10(16 - k) for k in range(-_K0, _K0 + 1)]).T.copy()
    return groups.view(np.uint32)[:, 0], frames.reshape(-1, _W), powers


def _scaled(a, e, powers):
    """(ph, r): a * 10**(16-k) as ph + r, within 1e-14 below 1e17, k = e - _K0.
    ph = fl(a * hi) is an integer from 2**53 up; r is its rounding error,
    exact by Dekker's product, plus a * lo."""
    hi, high, low, lo = np.take(powers, e, axis=1)
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
    k = floor(log10 |v|), taken in double-double arithmetic. Its template
    row (see _tables) holds the sign, the first digit D // 10**16 and the
    layout; the other 16 digits, four groups formed by int32 // and
    multiply-subtract, are looked up and copied in as one 16-byte block,
    and the 0 bytes left in the template are dropped. Values that arithmetic
    cannot certify (near a rounding tie or a power of ten; nonzero and
    outside 10**-_K_SAFE <= |v| < 10**_K_SAFE, inf and nan among them) are
    formatted by Python's %.17g and spliced in, so the bytes are exact.
    """
    groups, frames, powers = _tables()
    rows, width = block.shape
    v = block.ravel()
    a = np.abs(v)
    ok = (a >= 10.0**-_K_SAFE) & (a < 10.0**_K_SAFE)  # false on 0, inf and nan
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) + _K0
    # D = ph + r must lie in [1e16, 1e17): correct k by one where log10 missed
    ph, r = _scaled(a, e, powers)
    off = (ph >= 1e17).view(np.int8) - (ph < 1e16).view(np.int8)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        ph[fix], r[fix] = _scaled(a[fix], e[fix], powers)
        bad = fix[(ph[fix] < 1e16) | (ph[fix] >= 1e17)]
        ok[bad] = False
        ph[bad] = 1e16
    # ph is an even integer, so rounding r half to even rounds ph + r so too
    q = np.rint(r)
    ok &= np.abs(r - q) < 0.5 - _TIE
    D = ph.astype(np.int64) + q.astype(np.int64)
    # D = 1e16 is right only if ph + r >= 1e16 (and stands for 0 at v = 0,
    # where a = 1); below it is wrong; D = 1e17 is 1e16 at k + 1
    odd = np.flatnonzero((D <= 10**16) | (D >= 10**17))
    if odd.size:
        Do = D[odd]
        ok[odd[Do < 10**16]] = False
        edge = odd[Do == 10**16]
        ok[edge] &= (ph[edge] - 1e16) + r[edge] >= _TIE
        top = odd[Do >= 10**17]
        D[top] = 10**16
        e[top] += 1
        zero = odd[v[odd] == 0]
        D[zero] = 0
        ok[zero] = True

    # D = d0 * 10**16 + hi8 * 10**8 + lo8: one int64 //, then int32 below 1e9
    hi9 = D // 10**8
    lo8 = (D - hi9 * 10**8).astype(np.int32)
    hi9 = hi9.astype(np.int32)
    d0 = hi9 // 10**8
    hi8 = hi9 - d0 * 10**8
    g0 = hi8 // 10**4
    g1 = hi8 - g0 * 10**4
    g2 = lo8 // 10**4
    g3 = lo8 - g2 * 10**4
    # a group is stripped of trailing zeros (+ 10000) when every later one is 0
    stripped = np.int32(10000)
    g = np.empty((len(v), 4), np.intp)
    z23 = lo8 == 0
    g[:, 0] = g0 + (z23 & (g1 == 0)) * stripped
    g[:, 1] = g1 + z23 * stripped
    g[:, 2] = g2 + (g3 == 0) * stripped
    g[:, 3] = g3 + stripped
    kept = (hi8 | lo8) != 0  # no point before an empty fraction
    row = e * 40  # ((e * 2 + signbit) * 10 + d0) * 2 + kept
    row += np.signbit(v) * np.int32(20) + (d0 * 2 + kept)
    t = np.take(frames, row, axis=0)
    np.copyto(t[:, 8:24].view("V16"), np.take(groups, g).view("V16"))
    # 1 <= k <= 16 without exponent: the point follows digit k, and the
    # integer part keeps its zeros
    mid = np.flatnonzero((e > _K0) & (e <= _K0 + 16))
    if mid.size:
        k = e[mid] - _K0
        full = groups[g[mid] % 10000].view(np.uint8)
        for kk in np.flatnonzero(np.bincount(k)):  # np.unique imports numpy.ma
            sel = k == kk
            i = mid[sel]
            seg = np.zeros((len(i), 18), np.uint8)
            seg[:, 0] = t[i, 6]
            seg[:, 1:kk + 1] = full[sel, :kk]
            if kk < 16:
                seg[:, kk + 1] = np.where(t[i, 8 + kk] != 0, ord("."), 0)
                seg[:, kk + 2:] = t[i, 8 + kk:24]
            t[i, 6:24] = seg
    t.reshape(rows, width, _W)[:, -1, -1] = ord("\n")
    for i in np.flatnonzero(~ok):
        text = ("%.17g" % v[i]).encode()
        t[i, :-1] = 0
        t[i, :len(text)] = np.frombuffer(text, np.uint8)
    return t.tobytes().translate(None, b"\0")
