"""Report text formatted a whole column at a time.

`csv_rows` gives the text that Python's `%` operator would give row by row:
an integer column prints as `%d` and a float column exactly as `%.6f`, that
is correctly rounded, half to even, from the float's exact binary value.
A row is a run of fixed-width 4-byte slots filled from lookup tables, with
NUL bytes where it has no character (leading zeros, a plus sign, a number
shorter than its column's longest). Each slot is one contiguous row of a
`uint32` matrix of shape (slots, rows); one transposing copy gives the rows'
bytes in order, and one `bytes.translate` drops the NULs. No Python code runs
per row.

A float is printed from n = |x| * 10**6 rounded to an integer. The product
q = fl(|x| * 10**6) rounds to the integer the exact product rounds to, unless
q lands on a tie (an odd multiple of 0.5) that the exact product need not be
on: below 2**52 a half-integer strictly between them would be a nearer float,
and from 2**52 on fl itself rounds half to even. So only where `rint` meets
a tie does the exact error of q (Dekker's two-product, Numer. Math. 18, 224,
1971) decide n. n must stay below 2**53, where every integer is a float:
`csv_rows` refuses a non-finite float or one with |x| >= 2**53 / 10**6.

`distinct_texts` serves any other format: it calls a formatter once per
distinct value of an array, and each element indexes the text of its value.
"""

from __future__ import annotations

import numpy as np


# Lookup tables of 4-byte slots, each read as one uint32.
_v = np.arange(10000)
_ascii = np.stack([_v // 1000, _v // 100 % 10, _v // 10 % 10, _v % 10], axis=1) + ord("0")
_ndigits = (_v[:, None] >= [1, 10, 100, 1000]).sum(axis=1)  # 0 for v = 0
_place = np.arange(4)
# 4-digit groups: v zero-padded at v, with NULs for its leading zeros at
# 10000 + v (0 is all NUL there) and at 20000 + v (0 prints as "0")
_DIGITS = np.concatenate([
    _ascii,
    np.where(_place >= 4 - _ndigits[:, None], _ascii, 0),
    np.where(_place >= 4 - np.maximum(_ndigits, 1)[:, None], _ascii, 0),
]).astype(np.uint8).view(np.uint32).ravel()
del _v, _ascii, _ndigits, _place
# a field's first slot: the separator, if any, then the sign, if any
_LEAD = np.frombuffer(b"\0\0\0\0" b"\0\0\0-" b",\0\0\0" b",\0\0-", dtype=np.uint32)
# the decimal point and the first two of the 6 fraction digits
_FRACTION_HIGH = np.frombuffer("".join(f"\0.{v:02d}" for v in range(100)).encode(), dtype=np.uint32)

_FLOAT_LIMIT = 2.0**53 / 1e6
# Dekker's split of a double into two 26-bit halves; 1e6 needs only 14 bits,
# so each half times 1e6 is exact
_SPLIT = 2.0**27 + 1.0


def _float_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign, integer part and 6-digit fraction of each `%.6f` value, the
    parts as int64. `rint` rounds every value; the exact product's error is
    computed only at the ties it met, to move those it broke the wrong way."""
    a = np.abs(x)
    if not np.all(a < _FLOAT_LIMIT):  # NaN fails the comparison too
        raise ValueError(f"cannot format as %.6f: a value is not finite or not below {_FLOAT_LIMIT!r} in magnitude")
    q = a * 1e6
    n = np.rint(q)
    d = q - n  # exact: n is within 0.5 of q
    n = n.astype(np.int64)
    tie = np.flatnonzero(np.abs(d) == 0.5)
    a, q, d = a[tie], q[tie], d[tie]
    hi = _SPLIT * a
    hi -= hi - a
    err = (hi * 1e6 - q) + (a - hi) * 1e6  # a * 1e6 == q + err exactly
    # rint broke a tie of q to even; the exact product is off it by err
    n[tie] += (d > 0) & (err > 0)
    n[tie] -= (d < 0) & (err < 0)
    whole = n // 10**6
    return np.signbit(x), whole, n - whole * 10**6


def _int_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and magnitude (uint64) of each integer."""
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64, so -2**63 has its magnitude
    return neg, mag


def csv_rows(columns, prefix: str = "") -> str:
    """Lines of `prefix` followed by the comma-separated values of one row of
    the equal-length `columns`, newline-terminated.

    Float columns print as `%.6f` and any other column as the integers `%d`
    prints. A non-finite float, or one of magnitude 2**53 / 10**6 or more,
    raises ValueError and nothing is returned. Each slot fills one row of the
    (slots, rows) matrix; the text is its transpose's bytes less the NULs.
    """
    head = prefix.encode("ascii")
    slots = list(np.frombuffer(head + bytes(-len(head) % 4), dtype=np.uint32))
    for k, column in enumerate(map(np.asarray, columns)):
        if column.dtype.kind == "f":
            neg, whole, frac = _float_parts(column)
        else:
            (neg, whole), frac = _int_parts(column), None
        slots.append(_LEAD[neg.view(np.uint8) + (2 if k else 0)])
        # the integer part's 4-digit groups, least significant first; a group
        # with nothing above it drops its leading zeros, and the units group
        # prints 0 as "0"
        groups, offset = [], 20000
        while True:
            # the offset takes whole's dtype: uint64 and int64 would mix to float64
            higher = whole // 10000
            groups.append(_DIGITS[whole - higher * 10000 + (higher == 0) * whole.dtype.type(offset)])
            if not higher.any():
                break
            whole, offset = higher, 10000
        slots += reversed(groups)
        if frac is not None:
            high = frac // 10000
            slots += [_FRACTION_HIGH[high], _DIGITS[frac - high * 10000]]
    slots.append(ord("\n"))  # one byte of the slot, the other three NUL
    out = np.empty((len(slots), len(columns[0])), dtype=np.uint32)
    for i, slot in enumerate(slots):
        out[i] = slot
    del slots  # before the two byte copies: the peak is three matrix-sized buffers
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


def distinct_texts(values, fmt) -> np.ndarray:
    """Each element's `fmt(element)` as an object array of `values`'s shape.

    `fmt` gets the Python scalar (`tolist`) of each distinct bit pattern's
    first element, once per pattern, so `-0.0` never shares the text of
    `0.0` and each NaN keeps its own.
    """
    a = np.asarray(values)
    bits = np.ascontiguousarray(a).view(f"u{a.itemsize}").ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    texts = np.array([fmt(v) for v in a.ravel()[first].tolist()], dtype=object)
    return texts[inverse].reshape(a.shape)
