# Coefficient and scalar fields on a mesh, their face gradients, and the
# norms used by the stability estimates: L2, the H1_0 seminorm and the
# weighted L2 functional.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, InputError

__all__ = [
    "CoefficientField", "ScalarField",
    "FieldArgumentError", "FieldInvariantError", "checked_values", "same_mesh",
    "face_gradient", "corner_average", "grid_l2", "norm_h10",
    "coefficient_h1_seminorm", "weighted_l2_sq",
    "write_csv", "write_field_csv", "read_field_csv",
]


class FieldArgumentError(InputError):
    """Field arguments inconsistent with the mesh or each other."""


class FieldInvariantError(InputError):
    """A field value violates its declared invariant."""


def checked_values(field, shape: tuple) -> np.ndarray:
    """field.values as float64 (stored back), checked for shape and finiteness."""
    values = np.asarray(field.values, dtype=float)
    if values.shape != shape:
        raise FieldArgumentError(
            f"{type(field).__name__} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        raise FieldArgumentError(f"{type(field).__name__} has non-finite values")
    object.__setattr__(field, "values", values)
    return values


def same_mesh(*args) -> Mesh:
    """The one mesh that all args (fields, right sides, partitions) live on."""
    mesh = args[0].mesh
    if any(x.mesh != mesh for x in args):
        raise FieldArgumentError("meshes differ: " + ", ".join(
            f"{type(x).__name__} on {x.mesh}" for x in args))
    return mesh


@dataclass(frozen=True)
class CoefficientField:
    """Cell-centered diffusion coefficient with class bounds lam <= a <= Lam.

    Construction rejects out-of-range values rather than clamping them.
    """

    mesh: Mesh
    values: np.ndarray
    lam: float
    Lam: float

    def __post_init__(self):
        values = checked_values(self, self.mesh.cell_shape)
        self.check_class(self.lam, self.Lam)
        if values.min() < self.lam or values.max() > self.Lam:
            raise FieldInvariantError(
                f"coefficient range [{values.min()}, {values.max()}] leaves "
                f"[{self.lam}, {self.Lam}]")

    @staticmethod
    def check_class(lam: float, Lam: float) -> None:
        if not (0 < lam < Lam):
            raise FieldInvariantError(f"need 0 < lam < Lam, got ({lam}, {Lam})")

    @staticmethod
    def constant(mesh: Mesh, value: float, lam: float, Lam: float) -> "CoefficientField":
        return CoefficientField(mesh, np.full(mesh.cell_shape, float(value)), lam, Lam)


@dataclass(frozen=True)
class ScalarField:
    """Solution-type field on interior nodes; zero trace on the boundary
    is implied and never stored."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        checked_values(self, self.mesh.node_shape)

    def padded(self) -> np.ndarray:
        """Nodal values including the zero boundary ring, shape (N+1,)^d."""
        n = self.mesh.n
        full = np.zeros((n + 1,) * self.mesh.dim)
        full[(slice(1, n),) * self.mesh.dim] = self.values
        return full


def face_gradient(u: ScalarField, k: int) -> np.ndarray:
    """Component k of grad u, on the faces across axis k, built from u.values
    with no padded copy: bit for bit np.diff(u.padded(), axis=k) / h, signed
    zeros included."""
    dim, n = u.mesh.dim, u.mesh.n
    g = np.zeros(tuple(n if ax == k else n + 1 for ax in range(dim)))
    # the face lines on the boundary across the other axes stay zero
    inner = g[tuple(slice(None) if ax == k else slice(1, n) for ax in range(dim))]

    def along(s):
        return (slice(None),) * k + (s,)

    v = u.values
    inner[along(slice(0, 1))] = v[along(slice(0, 1))]
    np.subtract(v[along(slice(1, None))], v[along(slice(None, -1))],
                out=inner[along(slice(1, n - 1))])
    # 0 - v rather than -v, as np.diff takes it: +0.0 where v is +0.0
    np.subtract(0.0, v[along(slice(n - 2, None))], out=inner[along(slice(n - 1, None))])
    g /= u.mesh.h
    return g


def corner_average(values: np.ndarray, axes=None) -> np.ndarray:
    """Mean of the 2^k corners of every unit cell spanned by `axes` (all
    axes by default); each of those axes loses one entry. Cell values give
    node values this way and padded node values give cell values. The
    corners are summed with the first axis varying fastest, which fixes
    the rounding of every artifact built on them.
    """
    axes = range(values.ndim) if axes is None else axes
    corners = [values]
    for k in axes:
        head = (slice(None),) * k
        corners = ([c[head + (slice(None, -1),)] for c in corners]
                   + [c[head + (slice(1, None),)] for c in corners])
    return 0.5 ** len(axes) * functools.reduce(np.add, corners)


def grid_l2(mesh: Mesh, values: np.ndarray) -> float:
    """sqrt(h^d * sum(values^2)), the grid L2 norm of any cell/node array."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(mesh.h ** mesh.dim * np.sum(v * v)))


def norm_h10(u: ScalarField) -> float:
    """Discrete H1_0 seminorm ||grad u||_{L2}, faces weighted h^d.

    One gradient component at a time, squared in place: the same bits as
    the squared np.diff of u.padded() along each axis, with one face array
    alive.
    """
    total = 0.0
    for k in range(u.mesh.dim):
        g = face_gradient(u, k)
        total += float(np.sum(np.multiply(g, g, out=g)))
        del g  # before the next component is built
    return float(np.sqrt(u.mesh.h ** u.mesh.dim * total))


def coefficient_h1_seminorm(a) -> float:
    """Discrete ||grad a||_{L2} of a cell field via adjacent-cell differences:
    sqrt(h^d * sum of the squared divided differences along every axis)."""
    mesh, total = a.mesh, 0.0
    for k in range(mesh.dim):
        g = np.diff(a.values, axis=k) / mesh.h
        total += float(np.sum(g * g))
    return float(np.sqrt(mesh.h ** mesh.dim * total))


def weighted_l2_sq(mesh: Mesh, ratio_sq: np.ndarray, w: np.ndarray) -> float:
    """h^d * sum(ratio_sq * w), the weighted L2 functional with weight w >= 0."""
    ratio_sq = np.asarray(ratio_sq, dtype=float)
    w = np.asarray(w, dtype=float)
    if ratio_sq.shape != mesh.cell_shape or w.shape != mesh.cell_shape:
        raise FieldArgumentError("weighted_l2_sq inputs must be cellwise")
    if w.min() < 0:
        raise FieldInvariantError(f"weight has negative entry {w.min()}")
    return float(mesh.h ** mesh.dim * np.sum(ratio_sq * w))


# ---------------------------------------------------------------------------
# CSV text. Each column of a chunk of rows becomes a uint8 matrix with one
# line of text per row, NUL wherever a position holds no character; the
# matrices are joined with "," and "\n" columns and the NULs deleted.
# Floats are written as "%.17g" writes them (17 significant digits, which
# read back to the same float64), integers and booleans as integers,
# strings as they are.

# rows per write: the temporaries of one chunk take ~3 MiB, under the
# working set of the solves whose fields are written
_CSV_CHUNK_ROWS = 8192
_U8, _U64 = np.uint8, np.uint64


def _group_table() -> np.ndarray:
    """The text of every k < 10**4 as four ASCII bytes in one uint32:
    entry k without leading zeros (all NUL for 0), entry 10**4 + k with
    them, and entry 2 * 10**4 is "0"."""
    digit = np.frombuffer(b"0123456789", _U8)
    full = np.empty((10, 10, 10, 10, 4), _U8)  # full[a, b, c, d] = "abcd"
    for j in range(4):
        full[..., j] = digit.reshape((10,) + (1,) * (3 - j))
    full = full.reshape(10 ** 4, 4)
    bare = full.copy()
    for j in range(4):
        bare[:10 ** (3 - j), j] = 0
    zero = np.array([[0, 0, 0, ord("0")]], _U8)
    return np.concatenate([bare, full, zero]).view(np.uint32).ravel()


_GROUPS = _group_table()


def _int_text(v) -> np.ndarray:
    """%d of int64 or uint64 values: a sign, then groups of four digits."""
    negative = v < 0
    mag = v.astype(_U64)
    mag[negative] = 0 - mag[negative]  # modulo 2**64, so right for -2**63 too
    n_groups = (len(str(int(mag.max(initial=0)))) + 3) // 4
    text = np.empty((len(v), n_groups + 1), np.uint32)
    text[:, 0] = negative * ord("-")
    for j in range(n_groups):  # j counts groups from the last digit
        idx = mag // 10 ** (4 * j) % 10 ** 4
        if j + 1 < n_groups:  # below the leading group, zeros are digits
            idx += (mag >= 10 ** (4 * j + 4)) * _U64(10 ** 4)
        text[:, n_groups - j] = _GROUPS[idx]
    text[mag == 0, -1] = _GROUPS[2 * 10 ** 4]
    return text.view(_U8)


def _python_float_text(values) -> list:
    """%.17g of each value in turn, for the floats the exact integer path
    leaves out: zeros, subnormals, NaN, infinities, |x| <= 1e-11, |x| >= 1e16."""
    return [("%.17g" % v).encode() for v in values.tolist()]


_POW5 = np.array([5 ** k for k in range(28)], dtype=_U64)  # 5**27 < 2**63
_LOW32, _ONE = _U64(2 ** 32 - 1), _U64(1)


def _scaled_round(m, e, k):
    """round(m * 2**e * 10**k), ties to even, in exact integer arithmetic,
    for uint64 m < 2**53, int64 e and k in [0, 27] with a result < 2**60."""
    p = _POW5[k]
    m0, m1, p0, p1 = m & _LOW32, m >> 32, p & _LOW32, p >> 32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0
    lo = low + (mid << 32)
    hi = m1 * p1 + (mid >> 32) + (lo < low)  # m * 5**k = hi * 2**64 + lo
    # shift by e + k: right by r = -(e + k) bits when that is positive
    r = np.maximum(-(e + k), 0).astype(_U64)
    q = (lo >> r) | ((hi << 1) << (63 - r))
    rem2, unit = (lo & ((_ONE << r) - _ONE)) << 1, _ONE << r  # 2 * remainder, 2**r
    q += (rem2 > unit) | ((rem2 == unit) & (q & _ONE == _ONE))
    return q << np.maximum(e + k, 0).astype(_U64)


def _float_layout(E: int, n_sig: int):
    """Where %.17g puts the characters of a value with decimal exponent E
    in [-11, 15] and n_sig significant digits, as (keep, chars), 44 bytes
    each: the sign, "0.000", digit i at 6 + 2i with a slot for the point
    after it, and "e-dd". keep is 1 where the digit laid out at a position
    shows, chars holds the characters other than sign and digits."""
    fixed = E >= -4  # fixed notation for -4 <= E < 17, else d.ddde-dd
    point = E if fixed else 0  # the digit the point follows
    shown = max(n_sig, point + 1)  # trailing zeros are dropped
    keep = bytes(6) + b"\1\0" * shown + bytes(38 - 2 * shown)
    prefix = b"0.000"[:1 - E] if fixed and E < 0 else b""
    # a point with no digit after it is dropped too
    body = bytes(1 + 2 * point) + b"." if 0 <= point < n_sig - 1 else b""
    suffix = b"" if fixed else b"e-%02d" % -E
    chars = bytes(1) + prefix.ljust(5, b"\0") + body.ljust(34, b"\0") + suffix
    return keep, chars.ljust(44, b"\0")


# one layout per class (E, n_sig), class (E + 11) * 17 + n_sig - 1
_KEEP, _CHARS = (np.frombuffer(b"".join(rows), _U8).reshape(-1, 44) for rows in zip(
    *(_float_layout(E, n_sig) for E in range(-11, 16) for n_sig in range(1, 18))))


def _float_text(x) -> np.ndarray:
    """%.17g of floats, one 44-byte row each."""
    x = x.astype(np.float64)
    ax = np.abs(x)
    exact = (ax > 1e-11) & (ax < 1e16)
    bits = np.where(exact, ax, 1.0).view(_U64)
    m = (bits & _U64(2 ** 52 - 1)) | _U64(2 ** 52)
    b = (bits >> 52).astype(np.int64) - 1023  # |x| = m * 2**(b - 52)
    e = b - 52
    # decimal exponent E from floor(b log10 2), one low at most; the 17
    # digits are q = round(|x| * 10**(16 - E)), with 10**16 <= q < 10**17
    k = np.minimum(16 - ((b * 78913) >> 18), 27)
    q = _scaled_round(m, e, k)
    high = np.flatnonzero(q >= 10 ** 17)
    k[high] -= 1
    q[high] = _scaled_round(m[high], e[high], k[high])
    E = 16 - k

    groups = np.empty((len(x), 5), np.uint32)
    lead = q // 10 ** 16
    groups[:, 0] = _GROUPS[lead]
    rest = q - lead * 10 ** 16
    for j, p in enumerate((12, 8, 4, 0), 1):
        groups[:, j] = _GROUPS[rest // 10 ** p % 10 ** 4 + 10 ** 4]
    digits = groups.view(_U8)[:, 3:]
    n_sig = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    layout = (E + 11) * 17 + n_sig - 1
    text = np.zeros((len(x), 44), _U8)
    text[:, 6:40:2] = digits
    text *= _KEEP[layout]
    text += _CHARS[layout]
    text[:, 0] = np.signbit(x) * ord("-")
    others = np.flatnonzero(~exact)
    if others.size:
        text[others] = np.array(_python_float_text(x[others]), "S44").view(
            _U8).reshape(-1, 44)
    return text


def _str_text(values) -> np.ndarray:
    """str of each value, UTF-8 encoded, NUL-padded to the longest."""
    text = np.array([str(v).encode() for v in values.tolist()], dtype=bytes)
    return text.view(_U8).reshape(len(values), -1)


_CSV_TEXT = {"f": _float_text, "U": _str_text, "O": _str_text,
             "i": lambda c: _int_text(c.astype(np.int64)),
             "b": lambda c: _int_text(c.astype(np.int64)),
             "u": lambda c: _int_text(c.astype(_U64))}


def write_csv(path, header: str, columns) -> None:
    """Write a CSV artifact: `header`, then line k from entry k of each column."""
    columns = [np.asarray(c) for c in columns]
    texts = [_CSV_TEXT[c.dtype.kind] for c in columns]
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            parts = [text(c[start:start + _CSV_CHUNK_ROWS])
                     for text, c in zip(texts, columns)]
            sep = np.full((len(parts[0]), 1), ord(","), _U8)
            end = np.full((len(parts[0]), 1), ord("\n"), _U8)
            rows = np.concatenate([p for part in parts for p in (part, sep)][:-1]
                                  + [end], axis=1)
            f.write(rows.tobytes().translate(None, b"\0"))


# Field CSV format: header `index,value` (dim 1) or `i,j,value` (dim 2),
# row-major. Cell arrays use 0-based cell indices; node arrays use the
# interior lattice indices 1..N-1 (position = index * h).

_FIELD_HEADERS = {1: "index,value", 2: "i,j,value"}
# rows per scatter into the read field: numpy casts narrow index columns to
# intp in buffers of up to np.getbufsize() entries each, 128 KiB for a 2D
# field in one scatter and 32 KiB in scatters of this many rows
_SCATTER_ROWS = 2048


def _index_range(mesh: Mesh, location: str):
    if location == "cells":
        return 0, mesh.n, mesh.cell_shape
    if location == "nodes":
        return 1, mesh.n, mesh.node_shape
    raise FieldArgumentError(f"location must be 'cells' or 'nodes', got {location!r}")


def write_field_csv(path, mesh: Mesh, values: np.ndarray, location: str = "cells"):
    lo, _, shape = _index_range(mesh, location)
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise FieldArgumentError(f"array shape {values.shape} != {shape}")
    # int32, offset in place: the index columns are the writer's largest temporary
    index = np.indices(shape, dtype=np.int32).reshape(mesh.dim, -1)
    index += lo
    write_csv(path, _FIELD_HEADERS[mesh.dim], [*index, values.ravel()])


def _load_field_rows(path, dim: int, index_type, has_rows: bool) -> np.ndarray:
    """The rows of a field CSV as a table of columns i0.. and value; an empty
    table for a body without rows, on which np.loadtxt warns."""
    row_type = [(f"i{k}", index_type) for k in range(dim)] + [("value", np.float64)]
    if not has_rows:
        return np.empty(0, row_type)
    return np.loadtxt(path, dtype=row_type, delimiter=",", comments=None,
                      skiprows=1, ndmin=1)


def _placed_rows(rows, lo: int, hi: int, shape) -> np.ndarray:
    """The field that rows give, else a FieldArgumentError naming their first
    fault. min and max check the columns and the values, and the rows go
    straight into out, the only full-size array made, one scatter at a time;
    a NaN left in out marks a position no row reached, so another came twice."""
    cols = [rows[f"i{k}"] for k in range(len(shape))]
    values = rows["value"]
    if (len(values) == math.prod(shape)
            and all(lo <= c.min() and c.max() < hi for c in cols)
            and np.isfinite(values.min()) and np.isfinite(values.max())):
        out = np.full(shape, np.nan)
        for start in range(0, len(values), _SCATTER_ROWS):
            part = slice(start, start + _SCATTER_ROWS)
            out[tuple(c[part] - lo for c in cols)] = values[part]
        if not np.isnan(out.min()):
            return out
    # a faulty table: name its first fault, in the order of the checks below
    idx = np.stack(cols)
    bad = np.flatnonzero(np.any((idx < lo) | (idx >= hi), axis=0))
    if bad.size:
        raise FieldArgumentError(
            f"index {tuple(idx[:, bad[0]].tolist())} out of range [{lo},{hi}) "
            f"for declared mesh")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldArgumentError(
            f"non-finite value {values[bad[0]]} at index "
            f"{tuple(idx[:, bad[0]].tolist())} in field CSV")
    flat = np.ravel_multi_index(tuple(idx - lo), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    if counts.max(initial=0) > 1:
        twice = np.unravel_index(np.argmax(counts), shape)
        raise FieldArgumentError(
            f"duplicate field CSV rows for index "
            f"{tuple(int(k) + lo for k in twice)}")
    raise FieldArgumentError(
        f"field CSV row count {len(values)} does not cover declared mesh "
        f"shape {shape}")


def read_field_csv(path, mesh: Mesh, location: str = "cells") -> np.ndarray:
    """Read a field CSV written by write_field_csv; rows may come in any
    order and blank lines are skipped, but every position of the declared
    mesh must appear exactly once with a finite value."""
    lo, hi, shape = _index_range(mesh, location)
    expected_header = _FIELD_HEADERS[mesh.dim]
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != expected_header:
                raise FieldArgumentError(
                    f"bad field CSV header {header!r}, expected {expected_header!r}")
            has_rows = any(line.strip() for line in f)
    except UnicodeDecodeError as exc:
        raise FieldArgumentError(
            f"field CSV {path} is not UTF-8 text: {exc}") from None
    # the indices are parsed as the narrowest type that holds -hi (int16 for
    # any 2D mesh under MAX_CELLS), a table of 10-12 bytes a row instead of
    # 24; an index beyond that type raises ValueError rather than wrapping,
    # and only then is the body parsed again, as int64, to tell an index out
    # of range from a malformed body
    try:
        rows = _load_field_rows(path, mesh.dim, np.min_scalar_type(-hi), has_rows)
    except ValueError:
        try:
            rows = _load_field_rows(path, mesh.dim, np.int64, has_rows)
        except ValueError as exc:
            raise FieldArgumentError(f"malformed field CSV body: {exc}") from None
    return _placed_rows(rows, lo, hi, shape)
