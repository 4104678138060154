"""JSON exchange formats for matrices, polynomials, systems, and tuples.

Complex scalars travel as [re, im] pairs; a bare real is read as re. Matrices
are row-major:

    {"rows": 2, "cols": 2, "data": [[1,0],[0,0],[0,0],[1,0]]}

A polynomial is a list of terms {"coeff": [re, im], "word": [i1, ..., ik]};
the empty word is []. A system description picks a construction and carries
its payload (the "depth" field is a default, overridable at build time):

    {"d": 2, "depth": 6, "kind": "subshift", "forbidden": [[2,2]]}
    {"d": 2, "depth": 6, "kind": "ideal", "generators": [[...terms...]]}
    {"d": 3, "depth": 6, "kind": "qmatrix", "q": {...matrix...}}
    {"d": 2, "depth": 6, "kind": "quadratic", "A": {...matrix...}}
    {"d": 2, "depth": 6, "kind": "fibers", "fibers": [{...matrix...}, ...]}
    {"d": 2, "depth": 6, "kind": "full"}

An operator tuple is {"d": 2, "h": 3, "matrices": [{...}, {...}]}; a Kraus
channel is {"h": 3, "kraus": [{...}, ...]}.

Files written with `dump_json` (every `--out` file) are compact canonical
JSON: sorted keys, no whitespace, every float written as Python's shortest
repr, so it reads back bit for bit. The CLI's stdout reports keep their
indented layout.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from spsys import linalg, subproduct
from spsys.linalg import check_budget
from spsys.ncpoly import IdealGens, NCPoly
from spsys.subproduct import SubproductSystem, SubshiftSpec
from spsys.reps import RepTuple


# The decoders refuse a value of the wrong JSON type with a ValueError that
# names the field, the way every other input error is refused.
def _json_type(value) -> str:
    names = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
             list: "a list", dict: "an object", type(None): "null"}
    return names.get(type(value), f"a {type(value).__name__}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {_json_type(value)}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {_json_type(value)}")
    return value


def _number(value) -> bool:
    """A JSON number: a bool is an int in Python, but true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    # a boolean, a fraction, infinity or NaN too
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        shown = value if isinstance(value, float) else _json_type(value)
        raise ValueError(f"{what} must be an integer, not {shown}")
    return int(value)


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(pair) -> complex:
    if _number(pair):
        parts = [pair]
    elif isinstance(pair, list) and len(pair) == 2 and all(map(_number, pair)):
        parts = pair
    else:
        raise ValueError(f"a complex scalar must be a number or [re, im], not {pair!r:.40}")
    try:
        return complex(*parts)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"a complex scalar must fit a float, not {pair!r:.40}") from None


def encode_matrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(m, dtype=complex)))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.view(float).reshape(-1, 2).tolist(),
    }


def decode_matrix(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f'a matrix must be an object {{"rows", "cols", "data"}}, '
                         f"not {_json_type(obj)}")
    rows, cols = _integer(obj["rows"], "matrix rows"), _integer(obj["cols"], "matrix cols")
    data = _list(obj["data"], "matrix data")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != {rows}x{cols}")
    try:
        values = np.asarray(data)
    except ValueError:  # bare reals mixed with [re, im] pairs
        values = None
    # numbers go through whole after one pass over their entry types (numpy
    # reads a JSON true among numbers as a number); other data is read entry by
    # entry, one complex at a time: no list of them is held
    if values is None or values.dtype.kind not in "fiu" or values.shape[1:] not in ((), (2,)):
        values = np.fromiter(map(decode_complex, data), dtype=complex, count=len(data))
    elif bool in set(map(type, chain.from_iterable(data) if values.ndim == 2 else data)):
        raise ValueError("matrix data must hold numbers, not a boolean")
    elif values.ndim == 2:
        values = np.ascontiguousarray(values, dtype=float).view(complex)
    return values.astype(complex, copy=False).reshape(rows, cols)


# `encoding_bytes` per entry: the [re, im] list, its slot and its two floats
# (128 bytes), and the text, at most 52 characters an entry, held twice (the
# encoder's chunks and their join, or the text and the file buffer). The
# encoder (CPython 3.10/3.11) also keeps its first 100000 chunks, about 17000
# entries, as separate strings of up to 144 bytes an entry.
_ENTRY_BYTES = 128 + 2 * 52
_CHUNK_ENTRY_BYTES = 144
_CHUNK_ENTRIES = 17000


def encoding_bytes(entries: list[int]) -> int:
    """Bytes that encoding matrices of these entry counts and writing them as
    one `dump_json` file needs on top of the arrays, with a contiguous copy of
    the largest matrix and headers."""
    n = sum(entries)
    return (_ENTRY_BYTES * n + _CHUNK_ENTRY_BYTES * min(n, _CHUNK_ENTRIES)
            + 16 * max(entries, default=0) + 4096)


def encode_poly(p: NCPoly) -> list[dict]:
    return [
        {"coeff": encode_complex(c), "word": list(w)}
        for w, c in sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def decode_poly(term_list: list, d: int) -> NCPoly:
    terms: dict[tuple[int, ...], complex] = {}
    for t in _list(term_list, "a polynomial"):
        t = _object(t, "a polynomial term")
        w = tuple(_integer(x, "a letter") for x in _list(t["word"], "a word"))
        terms[w] = terms.get(w, 0.0) + decode_complex(t["coeff"])
    return NCPoly(d, terms)


def decode_subspace(obj: dict, ambient_dim: int | None = None) -> linalg.Subspace:
    """The span of a matrix's columns, real when every imaginary part read is 0."""
    frame = decode_matrix(obj)
    if ambient_dim is not None and frame.shape[0] != ambient_dim:
        raise ValueError(
            f"fiber frame has ambient dimension {frame.shape[0]}, expected {ambient_dim}"
        )
    if not frame.imag.any():
        frame = frame.real
    return linalg.span(frame, ambient_dim=frame.shape[0])


def encode_fibers(system: SubproductSystem) -> list[dict]:
    """The frames of X(1..depth), encoded.

    One estimate is checked against the budget first: the frames not built
    yet and `encoding_bytes` of all of them, so that writing the result with
    `dump_json` fits too.
    """
    levels = range(1, system.depth + 1)
    entries = [system.d**n * system.dim(n) for n in levels]
    check_budget(linalg.unbuilt_frame_bytes(system.fibers) + encoding_bytes(entries),
                 "fiber frames and their JSON encoding")
    return [encode_matrix(system.fiber(n).frame) for n in levels]


def build_system(obj: dict, depth: int | None = None) -> SubproductSystem:
    """Materialize a system description to the requested depth."""
    kind = _object(obj, "a system spec").get("kind")
    if depth is None:
        if "depth" not in obj:
            raise ValueError("no depth: pass one or put a 'depth' field in the spec")
        depth = _integer(obj["depth"], "depth")
    key = {"subshift": "forbidden", "ideal": "generators", "fibers": "fibers"}.get(kind)
    if key is not None and not isinstance(obj.get(key), list):
        raise ValueError(f"{kind} spec: {key!r} must be a list")
    d = _integer(obj["d"], "d") if kind in ("subshift", "ideal", "full", "fibers") else None
    if kind == "subshift":
        forbidden = [tuple(_integer(x, "a letter") for x in _list(w, "a forbidden word"))
                     for w in obj["forbidden"]]
        return subproduct.from_subshift(SubshiftSpec(d, tuple(forbidden)), depth)
    if kind == "ideal":
        polys = [decode_poly(t, d) for t in obj["generators"]]
        return subproduct.from_ideal(IdealGens(d, polys), depth)
    if kind == "qmatrix":
        return subproduct.from_qmatrix(decode_matrix(obj["q"]), depth)
    if kind == "quadratic":
        key = "A" if "A" in obj else "a"
        return subproduct.from_quadratic(decode_matrix(obj[key]), depth)
    if kind == "full":
        return subproduct.from_full(d, depth)
    if kind == "fibers":
        fibers = [decode_subspace(f, d ** (n + 1))
                  for n, f in enumerate(obj["fibers"])]
        return subproduct.maximal_with_fibers(d, fibers, depth)
    raise ValueError(f"unknown system kind {kind!r}")


def encode_rep(rep: RepTuple) -> dict:
    return {"d": rep.d, "h": rep.h,
            "matrices": [encode_matrix(m) for m in rep.matrices]}


def decode_rep(obj: dict) -> RepTuple:
    mats = [decode_matrix(m) for m in _list(_object(obj, "a tuple")["matrices"], "matrices")]
    rep = RepTuple(tuple(mats))
    if "d" in obj and rep.d != _integer(obj["d"], "d"):
        raise ValueError("tuple length does not match declared d")
    if "h" in obj and rep.h != _integer(obj["h"], "h"):
        raise ValueError("matrix size does not match declared h")
    return rep


def encode_kraus(kraus) -> dict:
    ops = getattr(kraus, "kraus", kraus)
    mats = [np.asarray(k, dtype=complex) for k in ops]
    return {"h": int(mats[0].shape[0]), "kraus": [encode_matrix(k) for k in mats]}


def decode_kraus(obj: dict) -> tuple[np.ndarray, ...]:
    mats = tuple(decode_matrix(m) for m in _list(_object(obj, "a channel")["kraus"], "kraus"))
    if not mats:
        raise ValueError("channel needs at least one Kraus operator")
    h = _integer(obj.get("h", mats[0].shape[0]), "h")
    for m in mats:
        if m.shape != (h, h):
            raise ValueError(f"Kraus operator shape {m.shape} != ({h}, {h})")
    return mats


def load_stochastic(path: str | Path) -> np.ndarray:
    """Load a stochastic matrix from .json (matrix object) or .csv."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        m = np.loadtxt(path, delimiter=",", dtype=float)
        return np.atleast_2d(m)
    obj = json.loads(path.read_text())
    m = decode_matrix(obj)
    if np.max(np.abs(m.imag)) > 1e-14:
        raise ValueError("stochastic matrix must be real")
    return m.real


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def dump_json(obj: dict, path: str | Path | None = None) -> str:
    """Compact canonical JSON: sorted keys, no whitespace, no NaN or infinity.

    Without `indent`, `json.dumps` runs CPython's C encoder.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if path is not None:
        with open(path, "w") as f:  # two writes: `text + "\n"` would copy the text
            f.write(text)
            f.write("\n")
    return text
