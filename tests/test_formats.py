import json

import numpy as np
import pytest

from spsys import formats, linalg, subproduct
from spsys.cpmaps import KrausChannel
from spsys.ncpoly import IdealGens, NCPoly
from spsys.reps import RepTuple
from spsys.subproduct import SubshiftSpec

from oracles import subspace_distance


def test_complex_and_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.allclose(formats.decode_matrix(formats.encode_matrix(m)), m)
    z = 1.5 - 2.5j
    assert formats.decode_complex(formats.encode_complex(z)) == z
    assert formats.decode_complex(3) == 3.0 + 0j  # bare reals allowed


def _bits(m) -> np.ndarray:
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def test_matrix_codec_is_bit_exact_through_the_file(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m[0, :3] = [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e308, -1e308)]
    m[1, 0] = complex(0.0, -0.0)
    enc = formats.encode_matrix(m.T)  # a non-contiguous view is encoded row-major too
    # the same Python floats, entry by entry, as `encode_complex` gives
    assert repr(enc["data"]) == repr([formats.encode_complex(z) for z in m.T.ravel()])
    formats.dump_json(enc, tmp_path / "m.json")
    back = formats.decode_matrix(formats.load_json(tmp_path / "m.json"))
    assert np.array_equal(_bits(back), _bits(m.T))


def test_matrix_decode_takes_bare_reals_and_mixed_lists():
    bare = formats.decode_matrix({"rows": 1, "cols": 3, "data": [1, -0.0, 5e-324]})
    assert np.array_equal(_bits(bare), _bits([[complex(1), complex(-0.0), complex(5e-324)]]))
    mixed = formats.decode_matrix(
        {"rows": 2, "cols": 2, "data": [2, [0, -1e308], -0.0, [1, 0.5]]})
    expected = [complex(2), complex(0, -1e308), complex(-0.0), complex(1, 0.5)]
    assert np.array_equal(_bits(mixed), _bits(np.reshape(expected, (2, 2))))
    # not numbers (JSON true is not 1), or not pairs
    for data in ([["1", 0]], [[None, 0]], [[1, 2, 3]], [True], [[True, 0]]):
        with pytest.raises((TypeError, ValueError)):
            formats.decode_matrix({"rows": 1, "cols": 1, "data": data})


@pytest.mark.parametrize("data", [[[0.5, 0], [True, 0]], [[0.5, False], [1, 0]],
                                  [0.5, True], [False, 0.25]],
                         ids=["pair-re", "pair-im", "bare", "bare-first"])
def test_matrix_decode_refuses_a_boolean_among_floats(data):
    # numpy alone would read true as 1.0 and false as 0.0
    with pytest.raises(ValueError, match="matrix data must hold numbers, not a boolean"):
        formats.decode_matrix({"rows": 1, "cols": 2, "data": data})


def test_matrix_data_length_checked():
    with pytest.raises(ValueError, match="matrix data length 1 != 2x2"):
        formats.decode_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_poly_round_trip_and_term_order():
    p = NCPoly(2, {(2, 1): -1.0, (1, 2): 1.0, (1,): 0.5j})
    enc = formats.encode_poly(p)
    assert [t["word"] for t in enc] == [[1], [1, 2], [2, 1]]
    back = formats.decode_poly(enc, 2)
    assert (p - back).is_zero()


def test_subspace_round_trip():
    rng = np.random.default_rng(1)
    s = linalg.span(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    back = formats.decode_subspace(formats.encode_matrix(s.frame), 6)
    assert subspace_distance(s, back) < 1e-12
    with pytest.raises(ValueError):
        formats.decode_subspace(formats.encode_matrix(s.frame), 5)


# each kind against its constructor, called directly on the same data
DIRECT = {
    "subshift": lambda: subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 5),
    "qmatrix": lambda: subproduct.from_qmatrix(np.array([[1, 2], [0.5, 1]]), 4),
    "quadratic": lambda: subproduct.from_quadratic(np.array([[0, 1], [-1, 0]]), 4),
    "full": lambda: subproduct.from_full(2, 4),
}


@pytest.mark.parametrize("spec", [
    {"kind": "subshift", "d": 2, "depth": 5, "forbidden": [[2, 2]]},
    {"kind": "qmatrix", "d": 2, "depth": 4,
     "q": {"rows": 2, "cols": 2,
           "data": [[1, 0], [2, 0], [0.5, 0], [1, 0]]}},
    {"kind": "quadratic", "d": 2, "depth": 4,
     "A": {"rows": 2, "cols": 2,
           "data": [[0, 0], [1, 0], [-1, 0], [0, 0]]}},
    {"kind": "full", "d": 2, "depth": 4},
])
def test_system_spec_round_trip(spec):
    sys1 = formats.build_system(spec)
    sys2 = DIRECT[spec["kind"]]()
    assert sys1.kind == sys2.kind == spec["kind"]
    assert sys1.dims() == sys2.dims()
    for n in range(sys1.depth + 1):
        assert subspace_distance(sys1.fiber(n), sys2.fiber(n)) < 1e-9


def test_ideal_spec_round_trip():
    p = NCPoly(2, {(1, 2): 1.0, (2, 1): -1.0})
    spec = {"kind": "ideal", "d": 2, "depth": 5,
            "generators": [formats.encode_poly(p)]}
    sys1 = formats.build_system(spec)
    assert sys1.dims() == [1, 2, 3, 4, 5, 6]
    sys2 = subproduct.from_ideal(IdealGens(2, [p]), 5)
    assert sys1.dims() == sys2.dims()
    for n in range(sys1.depth + 1):
        assert subspace_distance(sys1.fiber(n), sys2.fiber(n)) < 1e-9


def test_fibers_spec_builds_maximal_system():
    base = formats.build_system(
        {"kind": "subshift", "d": 2, "depth": 4, "forbidden": [[2, 2]]})
    spec = {"kind": "fibers", "d": 2, "depth": 4,
            "fibers": [formats.encode_matrix(base.fiber(n).frame)
                       for n in range(1, 3)]}
    sys_ = formats.build_system(spec)
    assert sys_.dims() == base.dims()


def test_depth_override_and_missing_depth():
    spec = {"kind": "full", "d": 2, "depth": 6}
    assert formats.build_system(spec, depth=3).depth == 3
    with pytest.raises(ValueError):
        formats.build_system({"kind": "full", "d": 2})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        formats.build_system({"kind": "mystery", "d": 2, "depth": 3})


def test_rep_round_trip_and_consistency_checks():
    rng = np.random.default_rng(2)
    mats = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                 for _ in range(2))
    rep = RepTuple(mats)
    obj = formats.encode_rep(rep)
    back = formats.decode_rep(obj)
    assert all(np.allclose(a, b) for a, b in zip(rep.matrices, back.matrices))
    obj_bad = dict(obj, d=3)
    with pytest.raises(ValueError):
        formats.decode_rep(obj_bad)


def test_kraus_round_trip():
    rng = np.random.default_rng(3)
    ks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(3))
    obj = formats.encode_kraus(KrausChannel(ks))
    back = formats.decode_kraus(obj)
    assert len(back) == 3
    assert all(np.allclose(a, b) for a, b in zip(ks, back))
    with pytest.raises(ValueError):
        formats.decode_kraus({"h": 2, "kraus": []})


def test_load_stochastic_csv_and_json(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text("0.5,0.5\n0.25,0.75\n")
    m = formats.load_stochastic(csv)
    assert m.shape == (2, 2)
    assert m[1, 1] == 0.75
    js = tmp_path / "m.json"
    formats.dump_json(formats.encode_matrix(m), js)
    m2 = formats.load_stochastic(js)
    assert np.allclose(m, m2)
    bad = tmp_path / "bad.json"
    formats.dump_json(formats.encode_matrix(1j * m), bad)
    with pytest.raises(ValueError):
        formats.load_stochastic(bad)


def test_dump_json_is_sorted_and_stable(tmp_path):
    obj = {"b": 2, "a": 1, "m": formats.encode_matrix(np.array([[0.1 - 2j, -0.0]])),
           "s": "x y"}
    t1 = formats.dump_json(obj, tmp_path / "o.json")
    t2 = formats.dump_json(dict(reversed(list(obj.items()))))
    assert t1 == t2
    assert t1 == ('{"a":1,"b":2,"m":{"cols":2,"data":[[0.1,-2.0],[-0.0,0.0]],"rows":1},'
                  '"s":"x y"}')
    assert (tmp_path / "o.json").read_text() == t1 + "\n"
    # the same value as the indented layout the files had before
    assert json.loads(t1) == json.loads(json.dumps(obj, sort_keys=True, indent=2))
    with pytest.raises(ValueError):
        formats.dump_json({"x": float("nan")})
