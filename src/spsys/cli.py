"""Command-line front end.

Every command reads JSON inputs, writes a JSON report to stdout and a short
human summary to stderr. Exit codes: 0 all checks pass, 1 some check fails,
2 no failure but some check inconclusive, 3 input error (usage errors
included).

The `dims` command is the one exception to the JSON rule: it prints the
dimension sequence as a plain space-separated line.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import spsys
from spsys import formats, linalg
from spsys.linalg import MemoryBudgetError, check_budget

if TYPE_CHECKING:
    from spsys.reps import RepTuple

# Each command imports the modules it runs, inside its function: a fresh
# process (one command) then compiles and loads no more of the package than
# that command needs.


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the input-error code (argparse's own 2 means inconclusive here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text}")
    return value


def _power(text: str) -> int:
    if not text.isdecimal():  # a sign, a fraction or no number
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text}")
    return int(text)


def _tol(args, default: float) -> float:
    """--tol when it is given, else the check's default."""
    return default if args.tol is None else args.tol


def _digest(path: Path) -> str:
    import hashlib
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


# A JSON input is counted in chunks of this size before it is read
JSON_CHUNK_BYTES = 1 << 14


def _json_read_terms(p: Path) -> dict[str, int]:
    """What reading the JSON file `p`, parsing and decoding it hold at once, from
    its tokens: the terms of the phase that holds the most, and the file buffers.

    The phases: the file's bytes and text; the text and the objects json.loads
    makes; those objects and the arrays decoded from them. On CPython's json
    (64-bit) a list holds room for four items and the rounding of a longer one,
    a dict room for five keys, a key its string and its entry, a value a slot in
    its container with room to grow, a scalar at most a 32-byte number (an
    integer of at most 18 digits) or a string with 17 bytes more, counted per
    quote, and its characters; a decoded number takes 24 bytes with numpy's
    temporary. Values are the commas and the containers (a nonempty container
    has one more element than it has commas), scalars at most the commas and
    one. A chunk that holds a quote, or starts inside a string, counts as string
    characters; so does the whole file if it holds an escape, which hides where
    strings end. A non-ASCII byte makes every character four bytes.
    """
    size = lists = dicts = commas = colons = quotes = inside = 0
    in_string = escaped = wide = False
    with p.open("rb") as f:
        while chunk := f.read(JSON_CHUNK_BYTES):
            size += len(chunk)
            lists += chunk.count(b"[")
            dicts += chunk.count(b"{")
            commas += chunk.count(b",")
            colons += chunk.count(b":")
            quoted = chunk.count(b'"')
            quotes += quoted
            if quoted or in_string:
                inside += len(chunk)
            in_string ^= quoted % 2 == 1
            escaped = escaped or b"\\" in chunk
            wide = wide or not chunk.isascii()
    char = 4 if wide else 1
    text, scalars = char * size, commas + 1
    parsed = {"lists": 104 * lists, "dicts": 192 * dicts, "keys": 48 * colons,
              "container slots": 9 * (commas + lists + dicts), "scalars": 32 * scalars,
              "strings": 9 * quotes + char * (size if escaped else inside),
              "file text or decoded numbers": max(text, 24 * scalars)}
    phases = ({"read chunk": JSON_CHUNK_BYTES}, {"file bytes": size, "file text": text}, parsed)
    return {**max(phases, key=lambda t: sum(t.values())), "file buffers and headers": 16 << 10}


def _load_json(path: str) -> tuple[dict, Path]:
    p = Path(path)
    try:
        check_budget(_json_read_terms(p), f"reading {path}")
        text = p.read_text()
    except OSError as e:
        raise CLIError(f"{path}: {e.strerror or e}") from e
    try:
        return json.loads(text), p
    except json.JSONDecodeError as e:
        raise CLIError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return formats.encode_matrix(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, linalg.Subspace):
        return formats.encode_matrix(obj.frame)
    return obj


def check(check_id: str, window, residual: float, threshold: float,
          verdict: str | None = None) -> dict:
    if verdict is None:
        verdict = "pass" if residual <= threshold else "fail"
    return {
        "check_id": check_id,
        "window": list(window),
        "residual": float(residual),
        "threshold": float(threshold),
        "verdict": verdict,
    }


def _emit(command: str, inputs: dict[str, Path], checks: list[dict],
          extras: dict) -> int:
    report = {
        "tool": f"spsys {spsys.__version__}",
        "command": command,
        "inputs": {k: {"path": str(p), "digest": _digest(p)}
                   for k, p in inputs.items()},
        "checks": checks,
        **_jsonable(extras),
    }
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    for c in checks:
        print(f"  {c['check_id']}: {c['verdict']}"
              f" (residual {c['residual']:.3e}, threshold {c['threshold']:.3e})",
              file=sys.stderr)
    verdicts = [c["verdict"] for c in checks]
    if "fail" in verdicts:
        print(f"{command}: FAIL", file=sys.stderr)
        return 1
    if "inconclusive" in verdicts:
        print(f"{command}: INCONCLUSIVE", file=sys.stderr)
        return 2
    print(f"{command}: ok", file=sys.stderr)
    return 0


def _build_system(args):
    obj, path = _load_json(args.spec)
    try:
        system = formats.build_system(obj, args.depth)
    except KeyError as e:
        raise CLIError(f"{args.spec}: missing key {e}") from e
    return system, path


def cmd_build(args) -> int:
    from spsys import subproduct
    system, path = _build_system(args)
    ax = subproduct.verify_axioms(system, tol=_tol(args, subproduct.INCLUSION_TOL))
    checks = [check("build-axioms", (0, system.depth), ax["max_residual"], ax["tol"])]
    extras = {"d": system.d, "depth": system.depth, "kind": system.kind,
              "dims": system.dims()}
    if args.out:
        built = {
            "d": system.d,
            "depth": system.depth,
            "kind": "fibers",
            "dims": system.dims(),
            "fibers": formats.encode_fibers(system),
        }
        formats.dump_json(built, args.out)
        extras["out"] = args.out
    return _emit("build", {"spec": path}, checks, extras)


def cmd_dims(args) -> int:
    system, _ = _build_system(args)
    print(" ".join(str(n) for n in system.dims()))
    print(f"dims of {system.kind} system, d={system.d}, depth={system.depth}",
          file=sys.stderr)
    return 0


def _verify_unit_check(system, tol):
    """The unit check on the basis vectors e_1..e_d: the smallest of their worst
    residuals, passing when some e_i is a unit, and those i."""
    from spsys import subproduct
    units = [subproduct.verify_unit(system, v, tol=tol) for v in np.eye(system.d, dtype=complex)]
    confirmed = [i + 1 for i, u in enumerate(units) if u["is_unit"]]
    best = min(max(u["residuals"], default=0.0) for u in units)
    return check("unit", (0, system.depth), best, tol, "pass" if confirmed else "fail"), confirmed


def cmd_verify(args) -> int:
    from spsys import fock, subproduct
    system, path = _build_system(args)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"axioms", "defect", "subshift", "unit"}
    bad = [c for c in wanted if c not in known]
    if bad:
        raise CLIError(f"unknown checks {bad}; choose from {sorted(known)}")
    n_depth = system.depth
    checks = []
    extras = {"d": system.d, "depth": n_depth, "kind": system.kind,
              "dims": system.dims()}
    get_shifts = cache(lambda: fock.build_shifts(fock.build_fock(system)))
    if "axioms" in wanted:
        tol = _tol(args, subproduct.INCLUSION_TOL)
        ax = subproduct.verify_axioms(system, tol=tol)
        checks.append(check("axioms", (0, n_depth), ax["max_residual"], tol))
    if "defect" in wanted:
        tol = _tol(args, fock.DEFECT_TOL)
        sh = get_shifts()
        for k in (1, 2):
            if k > n_depth:
                continue
            checks.append(check(f"defect-k{k}", (0, n_depth - k),
                                fock.defect_residual(sh, k), tol))
    if "subshift" in wanted:
        if system.kind != "subshift":
            raise CLIError("the subshift check needs a system of kind subshift")
        tol = _tol(args, fock.DEFECT_TOL)
        rep = fock.subshift_relations(get_shifts(), tol=tol)
        step = rep["step"]
        residual = max(
            [rep["orthogonality"], rep["completeness_residual"]]
            + [e["support_residual"] for e in rep["per_letter"]]
        )
        verdict = "pass" if rep["ok"] else "fail"
        checks.append(check("subshift", (0, max(n_depth - step - 1, 0)),
                            residual, tol, verdict))
        extras["subshift_report"] = rep
    if "unit" in wanted:
        tol = _tol(args, subproduct.UNIT_TOL)
        c, confirmed = _verify_unit_check(system, tol)
        checks.append(c)
        extras["unit_basis_vectors"] = confirmed
    return _emit("verify", {"spec": path}, checks, extras)


def cmd_shift(args) -> int:
    from spsys import fock
    system, path = _build_system(args)
    sh = fock.build_shifts(fock.build_fock(system))
    files = fock.export_shifts(sh, args.out)
    row_norm = sh.row_norm
    # the files decode to the level maps bit for bit: the encoding is exact
    checks = [
        check("row-contraction", (0, system.depth),
              max(row_norm - 1.0, 0.0), _tol(args, fock.ROW_NORM_SLACK)),
        check("round-trip", (0, system.depth),
              fock.shift_files_residual(sh, files[:sh.d]), 0.0),
    ]
    extras = {"out": [str(f) for f in files], "dims": system.dims(),
              "total_dim": sh.fock.total_dim, "row_norm": row_norm}
    return _emit("shift", {"spec": path}, checks, extras)


def _load_rep(args) -> tuple[RepTuple, Path]:
    obj, path = _load_json(args.rep)
    try:
        return formats.decode_rep(obj), path
    except KeyError as e:
        raise CLIError(f"{args.rep}: missing key {e}") from e


def cmd_check_rep(args) -> int:
    from spsys import reps
    system, spec_path = _build_system(args)
    rep, rep_path = _load_rep(args)
    tol = _tol(args, reps.REP_TOL)
    res = reps.is_representation(system, rep, tol=tol)
    verdict = "pass" if res["ok"] else "fail"
    checks = [check("representation", (0, system.depth),
                    res["max_residual"], tol, verdict)]
    extras = {"route": res["route"], "row_norm": rep.row_norm,
              "per_level": res["residuals"], "h": rep.h}
    return _emit("check-rep", {"spec": spec_path, "rep": rep_path}, checks, extras)


def cmd_poisson(args) -> int:
    from spsys import reps
    system, spec_path = _build_system(args)
    rep, rep_path = _load_rep(args)
    tol = _tol(args, reps.TAIL_TOL)
    kernel = reps.PoissonKernel(system, rep, args.r)
    defect = kernel.isometry_defect()
    bound = kernel.tail_bound()
    checks = [check("kernel-isometry", (0, kernel.depth), defect, bound + tol)]
    extras = {"r": args.r, "row_norm": rep.row_norm, "tail_bound": bound,
              "h": rep.h, "kernel_shape": list(kernel.matrix.shape)}
    return _emit("poisson", {"spec": spec_path, "rep": rep_path}, checks, extras)


def cmd_piece(args) -> int:
    from spsys import reps
    system, spec_path = _build_system(args)
    rep, rep_path = _load_rep(args)
    tol = _tol(args, reps.REP_TOL)
    res = reps.maximal_piece(system, rep, tol=tol)
    checks = [check("piece-fixed-point", (0, system.depth), res["residual"], tol)]
    extras = {"dim": res["dim"], "iterations": res["iterations"],
              "frame": res["subspace"].frame, "h": rep.h}
    return _emit("piece", {"spec": spec_path, "rep": rep_path}, checks, extras)


def cmd_classify(args) -> int:
    from spsys import classify
    obj_a, path_a = _load_json(args.a)
    obj_b, path_b = _load_json(args.b)
    try:
        mat_a = formats.decode_matrix(obj_a)
        mat_b = formats.decode_matrix(obj_b)
    except KeyError as e:
        raise CLIError(f"matrix file missing key {e}") from e
    inputs = {"a": path_a, "b": path_b}
    if args.kind == "qmat":
        tol = _tol(args, classify.ENTRY_TOL)
        res = classify.q_equivalent(mat_a, mat_b, tol=tol)
        # the check asserts the decision is clean: a witness permutation with a
        # tiny residual, or no permutation anywhere near the tolerance; a
        # closest residual just above it leaves the decision open
        if res["equivalent"]:
            residual, verdict = res["residual"], "pass"
        elif res["near_miss"]:
            residual, verdict = res["residual"], "inconclusive"
        else:
            residual, verdict = 0.0, "pass"
        checks = [check("classify-qmat", (0, 0), residual, tol, verdict)]
        extras = {"equivalent": res["equivalent"], "perm": res.get("perm"),
                  "residual": res["residual"],
                  "closest_perm": res.get("closest_perm")}
        return _emit("classify", inputs, checks, extras)
    res = classify.quad_equivalent(mat_a, mat_b, witness_tol=_tol(args, classify.WITNESS_TOL))
    verdict = "pass" if res["verdict"] in ("yes", "no") else "inconclusive"
    residual = res["residual"] if res["residual"] is not None else 0.0
    checks = [check("classify-quad", (0, 0), residual, res["threshold"], verdict)]
    extras = {"equivalent": {"yes": True, "no": False}.get(res["verdict"]),
              "lam": res["lam"], "u": res["u"], "invariants": res["invariants"]}
    return _emit("classify", inputs, checks, extras)


def _csv_read_terms(p: Path) -> dict[str, int]:
    """What `np.loadtxt` holds at once reading the .csv file `p`, from its size.
    Its tokenizer keeps one row's characters as UCS4 and each of its fields'
    offsets, both grown by doubling (traced: up to 28.5 bytes a byte, for a row
    of empty fields; 18.3 for one row of "0,"; 4.9 for many short rows), next to
    the result, whose rows it allocates in blocks of up to about 100 KiB."""
    return {"tokenizer and result": 32 * p.stat().st_size, "row blocks": 256 << 10}


def _load_stochastic(path: str) -> tuple[np.ndarray, Path]:
    p = Path(path)
    try:
        # checked before it is read, a .csv file from its size
        csv = p.suffix.lower() == ".csv"
        check_budget(_csv_read_terms(p) if csv else _json_read_terms(p), f"reading {path}")
        return formats.load_stochastic(p), p
    except OSError as e:
        raise CLIError(f"{path}: {e.strerror or e}") from e
    except (json.JSONDecodeError, KeyError) as e:
        raise CLIError(f"{path}: {e}") from e


def cmd_cp(args) -> int:
    from spsys import cpmaps
    if args.cp_command == "strong-commute":
        tol = _tol(args, cpmaps.NONZERO_TOL)
        p, p_path = _load_stochastic(args.p)
        q, q_path = _load_stochastic(args.q)
        res = cpmaps.strong_commute_stochastic(p, q, tol=tol)
        # the residual is ||PQ - QP||: the check says whether the pair
        # commutes, which is when the support-count criterion behind
        # "strong" applies; it does not say whether the pair strongly commutes
        verdict = "pass" if res["commute"] else "inconclusive"
        checks = [check("commute", (0, 0), res["commute_residual"], tol, verdict)]
        extras = {"commute": res["commute"], "strong": res["strong"],
                  "witnesses": res["witnesses"]}
        return _emit("cp", {"p": p_path, "q": q_path}, checks, extras)
    obj, path = _load_json(args.kraus)
    try:
        kraus = formats.decode_kraus(obj)
    except KeyError as e:
        raise CLIError(f"{args.kraus}: missing key {e}") from e
    channel = cpmaps.KrausChannel(kraus)
    dims = cpmaps.as_fiber_dims(channel, args.n)
    # the residual is the largest excess r_{m+n} - r_m·r_n (never negative), at
    # threshold 0; the smallest slack r_m·r_n - r_{m+n} says how close it came
    slack = cpmaps.submultiplicative_slack(dims)
    checks = [check("dims-submultiplicative", (0, args.n),
                    max(0, -slack) if slack is not None else 0, 0.0)]
    extras = {"dims": dims, "h": channel.h, "slack": slack}
    return _emit("cp", {"kraus": path}, checks, extras)


def _add_budget(p):
    p.add_argument("--budget-mb", type=int, default=2048, dest="budget_mb",
                   help="memory budget in MiB (default 2048)")


def _add_common(p, *, tol=True, rep=False, r=False, out=None):
    p.add_argument("--spec", required=True, help="system spec JSON file")
    p.add_argument("--depth", type=int, default=None,
                   help="depth to build the system at (default: the spec file's)")
    if tol:
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="override the per-check default tolerance (a finite number >= 0)")
    _add_budget(p)
    if rep:
        p.add_argument("--rep", required=True, help="operator tuple JSON file")
    if r:
        p.add_argument("--r", type=float, default=0.9,
                       help="kernel radius in (0, 1] (default 0.9)")
    if out is not None:
        p.add_argument("--out", required=(out == "required"), default=None,
                       help="output path")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spsys",
        description="Build subproduct systems, verify shift identities, "
                    "and run classification and CP-map tools.",
    )
    parser.add_argument("--version", action="version",
                        version=f"spsys {spsys.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a system and report its dimensions")
    _add_common(p, out="optional")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dims", help="print the dimension sequence")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run verification checks on a system")
    _add_common(p)
    p.add_argument("--checks", default="axioms,defect",
                   help="comma-separated: axioms,defect,subshift,unit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("shift", help="export shift matrices")
    _add_common(p, out="required")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("check-rep", help="test whether a tuple respects the relations")
    _add_common(p, rep=True)
    p.set_defaults(func=cmd_check_rep)

    p = sub.add_parser("poisson", help="build the Poisson kernel of a tuple")
    _add_common(p, rep=True, r=True)
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("piece", help="largest subspace compressing to a representation")
    _add_common(p, rep=True)
    p.set_defaults(func=cmd_piece)

    p = sub.add_parser("classify", help="equivalence of q-matrices or quadratics")
    p.add_argument("kind", choices=["qmat", "quad"])
    p.add_argument("a", help="first matrix JSON file")
    p.add_argument("b", help="second matrix JSON file")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cp", help="CP-map tools")
    cp_sub = p.add_subparsers(dest="cp_command", required=True)
    q = cp_sub.add_parser("strong-commute",
                          help="strong commutation of stochastic matrices")
    q.add_argument("p", help="first stochastic matrix (.csv or matrix .json)")
    q.add_argument("q", help="second stochastic matrix (.csv or matrix .json)")
    q.add_argument("--tol", type=_tolerance, default=None)
    _add_budget(q)
    q.set_defaults(func=cmd_cp)
    q = cp_sub.add_parser("as-dims", help="dimensions of the channel's subproduct system")
    q.add_argument("kraus", help="Kraus channel JSON file")
    q.add_argument("--n", type=_power, default=5, help="highest power, >= 0 (default 5)")
    _add_budget(q)
    q.set_defaults(func=cmd_cp)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # --budget-mb sets the process budget for this one command
    saved = linalg.BUDGET_BYTES
    if hasattr(args, "budget_mb"):
        linalg.BUDGET_BYTES = args.budget_mb << 20
    try:
        return args.func(args)
    except (CLIError, MemoryBudgetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        linalg.BUDGET_BYTES = saved


if __name__ == "__main__":
    sys.exit(main())
