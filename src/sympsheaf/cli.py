"""Command-line surface: one JSON problem file in, one report out.

    sympsheaf COMMAND --input FILE [--output json|text] [--seed N]

One flat parser reads this line; options may come before or after COMMAND.
The commands are the keys of ``_HANDLERS``.  A handler takes the parsed
problem, the open set U it is posed over (its space is ``U.space``) and the
seed, and returns (exit code, status, result, certificate); ``main`` writes
the report under the command's name.

Exit codes: 0 success, 1 domain errors (degenerate form, non-unit
determinant, failed check, incompatible family), 2 malformed input.  The
JSON report is byte-stable for a fixed input file and seed; text mode is a
human-readable rendering of the same data.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import jsonio
from .charpoly import cayley_hamilton_check, char_poly, eigen_sections
from .errors import AlgebraError, MalformedInput
from .exterior import wedge
from .presheaf import (
    CompatibleFamily,
    ConstantPresheaf,
    FunctionPresheaf,
    check_completeness,
    sample_grid,
)
from .sections import StructureSection
from .symplectic import (
    block_normal_form,
    darboux_basis,
    is_symplectic_map,
    skew_normal_form,
    standard_J,
)
from .modules import determinant


def _load_problem(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        problem = json.load(fh)
    if not isinstance(problem, dict):
        raise MalformedInput("problem: not a JSON object")
    space = jsonio.space_from_json(_field(problem, "space"))
    open_labels = problem.get("open")
    U = space.whole if open_labels is None else jsonio.open_from_json(space, open_labels, "open")
    return problem, U


def _run_darboux(problem, U, seed):
    omega = jsonio.matrix_from_json(U, _field(problem, "form"), "form")
    basis = darboux_basis(omega)
    result = {
        "m": basis.m,
        "basis": [jsonio.vector_to_json(v) for v in basis.s + basis.t],
        "change_of_basis": jsonio.matrix_to_json(basis.change_of_basis),
    }
    certificate = {"gram": jsonio.matrix_to_json(basis.gram)}
    return 0, "ok", result, certificate


def _run_normal_form(problem, U, seed):
    omega = jsonio.matrix_from_json(U, _field(problem, "form"), "form")
    m, P = skew_normal_form(omega)  # checks ᵗPΩP against the block form
    result = {"m": m, "change_of_basis": jsonio.matrix_to_json(P)}
    certificate = {"gram": jsonio.matrix_to_json(block_normal_form(U, m, omega.rows))}
    return 0, "ok", result, certificate


def _run_check_symplectic(problem, U, seed):
    M = jsonio.matrix_from_json(U, _field(problem, "matrix"))
    if "form" in problem:
        omega = jsonio.matrix_from_json(U, problem["form"], "form")
        if omega.rows != M.rows or omega.cols != M.rows:
            raise MalformedInput(f"form: {omega.rows}x{omega.cols} where the matrix "
                                 f"has {M.rows} rows; the form must be {M.rows}x{M.rows}")
    else:
        if M.rows % 2:
            raise AlgebraError("no reference form given and the rank is odd")
        omega = standard_J(U, M.rows // 2)
    ok = is_symplectic_map(M, omega)  # compares ᵗMΩM with Ω
    pullback = omega if ok else M.transpose() @ omega @ M
    result = {"symplectic": ok, "det": jsonio.entry_to_json(determinant(M))}
    certificate = {"pullback": jsonio.matrix_to_json(pullback)}
    if ok:
        return 0, "ok", result, certificate
    return 1, "NotSymplectic", result, certificate


def _run_charpoly(problem, U, seed):
    M = jsonio.matrix_from_json(U, _field(problem, "matrix"))
    p = char_poly(M)
    residue = cayley_hamilton_check(M, p)
    result = {"monic": True, "coeffs": jsonio.polynomial_to_json(p)}
    certificate = {"cayley_hamilton_residue": jsonio.matrix_to_json(residue)}
    return 0, "ok", result, certificate


def _run_eigen(problem, U, seed):
    M = jsonio.matrix_from_json(U, _field(problem, "matrix"))
    report = eigen_sections(M)
    pairs = [{"lambda": jsonio.entry_to_json(p.lam),
              "vector": jsonio.vector_to_json(p.vector)} for p in report.pairs]
    # eigen_sections has checked M·v = λ·v, so every residue is the zero vector
    residues = [[0] * M.rows for _ in report.pairs]
    result = {"pairs": pairs, "omitted_points": list(report.omitted_points)}
    certificate = {"residues": residues}
    return 0, "ok", result, certificate


def _axiom_witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, CompatibleFamily):
        return {"family": [{"open": list(V.labels), "section": _jsonable(s)}
                           for V, s in zip(witness.cover, witness.sections)]}
    left, right = witness
    return {"left": _jsonable(left), "right": _jsonable(right)}


def _field(problem, key: str):
    if key not in problem:
        raise MalformedInput(f"{key}: missing")
    return problem[key]


def _array(problem, key: str) -> list:
    value = _field(problem, key)
    if not isinstance(value, list):
        raise MalformedInput(f"{key}: not an array: {value!r}")
    return value


def _run_sheaf_check(problem, U, seed):
    space = U.space
    kind = problem.get("presheaf", "functions")
    grid = [jsonio.fraction_from_json(g, f"grid[{i}]")
            for i, g in enumerate(_array(problem, "grid"))] \
        if "grid" in problem else sample_grid(seed)
    if kind == "functions":
        presheaf = FunctionPresheaf(space, grid)
    elif kind == "constant":
        presheaf = ConstantPresheaf(space, grid)
    else:
        raise MalformedInput(f"presheaf: unknown presheaf kind {kind!r}")
    cover = [jsonio.open_from_json(space, labels, f"cover[{i}]")
             for i, labels in enumerate(_array(problem, "cover"))]
    report = check_completeness(presheaf, U, cover)
    result = {
        "S1": {"axiom": "S1", "status": report.s1.status,
               "witness": _axiom_witness_json(report.s1.witness)},
        "S2": {"axiom": "S2", "status": report.s2.status,
               "witness": _axiom_witness_json(report.s2.witness)},
    }
    if report.passed:
        return 0, "ok", result, None
    return 1, "CompletenessFailure", result, None


def _run_wedge(problem, U, seed):
    xi = jsonio.kform_from_json(U, _field(problem, "xi"), "xi")
    eta = jsonio.kform_from_json(U, _field(problem, "eta"), "eta")
    out = wedge(xi, eta)
    result = {"form": jsonio.kform_to_json(out),
              "degree_overflow": out.degree > out.rank}
    return 0, "ok", result, None


_HANDLERS = {
    "darboux": _run_darboux,
    "normal-form": _run_normal_form,
    "check-symplectic": _run_check_symplectic,
    "charpoly": _run_charpoly,
    "eigen": _run_eigen,
    "sheaf-check": _run_sheaf_check,
    "wedge": _run_wedge,
}


def _render_value(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v):
                lines.append(f"{pad}- {json.dumps(v)}")  # matrix row / vector
            elif isinstance(v, (dict, list)):
                lines.append(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines)
    return f"{pad}{value}"


def _emit(report: dict, mode: str, stream) -> None:
    if mode == "json":
        stream.write(json.dumps(report, indent=2) + "\n")
    else:
        stream.write(f"{report['command']}: {report['status']}\n")
        for key in ("result", "certificate", "error"):
            if report.get(key) is not None:
                stream.write(f"{key}:\n")
                stream.write(_render_value(report[key], 1) + "\n")


@cache
def _parser() -> argparse.ArgumentParser:
    """The one command-line parser, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="sympsheaf",
        description="Exact symplectic algebra over sheaves on finite spaces.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--input", required=True, help="JSON problem file")
    parser.add_argument("--output", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized self-checks (sampled grids)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    error = certificate = result = None
    try:
        problem, U = _load_problem(args.input)
        code, status, result, certificate = _HANDLERS[args.command](problem, U, args.seed)
    except AlgebraError as exc:
        code, status = 1, type(exc).__name__
        error = {"name": status, "message": str(exc)}
        witness = exc.points or exc.witness
        if witness is not None:
            error["witness"] = _jsonable(witness)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        code, status = 2, "MalformedInput"
        error = {"name": status, "message": f"{type(exc).__name__}: {exc}"}
    report = {"command": args.command, "status": status, "result": result}
    if certificate is not None:
        report["certificate"] = certificate
    if error is not None:
        report["error"] = error
    _emit(report, args.output, sys.stdout)
    return code


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return jsonio.fraction_to_json(value)
    if isinstance(value, StructureSection):
        return jsonio.section_to_json(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


if __name__ == "__main__":
    sys.exit(main())
