"""Command-line surface: one JSON problem file in, one report out.

    sympsheaf COMMAND --input FILE [--output json|text] [--seed N]

One flat parser reads this line; options may come before or after COMMAND.
The commands are the keys of ``_HANDLERS``.  ``jsonio.problem_from_json``
reads and checks the problem file; a handler takes the open set U it poses
(its space is ``U.space``), the seed and the command's inputs by field name,
and returns (exit code, status, result, certificate); ``main`` writes the
report under the command's name.  At module level this file imports only
``jsonio`` and ``errors``: each handler imports the library modules it calls
on its first call, so a command loads only what it uses.

Exit codes: 0 success, 1 domain errors (degenerate form, non-unit
determinant, failed check, incompatible family), 2 malformed input.  The
JSON report is byte-stable for a fixed input file and seed; text mode is a
human-readable rendering of the same data, with `- ` before each list item
and null, true and false as in the JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import jsonio
from .errors import AlgebraError


def _load_problem(path: str, command: str):
    with open(path, "rb") as fh:
        return jsonio.problem_from_json(fh.read(), command)


def _run_darboux(U, seed, form):
    from .symplectic import darboux_basis
    basis = darboux_basis(form)
    result = {
        "m": basis.m,
        "basis": [jsonio.vector_to_json(v) for v in basis.s + basis.t],
        "change_of_basis": jsonio.matrix_to_json(basis.change_of_basis),
    }
    certificate = {"gram": jsonio.matrix_to_json(basis.gram)}
    return 0, "ok", result, certificate


def _run_normal_form(U, seed, form):
    from .symplectic import block_normal_form, skew_normal_form
    m, P = skew_normal_form(form)  # checks ᵗPΩP against the block form
    result = {"m": m, "change_of_basis": jsonio.matrix_to_json(P)}
    certificate = {"gram": jsonio.matrix_to_json(block_normal_form(U, m, form.rows))}
    return 0, "ok", result, certificate


def _run_check_symplectic(U, seed, matrix, form):
    from .modules import determinant
    from .symplectic import is_symplectic_map, standard_J
    if form is None:
        if matrix.rows % 2:
            raise AlgebraError("no reference form given and the rank is odd")
        form = standard_J(U, matrix.rows // 2)
    ok = is_symplectic_map(matrix, form)  # compares ᵗMΩM with Ω
    pullback = form if ok else matrix.transpose() @ form @ matrix
    result = {"symplectic": ok, "det": jsonio.entry_to_json(determinant(matrix))}
    certificate = {"pullback": jsonio.matrix_to_json(pullback)}
    if ok:
        return 0, "ok", result, certificate
    return 1, "NotSymplectic", result, certificate


def _run_charpoly(U, seed, matrix):
    from .charpoly import cayley_hamilton_check, char_poly
    p = char_poly(matrix)
    residue = cayley_hamilton_check(matrix, p)
    result = {"monic": True, "coeffs": jsonio.polynomial_to_json(p)}
    certificate = {"cayley_hamilton_residue": jsonio.matrix_to_json(residue)}
    return 0, "ok", result, certificate


def _run_eigen(U, seed, matrix):
    from .charpoly import eigen_sections
    report = eigen_sections(matrix)
    pairs = [{"lambda": jsonio.entry_to_json(p.lam),
              "vector": jsonio.vector_to_json(p.vector)} for p in report.pairs]
    # eigen_sections has checked M·v = λ·v, so every residue is the zero vector
    residues = [[0] * matrix.rows for _ in report.pairs]
    result = {"pairs": pairs, "omitted_points": list(report.omitted_points)}
    certificate = {"residues": residues}
    return 0, "ok", result, certificate


def _run_sheaf_check(U, seed, grid, presheaf, cover):
    from .presheaf import check_completeness, sample_grid
    grid = sample_grid(seed) if grid is None else grid
    report = check_completeness(presheaf(U.space, grid), U, cover)
    result = {r.axiom: {"axiom": r.axiom, "status": r.status,
                        "witness": jsonio.witness_to_json(r.witness)}
              for r in (report.s1, report.s2)}
    if report.passed:
        return 0, "ok", result, None
    return 1, "CompletenessFailure", result, None


def _run_wedge(U, seed, xi, eta):
    from .exterior import wedge
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


def _leaf(value) -> str:
    """A scalar, an empty container or a flat array as the JSON report writes
    it (null, true, false), a string without its quotes."""
    return value if isinstance(value, str) else json.dumps(value)


def _render_value(value, indent=0):
    """A dict as `key: value` lines and a list as `- item` lines, a nested
    container one level deeper.  An object or a nested array in a list starts
    on its own `- ` line, so adjacent members stay apart."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines += [f"{pad}{k}:", _render_value(v, indent + 1)]
            else:
                lines.append(f"{pad}{k}: {_leaf(v)}")
    else:
        for v in value:
            if (isinstance(v, dict) and v) or \
                    (isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v)):
                lines.append(f"{pad}- {_render_value(v, indent + 1)[len(pad) + 2:]}")
            else:
                lines.append(f"{pad}- {_leaf(v)}")  # a scalar, a matrix row or a vector
    return "\n".join(lines)


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
    limit = sys.get_int_max_str_digits()
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    """Answer one command line and return its exit code.  The problem is read
    under Python's int→str digit limit; the limit is then lifted, since a
    result (a determinant, say) may have any number of digits."""
    error = certificate = result = None
    try:
        U, inputs = _load_problem(args.input, args.command)
        sys.set_int_max_str_digits(0)
        code, status, result, certificate = _HANDLERS[args.command](U, args.seed, **inputs)
    except AlgebraError as exc:
        code, status = 1, type(exc).__name__
        error = {"name": status, "message": str(exc)}
        witness = exc.points or exc.witness
        if witness is not None:
            error["witness"] = jsonio.witness_to_json(witness)
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


if __name__ == "__main__":
    sys.exit(main())
