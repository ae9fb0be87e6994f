"""Batch front-end: JSON problems in, JSON certificates out.

One invocation processes one problem file.  Exit codes: 0 when the problem
was decided (alternative resolved, certificate valid, solve converged),
2 for indeterminate or suspected-only verdicts, 1 for schema, dimension,
numeric or internal errors (reported as a machine-readable error object,
never a stack trace).  Output floats carry 17 significant digits and
identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import numpy as np

from . import __version__
from .conjugate import brute_conjugate_sup, conjugate_sup_min
from .engine import (
    Certificate,
    EngineConfig,
    FeasiblePoint,
    decide_alternative,
    yuan_alternative,
    yuan_pencil_max,
)
from .errors import GordanKitError, IndeterminateOutcomeError
from .infimum import quadratic_infimum
from .qp import (
    KktCertificate,
    QpProblem,
    fritz_john_search,
    kkt_check,
    slater_check,
    solve_levelset,
)
from .quadratics import (
    ConeWeight,
    Domain,
    QuadraticFamily,
    Reals,
    UnitSphere,
    aggregate,
    domain_from_json,
    quadratic_from_json,
)
from .zmatrix import infsup_falsify, z_family_report

SCHEMA_VERSION = 1
SEED_ENV_VAR = "GORDANKIT_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2

_KINDS = ("alternative", "yuan", "zcheck", "infsup", "qp", "kkt-check", "conjugate")

_REQUIRED = {
    "alternative": {"version", "kind", "dimension", "domain", "family"},
    "yuan": {"version", "kind", "dimension", "domain", "family"},
    "zcheck": {"version", "kind", "dimension", "family"},
    "infsup": {"version", "kind", "dimension", "domain", "family"},
    "qp": {"version", "kind", "dimension", "domain", "objective", "family"},
    "kkt-check": {"version", "kind", "dimension", "domain", "objective", "family",
                  "point", "weights"},
    "conjugate": {"version", "kind", "dimension", "family", "point"},
}
_OPTIONAL = {"config"}


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# --------------------------------------------------------------------------
# Deterministic JSON emission (17 significant digits)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append("  " * (indent + 1) + json.dumps(str(k)) + ": " + dumps(v, indent + 1))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --------------------------------------------------------------------------
# Parsing and validation


def _reject_constant(name):
    raise CliError("E_NONFINITE", f"non-finite JSON constant {name!r} rejected")


def _check_finite(obj, path="$"):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise CliError("E_NONFINITE", f"non-finite number at {path}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("E_IO", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except CliError:
        raise
    except json.JSONDecodeError as exc:
        raise CliError("E_JSON", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("E_SCHEMA", "problem file must be a JSON object")
    _check_finite(data)
    if "kind" not in data:
        raise CliError("E_SCHEMA", "missing required field 'kind'")
    kind = data["kind"]
    if kind not in _KINDS:
        raise CliError("E_KIND", f"unknown kind {kind!r}; expected one of {list(_KINDS)}")
    if data.get("version") != SCHEMA_VERSION:
        raise CliError("E_VERSION", f"unsupported version {data.get('version')!r}; expected {SCHEMA_VERSION}")
    required = _REQUIRED[kind]
    missing = required - set(data)
    if missing:
        raise CliError("E_SCHEMA", f"missing required fields for {kind}: {sorted(missing)}")
    unknown = set(data) - required - _OPTIONAL
    if unknown:
        raise CliError("E_UNKNOWN_FIELD", f"unknown fields for {kind}: {sorted(unknown)}")
    return data


def _build_family(data: dict) -> QuadraticFamily:
    fam_json = data["family"]
    if not isinstance(fam_json, list) or not fam_json:
        raise CliError("E_SCHEMA", "'family' must be a nonempty list of quadratic functions")
    members = []
    for i, obj in enumerate(fam_json):
        try:
            members.append(quadratic_from_json(obj))
        except ValueError as exc:
            if "asymmetry" in str(exc):
                raise CliError("E_ASYMMETRIC", f"family[{i}]: {exc}") from exc
            raise CliError("E_SCHEMA", f"family[{i}]: {exc}") from exc
    try:
        fam = QuadraticFamily(tuple(members))
    except GordanKitError as exc:
        raise CliError("E_DIMENSION", str(exc)) from exc
    if fam.dim != int(data["dimension"]):
        raise CliError("E_DIMENSION",
                       f"family dimension {fam.dim} does not match 'dimension' {data['dimension']}")
    return fam


def _build_domain(data: dict) -> Domain:
    try:
        dom = domain_from_json(data["domain"])
    except (ValueError, GordanKitError) as exc:
        raise CliError("E_DOMAIN", str(exc)) from exc
    if dom.dim != int(data["dimension"]):
        raise CliError("E_DIMENSION",
                       f"domain dimension {dom.dim} does not match 'dimension' {data['dimension']}")
    return dom


_CONFIG_KEYS = {
    "grid": ("simplex_grid_resolution", int),
    "multistart": ("multistart_count", int),
    "refine_iters": ("refine_iters", int),
    "seed": ("seed", int),
    "alpha": ("alpha", float),
    "tol_cert": ("tol_cert", float),
    "delta_strict": ("delta_strict", float),
    "tol_band": ("tol_band", float),
}


def _build_config(data: dict, args) -> EngineConfig:
    values = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise CliError("E_SCHEMA", f"{SEED_ENV_VAR} must be an integer") from exc
    cfg_json = data.get("config", {})
    if not isinstance(cfg_json, dict):
        raise CliError("E_SCHEMA", "'config' must be an object")
    unknown = set(cfg_json) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError("E_UNKNOWN_FIELD", f"unknown config fields: {sorted(unknown)}")
    for key, raw in cfg_json.items():
        field_name, cast = _CONFIG_KEYS[key]
        values[field_name] = cast(raw)
    if args.grid is not None:
        values["simplex_grid_resolution"] = args.grid
    if args.seed is not None:
        values["seed"] = args.seed
    if args.alpha is not None:
        values["alpha"] = args.alpha
    if args.tol is not None:
        values["tol_cert"] = args.tol
    try:
        return EngineConfig(**values)
    except ValueError as exc:
        raise CliError("E_SCHEMA", f"invalid configuration: {exc}") from exc


def _config_echo(cfg: EngineConfig) -> dict:
    return {
        "simplex_grid_resolution": cfg.simplex_grid_resolution,
        "multistart_count": cfg.multistart_count,
        "refine_iters": cfg.refine_iters,
        "tol_cert": cfg.tol_cert,
        "delta_strict": cfg.delta_strict,
        "tol_band": cfg.tol_band,
        "seed": cfg.seed,
        "alpha": cfg.alpha,
    }


def _vector(data, name: str, dim: int) -> np.ndarray:
    if not isinstance(data, list):
        raise CliError("E_SCHEMA", f"'{name}' must be a list of numbers")
    arr = np.asarray(data, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise CliError("E_DIMENSION", f"'{name}' has length {arr.shape[0]}, expected {dim}")
    return arr


# --------------------------------------------------------------------------
# Kind handlers: each returns (exit_code, result dict)


def _outcome_json(outcome, fam: QuadraticFamily, dom: Domain, cfg: EngineConfig):
    if isinstance(outcome, FeasiblePoint):
        reverified = fam.sup_at(outcome.x) - cfg.alpha
        return EXIT_OK, {
            "outcome": "feasible-point",
            "x": list(outcome.x),
            "margin": outcome.margin,
            "diagnostics": {"reverified_margin": reverified},
        }
    if isinstance(outcome, Certificate):
        agg = aggregate(fam.shifted(cfg.alpha), outcome.weights)
        reverified = quadratic_infimum(agg, dom).value
        return EXIT_OK, {
            "outcome": "certificate",
            "t": list(outcome.weights.t),
            "inf_value": outcome.inf_value,
            "diagnostics": {"reverified_inf": reverified},
        }
    return EXIT_INDETERMINATE, {
        "outcome": "indeterminate",
        "best_point": list(outcome.best_point) if outcome.best_point is not None else None,
        "best_sup": outcome.best_sup,
        "best_weight": list(outcome.best_weight.t),
        "best_inf": outcome.best_inf,
        "diagnostics": {},
    }


def _run_alternative(data: dict, cfg: EngineConfig):
    fam = _build_family(data)
    dom = _build_domain(data)
    outcome = decide_alternative(fam, dom, cfg)
    return _outcome_json(outcome, fam, dom, cfg)


def _run_yuan(data: dict, cfg: EngineConfig):
    fam = _build_family(data)
    if fam.size != 2:
        raise CliError("E_SCHEMA", "yuan requires exactly two family members")
    for i, q in enumerate(fam.members):
        if np.any(q.b != 0.0) or q.c != 0.0:
            raise CliError("E_SCHEMA",
                           f"yuan family member {i} must be a pure quadratic form (b=0, c=0)")
    dom = _build_domain(data)
    if not isinstance(dom, (Reals, UnitSphere)):
        raise CliError("E_DOMAIN", "yuan runs on domains 'reals' or 'unit_sphere'")
    t_star, lam_star = yuan_pencil_max(fam.members[0].a, fam.members[1].a)
    outcome = yuan_alternative(fam.members[0].a, fam.members[1].a, dom, cfg)
    code, result = _outcome_json(outcome, fam, dom, cfg)
    result["diagnostics"]["t_star"] = t_star
    result["diagnostics"]["pencil_min_eigenvalue"] = lam_star
    return code, result


def _run_zcheck(data: dict, cfg: EngineConfig):
    fam = _build_family(data)
    report = z_family_report(fam)
    return EXIT_OK, {
        "outcome": "zcheck",
        "family_is_z": report.family_is_z,
        "members": [
            {"is_z": r.is_z, "offenders": [list(o) for o in r.offenders]}
            for r in report.members
        ],
        "diagnostics": {},
    }


def _run_infsup(data: dict, cfg: EngineConfig):
    fam = _build_family(data)
    dom = _build_domain(data)
    report = infsup_falsify(fam, dom, cfg)
    result = {
        "outcome": report.status,
        "samples_checked": report.samples_checked,
        "lhs_bound": report.lhs_bound,
        "lhs_certified": report.lhs_certified,
        "diagnostics": {},
    }
    if report.violation is not None:
        v = report.violation
        result["violation"] = {
            "m": v.m,
            "t": list(v.t.t),
            "points": [list(p) for p in v.points],
            "lhs": v.lhs,
            "rhs": v.rhs,
        }
    code = EXIT_INDETERMINATE if report.status == "violation-suspected" else EXIT_OK
    return code, result


def _build_qp(data: dict) -> QpProblem:
    fam = _build_family(data)
    dom = _build_domain(data)
    try:
        obj = quadratic_from_json(data["objective"])
    except ValueError as exc:
        if "asymmetry" in str(exc):
            raise CliError("E_ASYMMETRIC", f"objective: {exc}") from exc
        raise CliError("E_SCHEMA", f"objective: {exc}") from exc
    try:
        return QpProblem(obj, fam, dom)
    except GordanKitError as exc:
        raise CliError("E_DOMAIN", str(exc)) from exc
    except ValueError as exc:
        raise CliError("E_SCHEMA", str(exc)) from exc


def _run_qp(data: dict, cfg: EngineConfig):
    p = _build_qp(data)
    try:
        x_slater = slater_check(p, cfg)
    except IndeterminateOutcomeError:
        return EXIT_INDETERMINATE, {
            "outcome": "indeterminate",
            "diagnostics": {"stage": "slater-check"},
        }
    res = solve_levelset(p, cfg)
    if res.status == "indeterminate":
        return EXIT_INDETERMINATE, {
            "outcome": "indeterminate",
            "diagnostics": {"stage": "levelset", **res.diagnostics},
        }
    result = {
        "outcome": res.status,
        "value": res.value if math.isfinite(res.value) else None,
        "value_tag": "finite" if math.isfinite(res.value) else ("+inf" if res.value > 0 else "-inf"),
        "x0": list(res.x0) if res.x0 is not None else None,
        "iterations": res.iterations,
        "slater_point": list(x_slater) if x_slater is not None else None,
        "diagnostics": {},
    }
    if res.status != "converged":
        return EXIT_OK, result
    fj = fritz_john_search(p, res.x0, cfg)
    result["fritz_john"] = {
        "found": fj.found,
        "y": fj.certificate.y if fj.certificate else None,
        "u": list(fj.certificate.u.u) if fj.certificate else None,
        "residuals": fj.residuals,
    }
    if fj.found and fj.certificate.y > cfg.tol_cert:
        u_kkt = fj.certificate.u.u / fj.certificate.y
        rep = kkt_check(p, KktCertificate(ConeWeight(u_kkt), res.x0), cfg)
        result["kkt"] = {
            "u": list(u_kkt),
            "valid": rep.valid,
            "residuals": rep.residuals,
            "sampled_ok": rep.sampled_ok,
        }
    return EXIT_OK, result


def _run_kkt_check(data: dict, cfg: EngineConfig):
    p = _build_qp(data)
    dim = int(data["dimension"])
    x0 = _vector(data["point"], "point", dim)
    u = _vector(data["weights"], "weights", p.constraints.size)
    if np.any(u < 0):
        raise CliError("E_WEIGHTS", "'weights' must be componentwise nonnegative")
    rep = kkt_check(p, KktCertificate(ConeWeight(u), x0), cfg)
    result = {
        "outcome": "kkt-valid" if rep.valid else "kkt-invalid",
        "valid": rep.valid,
        "residuals": rep.residuals,
        "sampled_ok": rep.sampled_ok,
        "sample_count": rep.sample_count,
        "diagnostics": {},
    }
    return (EXIT_OK if rep.valid else EXIT_INDETERMINATE), result


def _run_conjugate(data: dict, cfg: EngineConfig):
    fam = _build_family(data)
    y = _vector(data["point"], "point", fam.dim)
    res = conjugate_sup_min(fam, y, cfg)
    brute = brute_conjugate_sup(fam, y)
    result = {
        "outcome": "conjugate",
        "finite": res.value.is_finite,
        "value": res.value.value if res.value.is_finite else None,
        "t": list(res.t.t),
        "argsup": list(res.value.argsup) if res.value.argsup is not None else None,
        "hypothesis": {"z_route": res.z_route, "convex_route": res.convex_route},
        "diagnostics": {
            "lattice_resolution": res.lattice_resolution,
            "brute_lower_bound": brute.value,
            "brute_boundary_hit": brute.boundary_hit,
        },
    }
    return EXIT_OK, result


_HANDLERS = {
    "alternative": _run_alternative,
    "yuan": _run_yuan,
    "zcheck": _run_zcheck,
    "infsup": _run_infsup,
    "qp": _run_qp,
    "kkt-check": _run_kkt_check,
    "conjugate": _run_conjugate,
}


# --------------------------------------------------------------------------
# Text rendering


def _render_text(result: dict) -> str:
    lines = [f"kind: {result['kind']}", f"outcome: {result['result']['outcome']}"]
    body = result["result"]
    for key in ("value", "margin", "inf_value", "x", "x0", "t", "valid", "family_is_z",
                "lhs_bound", "finite"):
        if key in body and body[key] is not None:
            val = body[key]
            if isinstance(val, (list, tuple)):
                val = "[" + ", ".join(_fmt_float(float(v)) for v in val) + "]"
            elif isinstance(val, float):
                val = _fmt_float(val)
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Entry point


def run(kind: str, path: str, args) -> tuple:
    data = load_problem(path)
    if data["kind"] != kind:
        raise CliError("E_KIND", f"file has kind {data['kind']!r}, command expects {kind!r}")
    cfg = _build_config(data, args)
    code, body = _HANDLERS[kind](data, cfg)
    result = {
        "tool": "gordankit",
        "tool_version": __version__,
        "kind": kind,
        "result": body,
        "config": _config_echo(cfg),
    }
    return code, result


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gordankit",
        description="Certificates for Gordan-type alternatives over quadratic families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind!r} problem file")
        sp.add_argument("input", help="path to the JSON problem file")
        sp.add_argument("--tol", type=float, default=None, help="certificate tolerance override")
        sp.add_argument("--grid", type=int, default=None, help="simplex lattice resolution")
        sp.add_argument("--seed", type=int, default=None, help="search seed (overrides file and env)")
        sp.add_argument("--alpha", type=float, default=None, help="decision level")
        sp.add_argument("--out", default=None, help="write the result to this path")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout")
        sp.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        code, result = run(args.command, args.input, args)
    except CliError as exc:
        payload = dumps({"error": {"code": exc.code, "message": exc.message}}) + "\n"
        sys.stdout.write(payload)
        return EXIT_ERROR
    except GordanKitError as exc:
        payload = dumps({"error": {"code": "E_NUMERIC", "message": str(exc)}}) + "\n"
        sys.stdout.write(payload)
        return EXIT_ERROR
    except Exception as exc:  # the last boundary: any other failure is still a coded error
        message = f"{type(exc).__name__}: {exc}"
        sys.stdout.write(dumps({"error": {"code": "E_INTERNAL", "message": message}}) + "\n")
        return EXIT_ERROR
    rendered = _render_text(result) if args.format == "text" else dumps(result) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    if not args.quiet and not args.out:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
