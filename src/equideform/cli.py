"""Batch front end: verify the group bundle, analyze a critical seed,
continue a branch, or test congruence of two states.

    equideform <command> --config <file.ini> [--out <dir>] [--seed <u64>]

Commands and exit codes:
    verify-bundle   0 all checks pass, 2 a named check fails
    analyze         0 nondegenerate, 2 otherwise, 3 corrector failure
    continue        0 full path, 2 nondegeneracy halt, 3 convergence failure
    congruence      0 congruent, 2 not congruent, 3 solver failure
    any             64 on a malformed or inconsistent config

Configuration is a key = value INI file. Keys are case-insensitive.

    [run]       seed (u64, default 0); out (output directory)
    [problem]   instance, one of
                    {instances};
                N (grid size, 8..4096); order (2 or 4 on interval grids;
                periodic ones are spectral only); H (mean curvature);
                lambda_hat (where analyze/congruence work); length and
                radius (profile); homotopy = p,q and gram_start/gram_end =
                Q11,Q12,Q22 (torus); a key the instance does not read is
                a config error
    [path]      start, end; records (count, uniform steps) or initial_step
                with optional min_step/max_step; tol (below 1e-8),
                max_newton, retries, basin_guard, diagnostics_cadence,
                angle_tol, tol_rel; analyze and congruence read only the
                corrector keys (start = end = lambda_hat)
    [bundle]    lambdas (list), n (list), samples, triples
    [congruence] t = t1,t2,... (group parameters, |t| < 0.25); tol
    [test]      fault injection hooks: inject_broken_basis (bool) for
                verify-bundle only, inject_shift (float) for analyze only;
                any other [test] key is a config error

Every command writes report.json into the output directory; continue also
writes branch.jsonl (one record per line, with the resolved config and a
git-style content hash of the config bytes + effective seed) and branch.csv.
Report payloads are byte-stable across re-runs with the same config and
seed; timestamps live in a separate meta object, and so does continue's
account of each record: its Newton residual history, worst bordered
condition and slice leak, the causes of the attempts rejected before it, and
the corrections run ahead of it and used or dropped ("records"), with the
same for the attempts after the last record of a stalled branch ("stalled").
Every periodic instance runs on an odd spectral grid, so an even configured
N is rounded up by one and the effective value is what the report's config
block shows.
"""

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from .continuation import (ORBIT_TRUST_RADIUS, ContinuationConfig,
                           congruence_check, continue_branch, corrector_step)
from .equivariance import nondegeneracy_report, operator_diagnostics
from .errors import (SOLVER_ERRORS, ConfigError, DomainError, EquideformError,
                     NoConvergence, PreconditionError, ShapeError)
from .lie_bundle import verify_bundle
from .serialize import (content_hash, write_branch_csv, write_branch_jsonl,
                        write_report)
from .variational import PROBLEMS, act, derived_scalars, jacobi, residual

__doc__ = __doc__.format(instances=", ".join(PROBLEMS))

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 64

# each [test] hook and the one command that reads it
_TEST_HOOKS = {"inject_shift": "analyze", "inject_broken_basis": "verify-bundle"}


class _Parser(argparse.ArgumentParser):
    # usage problems are config problems for exit-code purposes
    def error(self, message):
        raise ConfigError(message)


def _u64(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("seed out of range")
    return value


def _build_parser():
    parser = _Parser(prog="equideform",
                     description="group-bundle verification and "
                                 "equivariant branch continuation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-bundle", "analyze", "continue", "congruence"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, metavar="FILE")
        sp.add_argument("--out", default=None, metavar="DIR")
        sp.add_argument("--seed", type=_u64, default=None, metavar="U64")
    return parser


def _load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")
    return cp, raw


def _get(cp, sec, key, conv, default=None, required=False):
    if not cp.has_option(sec, key):
        if required:
            raise ConfigError(f"[{sec}] {key} is required")
        return default
    text = cp.get(sec, key)
    try:
        return conv(text)
    except (ValueError, TypeError):
        raise ConfigError(f"[{sec}] {key} = {text!r} is not valid")


def _float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float_list(text):
    return [_float(tok) for tok in text.replace(",", " ").split()]


def _int_list(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(lowered)


def _positive(text):
    value = _float(text)
    if not value > 0.0:
        raise ValueError("not positive")
    return value


def _gram(text):
    q11, q12, q22 = _float_list(text)
    return np.array([[q11, q12], [q12, q22]])


def _order(text):
    text = text.strip().lower()
    return "spectral" if text == "spectral" else int(text)


# converters a problem class's from_config asks for by name
_PROBLEM_KINDS = {"positive": _positive, "ints": _int_list, "gram": _gram,
                  "order": _order}


def _build_problem(cp, lam=None):
    """Construct the configured problem and its built-in analytic seed.

    Returns (problem, seed state, resolved [problem] keys, lambda_hat);
    lam=None reads [problem] lambda_hat, defaulting to the instance's own.
    """
    instance = _get(cp, "problem", "instance", str, required=True).strip().lower()
    if instance not in PROBLEMS:
        raise ConfigError(f"[problem] instance = {instance!r} is not one of "
                          + ", ".join(PROBLEMS))
    cls = PROBLEMS[instance]
    if lam is None:
        lam = _get(cp, "problem", "lambda_hat", _float,
                   default=cls.default_lambda)
    N = _get(cp, "problem", "n", int, default=128)
    if not 8 <= N <= 4096:
        raise ConfigError(f"[problem] N = {N} outside [8, 4096]")

    read = ["instance", "n", "lambda_hat"]

    def get(key, kind, default=None, required=False):
        read.append(key)
        return _get(cp, "problem", key, _PROBLEM_KINDS[kind], default,
                    required)

    try:
        problem, state, resolved = cls.from_config(get, N, lam)
    except ConfigError:
        raise
    except (ValueError, EquideformError) as exc:
        raise ConfigError(f"cannot build [problem] seed: {exc}")
    unread = sorted(set(cp.options("problem")).difference(read))
    if unread:
        raise ConfigError(f"[problem] {', '.join(unread)}: not read by "
                          f"{instance}, which reads {', '.join(read)}")
    return (problem, state,
            dict(resolved, instance=instance, n=problem.grid.N), lam)


def _path_config(cp, lam=None):
    """ContinuationConfig from [path]; lam fixes start=end for polish-only use."""
    kwargs = {}
    for key, conv in (("tol", _positive),
                      ("max_newton", int), ("retries", int),
                      ("basin_guard", _positive),
                      ("diagnostics_cadence", int),
                      ("angle_tol", _positive),
                      ("tol_rel", _positive)):
        value = _get(cp, "path", key, conv)
        if value is not None:
            kwargs[key] = value
    try:
        if lam is not None:
            return ContinuationConfig.polish(lam, **kwargs)
        start = _get(cp, "path", "start", _float, required=True)
        end = _get(cp, "path", "end", _float, required=True)
        records = _get(cp, "path", "records", int)
        if records is not None:
            given = [key for key in ("initial_step", "min_step", "max_step")
                     if cp.has_option("path", key)]
            if given:
                raise ConfigError(f"[path] give either records or "
                                  f"{', '.join(given)}, not both")
            return ContinuationConfig.from_steps(start, end, records, **kwargs)
        initial = _get(cp, "path", "initial_step", _positive, required=True)
        return ContinuationConfig(
            start=start, end=end, initial_step=initial,
            min_step=_get(cp, "path", "min_step", _positive),
            max_step=_get(cp, "path", "max_step", _positive), **kwargs)
    except ConfigError:
        raise
    except (ValueError, OverflowError, EquideformError) as exc:
        raise ConfigError(f"invalid [path] section: {exc}")


def _record_summary(rec):
    out = rec.to_payload()
    del out["state"]
    return out


def run_verify_bundle(cp, seed, chash, outdir):
    lambdas = _get(cp, "bundle", "lambdas", _float_list,
                   default=[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    ns = _get(cp, "bundle", "n", _int_list, default=[2])
    samples = _get(cp, "bundle", "samples", int, default=200)
    triples = _get(cp, "bundle", "triples", int, default=100)
    inject = _get(cp, "test", "inject_broken_basis", _bool, default=False)
    try:
        checks = verify_bundle(lambdas, ns, samples, triples, seed, inject)
    except PreconditionError as exc:
        raise ConfigError(f"[bundle] {exc}")
    passed = all(c["passed"] for c in checks)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"check {c['name']}: {status} (worst {c['worst']:.3e})")
    payload = {"command": "verify-bundle", "passed": passed,
               "checks": checks,
               "config": {"lambdas": lambdas, "n": ns, "samples": samples,
                          "triples": triples, "seed": seed,
                          "inject_broken_basis": inject},
               "config_hash": chash}
    write_report(os.path.join(outdir, "report.json"), payload)
    return EXIT_OK if passed else EXIT_CHECK


def run_analyze(cp, seed, chash, outdir):
    problem, seed_state, resolved, lam = _build_problem(cp)
    ccfg = _path_config(cp, lam=lam)
    shift = _get(cp, "test", "inject_shift", _float)
    resolved.update(lambda_hat=lam, seed=seed)
    base = {"command": "analyze", "config": resolved,
            "path": dataclasses.asdict(ccfg), "config_hash": chash}
    try:
        state, iters, _ = corrector_step(problem, seed_state, lam, ccfg)
        J = jacobi(problem, state, lam)
        operator = J
        if shift is not None:
            operator = J.shifted(shift)
        rep = nondegeneracy_report(problem, state, lam, tol_rel=ccfg.tol_rel,
                                   angle_tol=ccfg.angle_tol, operator=operator)
        diag = operator_diagnostics(J, problem, state, lam, seed=seed)
    except SOLVER_ERRORS as exc:
        print(f"equideform: analyze failed: {exc}", file=sys.stderr)
        base["error"] = str(exc)
        write_report(os.path.join(outdir, "report.json"), base)
        return EXIT_SOLVER
    payload = dict(base, newton_iters=iters,
                   nondegeneracy=rep.to_payload(),
                   diagnostics=diag.to_payload(),
                   derived_scalars=derived_scalars(problem, state, lam))
    if shift is not None:
        payload["inject_shift"] = shift
    write_report(os.path.join(outdir, "report.json"), payload)
    print(f"verdict: {rep.verdict} (kernel {rep.kernel_dim}/"
          f"{rep.killing_rank}, gap {rep.gap:.3e})")
    return EXIT_OK if rep.verdict == "nondegenerate" else EXIT_CHECK


def run_continue(cp, seed, chash, outdir):
    ccfg = _path_config(cp)
    problem, seed_state, resolved, _ = _build_problem(cp, ccfg.start)
    resolved["seed"] = seed
    config_block = {"problem": resolved, "path": dataclasses.asdict(ccfg)}
    error = stalled = None
    try:
        records = continue_branch(problem, seed_state, ccfg)
    except NoConvergence as exc:
        records = exc.partial_branch or []
        error = str(exc)
        stalled = exc.log
    except SOLVER_ERRORS as exc:
        records = []
        error = str(exc)
    rows = [dict(rec.to_payload(), config=config_block, config_hash=chash)
            for rec in records]
    write_branch_jsonl(os.path.join(outdir, "branch.jsonl"), rows)
    scalar_key = (sorted(records[0].derived_scalars)[0] if records
                  else "value")
    write_branch_csv(os.path.join(outdir, "branch.csv"), records, scalar_key)
    payload = {"command": "continue", "records": len(records),
               "config": config_block, "config_hash": chash,
               "error": error,
               "final": _record_summary(records[-1]) if records else None}
    meta = {"records": [rec.log for rec in records], "stalled": stalled}
    write_report(os.path.join(outdir, "report.json"), payload, meta)
    if error is not None:
        print(f"equideform: continuation incomplete: {error}", file=sys.stderr)
        print(f"records: {len(records)} (partial)")
        return EXIT_SOLVER
    print(f"records: {len(records)}, final lambda_hat "
          f"{records[-1].lambda_hat:.12g}, verdict {records[-1].verdict}")
    if records[-1].verdict != "nondegenerate":
        return EXIT_CHECK
    return EXIT_OK


def run_congruence(cp, seed, chash, outdir):
    problem, seed_state, resolved, lam = _build_problem(cp)
    ccfg = _path_config(cp, lam=lam)
    t = np.asarray(_get(cp, "congruence", "t", _float_list, required=True))
    tol = _get(cp, "congruence", "tol", _positive, default=1e-8)
    resolved.update(lambda_hat=lam, seed=seed)
    base = {"command": "congruence", "config": resolved,
            "applied_t": list(t), "tol": tol, "config_hash": chash}
    try:
        # a seed outside the chart is a solver failure, as in analyze
        residual(problem, seed_state, lam)
        try:
            moved = act(problem, seed_state, lam, t)
        except (ShapeError, DomainError) as exc:
            # a motion of the wrong length, or one too large for the chart
            raise ConfigError(f"[congruence] t: {exc}")
        if np.linalg.norm(t) >= ORBIT_TRUST_RADIUS:
            # orbit_project could never recover it
            raise ConfigError(
                f"[congruence] t: |t| = {np.linalg.norm(t):.6g} is not below "
                f"the orbit projection's trust radius {ORBIT_TRUST_RADIUS:g}")
        congruent, recovered = congruence_check(problem, seed_state, moved,
                                                lam, tol=tol, config=ccfg)
    except SOLVER_ERRORS as exc:
        print(f"equideform: congruence failed: {exc}", file=sys.stderr)
        base["error"] = str(exc)
        write_report(os.path.join(outdir, "report.json"), base)
        return EXIT_SOLVER
    payload = dict(base, congruent=bool(congruent),
                   recovered_t=list(recovered))
    write_report(os.path.join(outdir, "report.json"), payload)
    print(f"congruent: {congruent}")
    return EXIT_OK if congruent else EXIT_CHECK


def main(argv=None):
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
        cp, raw = _load_config(args.config)
        seed = args.seed
        if seed is None:
            seed = _get(cp, "run", "seed", _u64, default=0)
        outdir = args.out or _get(cp, "run", "out", str, default=".")
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}")
        for key in cp.options("test") if cp.has_section("test") else ():
            reader = _TEST_HOOKS.get(key)
            if reader is None:
                raise ConfigError(f"[test] {key} is not a hook; the hooks "
                                  f"are {', '.join(_TEST_HOOKS)}")
            if args.command != reader:
                raise ConfigError(f"[test] {key} is read by {reader} only, "
                                  f"not by {args.command}")
        chash = content_hash(raw + b"\nseed=%d\n" % seed)
        runner = {"verify-bundle": run_verify_bundle,
                  "analyze": run_analyze,
                  "continue": run_continue,
                  "congruence": run_congruence}[args.command]
        return runner(cp, seed, chash, outdir)
    except ConfigError as exc:
        print(f"equideform: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
