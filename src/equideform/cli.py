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
                Q11,Q12,Q22 (torus)
    [path]      start, end; records (count, uniform steps) or initial_step
                with optional min_step/max_step; tol (below 1e-8),
                max_newton, retries, basin_guard, diagnostics_cadence,
                angle_tol, tol_rel; congruence reads only tol, max_newton
                and basin_guard, analyze also angle_tol and tol_rel
                (start = end = lambda_hat)
    [bundle]    lambdas (list), n (list), samples, triples
    [congruence] t = t1,t2,... (group parameters, |t| < 0.25); tol
    [test]      fault injection hooks: inject_broken_basis (bool) for
                verify-bundle only, inject_shift (float) for analyze only

A key or section the command does not read is a config error: a misspelled
key, a hook or [path] key meant for another command, steps beside records.

Every command writes report.json into the output directory; continue also
writes branch.jsonl (one record per line, with the resolved config and a
git-style content hash of the config bytes + effective seed) and branch.csv.
Report payloads are byte-stable across re-runs with the same config and
seed; timestamps live in a separate meta object, and so does continue's
account of each record: its Newton residual history, worst bordered
condition and slice leak, the causes of the attempts rejected before it, the
corrections run ahead of it and used or dropped, and the seconds its
correction and its certificate took ("records"), with the causes and
corrections for the attempts after the last record of a stalled branch
("stalled").
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
from .variational import (PROBLEMS, act, derived_scalars, jacobi, residual,
                          residual_norm)

__doc__ = __doc__.format(instances=", ".join(PROBLEMS))

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 64

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
    # values are literal: no % interpolation, and [DEFAULT] is a plain section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   default_section="", interpolation=None)
    try:
        cp.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")
    return _Config(cp), raw


class _Config:
    """A parsed config file that records each key asked for, present or not."""

    def __init__(self, parser):
        self._parser = parser
        self._asked = {}  # section -> {key: None}, in the order asked

    def get(self, sec, key, conv, default=None, required=False):
        self._asked.setdefault(sec, {})[key] = None
        if not self._parser.has_option(sec, key):
            if required:
                raise ConfigError(f"[{sec}] {key} is required")
            return default
        text = self._parser.get(sec, key)
        try:
            return conv(text)
        except (ValueError, TypeError):
            raise ConfigError(f"[{sec}] {key} = {text!r} is not valid")

    def given(self, sec):
        """The keys of sec asked for so far that the file sets."""
        return [key for key in self._asked.get(sec, {})
                if self._parser.has_option(sec, key)]

    def check_read(self, reader):
        """Raise ConfigError for a section key that reader did not ask for."""
        for sec in self._parser.sections():
            asked = self._asked.get(sec, {})
            keys = ", ".join(k for k in self._parser.options(sec) if k not in asked)
            if keys:
                raise ConfigError(f"[{sec}] {keys}: not read by {reader}, which "
                                  f"reads {', '.join(asked) or f'no [{sec}] key'}")


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


def _build_problem(cfg, lam=None):
    """Construct the configured problem and its built-in analytic seed.

    Returns (problem, seed state, resolved [problem] keys, lambda_hat);
    lam=None uses [problem] lambda_hat, defaulting to the instance's own.
    """
    instance = cfg.get("problem", "instance", str, required=True).strip().lower()
    if instance not in PROBLEMS:
        raise ConfigError(f"[problem] instance = {instance!r} is not one of "
                          + ", ".join(PROBLEMS))
    cls = PROBLEMS[instance]
    N = cfg.get("problem", "n", int, default=128)
    if not 8 <= N <= 4096:
        raise ConfigError(f"[problem] N = {N} outside [8, 4096]")
    # asked for on every command, so continue accepts it
    given = cfg.get("problem", "lambda_hat", _float, default=cls.default_lambda)
    lam = given if lam is None else lam

    def get(key, kind, default=None, required=False):
        return cfg.get("problem", key, _PROBLEM_KINDS[kind], default, required)

    # magnitudes the numerics cannot hold overflow here: they are reported
    # as the config error below, not as warnings
    with np.errstate(all="ignore"):
        try:
            problem, state, resolved = cls.from_config(get, N, lam)
        except ConfigError:
            raise
        except (ValueError, EquideformError) as exc:
            raise ConfigError(f"cannot build [problem] seed: {exc}")
        try:
            rn = residual_norm(problem, state, lam)
        except DomainError:
            rn = 0.0    # a seed outside the chart is the solve's failure
    if not np.isfinite(rn):
        # the grid, the weights or the seed overflows, before any solve
        raise ConfigError(
            f"[problem] {', '.join(cfg.given('problem'))}: the seed's "
            f"residual norm is {rn} at lambda_hat={lam}; a magnitude is "
            "beyond what the grid, weights and seed can hold")
    return (problem, state,
            dict(resolved, instance=instance, n=problem.grid.N), lam)


# the [path] settings and their converters; continue reads them all
_PATH_KEYS = {"tol": _positive, "max_newton": int, "retries": int,
              "basin_guard": _positive, "diagnostics_cadence": int,
              "angle_tol": _positive, "tol_rel": _positive}
# the settings a corrector polish reads, and the certificate after it
_CORRECTOR_KEYS = ("tol", "max_newton", "basin_guard")
_CERTIFICATE_KEYS = _CORRECTOR_KEYS + ("angle_tol", "tol_rel")


def _path_config(cfg, keys=tuple(_PATH_KEYS), lam=None):
    """ContinuationConfig from the [path] settings keys; lam fixes start=end
    for polish-only use."""
    kwargs = {}
    for key in keys:
        value = cfg.get("path", key, _PATH_KEYS[key])
        if value is not None:
            kwargs[key] = value
    try:
        if lam is not None:
            return ContinuationConfig.polish(lam, **kwargs)
        start = cfg.get("path", "start", _float, required=True)
        end = cfg.get("path", "end", _float, required=True)
        records = cfg.get("path", "records", int)
        if records is not None:
            return ContinuationConfig.from_steps(start, end, records, **kwargs)
        initial = cfg.get("path", "initial_step", _positive, required=True)
        return ContinuationConfig(
            start=start, end=end, initial_step=initial,
            min_step=cfg.get("path", "min_step", _positive),
            max_step=cfg.get("path", "max_step", _positive), **kwargs)
    except ConfigError:
        raise
    except (ValueError, OverflowError, EquideformError) as exc:
        raise ConfigError(f"invalid [path] section: {exc}")


def _record_summary(rec):
    out = rec.to_payload()
    del out["state"]
    return out


def run_verify_bundle(cfg, seed, chash, outdir):
    lambdas = cfg.get("bundle", "lambdas", _float_list,
                      default=[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    ns = cfg.get("bundle", "n", _int_list, default=[2])
    samples = cfg.get("bundle", "samples", int, default=200)
    triples = cfg.get("bundle", "triples", int, default=100)
    inject = cfg.get("test", "inject_broken_basis", _bool, default=False)
    cfg.check_read("verify-bundle")
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


def run_analyze(cfg, seed, chash, outdir):
    problem, seed_state, resolved, lam = _build_problem(cfg)
    ccfg = _path_config(cfg, _CERTIFICATE_KEYS, lam)
    shift = cfg.get("test", "inject_shift", _float)
    cfg.check_read(f"analyze on {resolved['instance']}")
    resolved.update(lambda_hat=lam, seed=seed)
    base = {"command": "analyze", "config": resolved,
            "path": dataclasses.asdict(ccfg), "config_hash": chash}
    try:
        state, iters, _ = corrector_step(problem, seed_state, lam, ccfg)
        J = jacobi(problem, state, lam)
        # the diagnostics read the assembled W J before the certificate's
        # reduction takes its storage
        diag = operator_diagnostics(J, problem, state, lam, seed=seed)
        if shift is not None:
            J = J.shifted(shift)
        rep = nondegeneracy_report(problem, state, lam, tol_rel=ccfg.tol_rel,
                                   angle_tol=ccfg.angle_tol, operator=J)
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


def run_continue(cfg, seed, chash, outdir):
    ccfg = _path_config(cfg)
    problem, seed_state, resolved, _ = _build_problem(cfg, ccfg.start)
    cfg.check_read(f"continue on {resolved['instance']}")
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


def run_congruence(cfg, seed, chash, outdir):
    problem, seed_state, resolved, lam = _build_problem(cfg)
    ccfg = _path_config(cfg, _CORRECTOR_KEYS, lam)
    t = np.asarray(cfg.get("congruence", "t", _float_list, required=True))
    tol = cfg.get("congruence", "tol", _positive, default=1e-8)
    cfg.check_read(f"congruence on {resolved['instance']}")
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
        cfg, raw = _load_config(args.config)
        # read, and so checked, even when the flags override them
        seed = cfg.get("run", "seed", _u64, default=0)
        outdir = cfg.get("run", "out", str, default=".")
        seed = seed if args.seed is None else args.seed
        outdir = args.out or outdir
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}")
        chash = content_hash(raw + b"\nseed=%d\n" % seed)
        runner = {"verify-bundle": run_verify_bundle,
                  "analyze": run_analyze,
                  "continue": run_continue,
                  "congruence": run_congruence}[args.command]
        return runner(cfg, seed, chash, outdir)
    except ConfigError as exc:
        print(f"equideform: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
