"""CLI: construct code pairs, verify invariants, run BLER sweeps, emit limits.

Subcommands

    construct   build a pair from (p, L, P, sigma, tau) and write .nbqc files
    verify      structural and orthogonality checks on a stored pair (exit 0/1)
    simulate    seeded Monte Carlo block-error sweep over f_m, CSV out
    limits      closed-form rate limit curves on an f_m grid, CSV out

Monte Carlo trials use counter-based per-trial RNG streams (Philox keyed
by the master seed, counter-offset by the trial index), so results are
byte-identical for a fixed seed regardless of how trials are split
across workers.  Worker count comes from NBQC_WORKERS (default 1).
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from nbqc import binexpand, channel, nblift
from nbqc.binexpand import load_pair, read_matrix, write_matrix
from nbqc.decoder import DecoderConfig, SyndromeDecoder
from nbqc.gf2p import make_field
from nbqc.qcpair import QCParams, build_pair, has_4cycle, validate_params


class DomainError(ValueError):
    """f_m outside the domain of the limit formulas."""


@dataclass
class SimRecord:
    """One Monte Carlo result row.

    block_errors = fail_count (no syndrome match within the iteration
    cap) + mismatch_count (syndrome matched but the estimate differs
    from the true error).
    """

    f_m: float
    role: str
    trials: int
    block_errors: int
    bler: float
    mean_iterations: float
    fail_count: int
    mismatch_count: int
    seed: int


CSV_HEADER = "f_m,role,trials,block_errors,bler,mean_iterations,fail_count,mismatch_count,seed"


def record_csv_line(r: SimRecord) -> str:
    return (f"{r.f_m:.10g},{r.role},{r.trials},{r.block_errors},{r.bler:.10g},"
            f"{r.mean_iterations:.10g},{r.fail_count},{r.mismatch_count},{r.seed}")


@dataclass
class LimitPoint:
    """Closed-form quantum-rate limits at one marginal flip probability."""

    f_m: float
    shannon: float
    s2: float
    bdd: float


def binary_entropy(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    if not 0.0 < x < 1.0:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon_limit(f_m: float) -> float:
    """Depolarizing-channel Shannon limit: 1 - h(3f/2) - (3f/2) log2 3."""
    x = 1.5 * f_m
    return 1.0 - binary_entropy(x) - x * math.log2(3.0)


def s2_limit(f_m: float) -> float:
    """Achievable rate with X/Z correlations ignored: 1 - 2 h(f)."""
    return 1.0 - 2.0 * binary_entropy(f_m)


def bdd_limit(f_m: float) -> float:
    """Bounded-distance-decoder limit, correlations ignored: 1 - 2 h(2f)."""
    return 1.0 - 2.0 * binary_entropy(2.0 * f_m)


def limit_point(f_m: float) -> LimitPoint:
    if not 0.0 < f_m < 1.0 / 3.0:
        raise DomainError(f"f_m must be in (0, 1/3), got {f_m}")
    return LimitPoint(f_m=f_m, shannon=shannon_limit(f_m),
                      s2=s2_limit(f_m), bdd=bdd_limit(f_m))


# -- simulation ---------------------------------------------------------------


def _philox_state(seed: int, trial: int) -> dict:
    """State of `Philox(key=seed, counter=trial << 128)` before its first draw."""
    seed, trial = operator.index(seed), operator.index(trial)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    if not 0 <= trial < 1 << 128:
        raise ValueError(f"trial must be in [0, 2**128), got {trial}")
    word = (1 << 64) - 1
    return {"bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, trial & word, trial >> 64], dtype=np.uint64),
                      "key": np.array([seed & word, seed >> 64], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


@lru_cache(maxsize=1)
def _placeholder_seed() -> np.random.SeedSequence:
    # Philox(key=...) seeds itself from OS entropy before the key overrides
    # it; a fixed seed sequence skips that, and the state it gives is always
    # replaced.  Made on first use: importing numpy does not load
    # numpy.random, and loading it takes about 25 ms.
    return np.random.SeedSequence(0)


def _philox_generator() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_placeholder_seed()))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial: Philox keyed by seed, counter trial << 128."""
    rng = _philox_generator()
    rng.bit_generator.state = _philox_state(seed, trial)
    return rng


def _run_trials(code, role: str, f_m: float, mode: str, trials: range,
                seed: int, config: DecoderConfig):
    decoder = SyndromeDecoder(code, role)
    params = channel.ChannelParams(f_m=f_m, mode=mode)
    fails = mismatches = 0
    iter_sum = 0
    rng = _philox_generator()     # re-seeked to each trial's stream, as trial_rng builds it
    for t in trials:
        rng.bit_generator.state = _philox_state(seed, t)
        x_err, z_err = channel.sample_error(code.N, code.field.p, params, rng)
        err = x_err if role == "C" else z_err
        syndrome = decoder.syndrome_of_symbols(err)
        outcome = decoder.decode(syndrome, f_m, config)
        iter_sum += outcome.iterations
        if not outcome.ok:
            fails += 1
        elif not np.array_equal(outcome.estimate, err):
            mismatches += 1
    return fails, mismatches, iter_sum


def simulate_point(code, role: str, f_m: float, trials: int, seed: int,
                   config: DecoderConfig = DecoderConfig(),
                   mode: str = "independent",
                   workers: int = 1) -> SimRecord:
    """Monte Carlo BLER of one constituent code at one operating point.

    Trial outcomes are independent of the worker split: trial t always
    uses the stream derived from (seed, t).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers <= 1 or trials < 2 * workers:
        fails, mismatches, iter_sum = _run_trials(
            code, role, f_m, mode, range(trials), seed, config)
    else:
        # imported here so that serial runs skip loading multiprocessing at start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk = (trials + workers - 1) // workers
        ranges = [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _run_trials_star,
                [(code, role, f_m, mode, r, seed, config) for r in ranges]))
        fails = sum(p[0] for p in parts)
        mismatches = sum(p[1] for p in parts)
        iter_sum = sum(p[2] for p in parts)
    block = fails + mismatches
    return SimRecord(f_m=f_m, role=role, trials=trials, block_errors=block,
                     bler=block / trials, mean_iterations=iter_sum / trials,
                     fail_count=fails, mismatch_count=mismatches, seed=seed)


def _run_trials_star(args):
    return _run_trials(*args)


def simulate_sweep(code, f_m_values, trials: int, seed: int,
                   config: DecoderConfig = DecoderConfig(),
                   mode: str = "independent",
                   workers: int = 1) -> list[SimRecord]:
    """One SimRecord per (f_m, role), roles C then D at each point."""
    records = []
    for f_m in f_m_values:
        for role in ("C", "D"):
            records.append(simulate_point(code, role, f_m, trials, seed, config, mode, workers))
    return records


# -- verification -------------------------------------------------------------


def verify_pair_files(gamma_path, delta_path) -> list[tuple[str, bool, str]]:
    """Run every structural check; returns (name, passed, detail) triples."""
    checks: list[tuple[str, bool, str]] = []
    gamma = read_matrix(gamma_path)
    delta = read_matrix(delta_path, expected_field=gamma.field)
    params = gamma.params
    ok_roles = gamma.role == "GAMMA" and delta.role == "DELTA"
    checks.append(("role_tags", ok_roles, f"{gamma.role}/{delta.role}"))
    checks.append(("params_match", gamma.params == delta.params,
                   f"{gamma.params} vs {delta.params}"))

    violations = validate_params(params)
    if params.J != 2:
        violations.append(f"J={params.J}, but the lift and its checks need J=2")
    checks.append(("params_valid", not violations,
                   ", ".join(violations) or "all construction conditions hold"))
    if violations:
        return checks

    pair = build_pair(params)
    hc, hd = pair.expand_c(), pair.expand_d()
    sup_ok = all(np.array_equal(mat.row, h.row) and np.array_equal(mat.col, h.col)
                 for mat, h in ((gamma, hc), (delta, hd)))
    checks.append(("supports_match_construction", sup_ok, "supports vs QC expansion"))

    gw = {w for mat in (gamma, delta) for w in np.bincount(mat.row, minlength=mat.m).tolist()}
    checks.append(("row_weight", gw == {params.L}, f"row weights {sorted(gw)}"))
    col_w = {w for mat in (gamma, delta) for w in np.bincount(mat.col, minlength=mat.n).tolist()}
    checks.append(("column_weight", col_w == {params.J},
                   f"column weights {sorted(col_w)}"))

    checks.append(("no_symbol_4cycles",
                   not has_4cycle(gamma.support()) and not has_4cycle(delta.support()),
                   "symbol-level Tanner graphs"))

    nb_ok = nblift.verify_orthogonal(gamma, delta)
    checks.append(("nonbinary_orthogonal", nb_ok, "product over GF(2^p)"))

    # a cycle passes iff its two sides' products agree: both meet a zero,
    # or neither does and their logs balance
    steps, (zero1, zero2) = nblift.cycle_log_steps(gamma, nblift.cycle_structure(hc, hd))
    balanced = steps.sum(axis=1) % (gamma.field.q - 1) == 0
    det_ok = bool(np.where(zero1 | zero2, zero1 & zero2, balanced).all())
    checks.append(("determinant_condition", det_ok, "per-row cycle products"))

    # expanded here rather than by expand_pair, which would repeat the
    # non-binary check above
    bin_ok = nb_ok and binexpand.binary_orthogonal(
        binexpand._expand_binary(gamma, transpose=False),
        binexpand._expand_binary(delta, transpose=True))
    checks.append(("binary_orthogonal", bin_ok, "product over GF(2)"))
    return checks


# -- CLI ----------------------------------------------------------------------


def cmd_construct(args) -> int:
    params = QCParams(P=args.P, J=2, L=args.L, sigma=args.sigma, tau=args.tau)
    field = make_field(args.p, args.poly)
    pair = build_pair(params)
    gamma, delta = nblift.lift(pair, field, np.random.default_rng(args.seed), args.reject_trivial)
    code = binexpand.expand_pair(gamma, delta)
    write_matrix(gamma, f"{args.out}.gamma.nbqc")
    write_matrix(delta, f"{args.out}.delta.nbqc")
    print(f"wrote {args.out}.gamma.nbqc and {args.out}.delta.nbqc")
    print(f"n={code.n_qubits} qubits ({code.N} symbols over GF({field.q}))")
    print(f"R_C={code.rate_c:.6g} R_Q={code.rate_q:.6g}")
    return 0


def cmd_verify(args) -> int:
    checks = verify_pair_files(args.gamma, args.delta)
    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        all_ok &= ok
    return 0 if all_ok else 1


def cmd_simulate(args) -> int:
    code = load_pair(args.gamma, args.delta)
    config = DecoderConfig(max_iter=args.max_iter)
    workers = int(os.environ.get("NBQC_WORKERS", "1"))
    records = simulate_sweep(code, args.fm, args.trials, args.seed, config,
                             mode=args.mode, workers=workers)
    lines = [CSV_HEADER] + [record_csv_line(r) for r in records]
    _write_lines(args.out, lines)
    return 0


def cmd_limits(args) -> int:
    if args.fm:
        grid = args.fm
    else:
        if not args.fm_step > 0:
            raise DomainError(f"--fm-step must be > 0, got {args.fm_step}")
        if not args.fm_max >= args.fm_min:
            raise DomainError(f"--fm-max {args.fm_max} is below --fm-min {args.fm_min}")
        # the tolerance keeps fm_max on the grid when the quotient rounds below it
        count = int((args.fm_max - args.fm_min) / args.fm_step + 1e-9) + 1
        grid = [args.fm_min + i * args.fm_step for i in range(count)]
    lines = ["f_m,shannon,s2,bdd"]
    for f in grid:
        pt = limit_point(f)
        lines.append(f"{pt.f_m:.10g},{pt.shannon:.10g},{pt.s2:.10g},{pt.bdd:.10g}")
    _write_lines(args.out, lines)
    return 0


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nbqc",
        description="non-binary quasi-cyclic CSS code pairs: construct, "
                    "verify, simulate, and rate limits")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a pair and write .nbqc files")
    c.add_argument("--p", type=int, required=True, help="field extension degree")
    c.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                   help="primitive polynomial mask (default: built-in per p)")
    c.add_argument("--L", type=int, required=True)
    c.add_argument("--P", type=int, required=True)
    c.add_argument("--sigma", type=int, required=True)
    c.add_argument("--tau", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--reject-trivial", action="store_true",
                   help="resample if every sampled log is zero")
    c.add_argument("--out", required=True, help="output file prefix")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check a stored pair (exit 0 iff all pass)")
    v.add_argument("gamma")
    v.add_argument("delta")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo BLER sweep to CSV")
    s.add_argument("gamma")
    s.add_argument("delta")
    s.add_argument("--fm", type=float, nargs="+", required=True,
                   help="marginal flip probabilities")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--max-iter", type=int, default=32)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=("independent", "joint"), default="independent")
    s.add_argument("--out", default="-", help="CSV path (default stdout)")
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser("limits", help="closed-form rate limit curves to CSV")
    m.add_argument("--fm", type=float, nargs="*", default=None,
                   help="explicit f_m values (else a uniform grid)")
    m.add_argument("--fm-min", type=float, default=0.005)
    m.add_argument("--fm-max", type=float, default=0.33)
    m.add_argument("--fm-step", type=float, default=0.005)
    m.add_argument("--out", default="-", help="CSV path (default stdout)")
    m.set_defaults(func=cmd_limits)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError, FieldMismatch, InvalidParams, DomainError and plain
        # file problems all surface here; internal invariants still raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
