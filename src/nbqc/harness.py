"""CLI: construct code pairs, verify invariants, run BLER sweeps, emit limits.

Subcommands

    construct   build a pair from (p, L, P, sigma, tau) and write .nbqc files
    verify      structural and orthogonality checks on a stored pair (exit 0/1)
    simulate    seeded Monte Carlo block-error sweep over f_m, CSV out
    limits      closed-form rate limit curves on an f_m grid, CSV out

`simulate` loads its pair with `binexpand.load_pair`, which runs the
checks that `verify` prints and refuses (exit 2) a pair that fails one.

Monte Carlo trials use counter-based per-trial RNG streams (Philox keyed
by the master seed, counter-offset by the trial index), so results are
byte-identical for a fixed seed regardless of how trials are split
across workers.  Worker count comes from NBQC_WORKERS: a positive
integer, default 1, capped at the number of CPUs the process may run
on.  A sweep splits the trial indices among the workers once, in one
process pool with one process per trial range, and each worker decodes
its range at every f_m with one decoder per role.

`main` builds the argument parser on its first call and reuses it for
every later call in the process; it runs each command through the module
attribute `cmd_<command>`, looked up at call time, so a patched `cmd_*`
is the one that runs.  `build_parser` returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from nbqc import binexpand, channel, nblift
from nbqc.binexpand import load_pair, pair_checks, read_matrix, write_matrix
from nbqc.decoder import DecoderConfig, SyndromeDecoder
from nbqc.gf2p import make_field
from nbqc.qcpair import QCParams, build_pair


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


# the largest f_m grid `nbqc limits` builds: a tiny --fm-step would
# otherwise size a list of trillions of points
MAX_LIMIT_POINTS = 10 ** 6


def limit_point(f_m: float) -> LimitPoint:
    if not 0.0 < f_m < 1.0 / 3.0:
        raise DomainError(f"f_m must be in (0, 1/3), got {f_m}")
    return LimitPoint(f_m=f_m, shannon=shannon_limit(f_m),
                      s2=s2_limit(f_m), bdd=bdd_limit(f_m))


# -- simulation ---------------------------------------------------------------


_WORD = (1 << 64) - 1


def _seek(state: dict, trial: int) -> dict:
    """Point the state of a fresh `Philox(key=seed)`, read before its first
    draw, at trial's stream, counter trial << 128, in place; the state
    setter copies it, so one state serves every trial."""
    trial = operator.index(trial)
    if not 0 <= trial < 1 << 128:
        raise ValueError(f"trial must be in [0, 2**128), got {trial}")
    state["state"]["counter"][2:] = trial & _WORD, trial >> 64
    return state


def _run_trials(code, f_m_values, mode: str, trials: range, seed: int,
                config: DecoderConfig) -> np.ndarray:
    """(fails, mismatches, iterations) over `trials` at each f_m and role,
    as an (F, 2, 3) array; role C runs all its trials before role D."""
    params = [channel.ChannelParams(f_m=f_m, mode=mode) for f_m in f_m_values]
    counts = np.zeros((len(params), 2, 3), dtype=np.int64)
    for r, role in enumerate(("C", "D")):
        decoder = SyndromeDecoder(code, role)
        # one generator, re-seeked to Philox(key=seed, counter=t << 128) per
        # trial through its own state before any draw; Philox raises
        # ValueError for a seed outside [0, 2**128)
        rng = np.random.Generator(np.random.Philox(key=operator.index(seed)))
        bitgen, state = rng.bit_generator, rng.bit_generator.state
        sample, decode, syndrome_of = (channel.sample_error, decoder.decode,
                                       decoder.syndrome_of_symbols)
        n_sym, p = code.N, code.field.p
        for i, chan in enumerate(params):
            fails = mismatches = iter_sum = 0
            f_m = chan.f_m
            for t in trials:
                bitgen.state = _seek(state, t)
                err = sample(n_sym, p, chan, rng)[r]
                outcome = decode(syndrome_of(err), f_m, config)
                iter_sum += outcome.iterations
                if not outcome.ok:
                    fails += 1
                elif (outcome.estimate != err).any():
                    mismatches += 1
            counts[i, r] = fails, mismatches, iter_sum
        # role D's decoder is built only once C's is freed: one alive at a time
        del decoder, decode, syndrome_of, rng
    return counts


def simulate_sweep(code, f_m_values, trials: int, seed: int,
                   config: DecoderConfig = DecoderConfig(),
                   mode: str = "independent",
                   workers: int = 1) -> list[SimRecord]:
    """Monte Carlo BLER of both constituent codes at each f_m: one SimRecord
    per (f_m, role), roles C then D at each point.

    The trial indices are split among the workers once per sweep, and each
    worker decodes its range at every f_m with one decoder per role.  Trial
    outcomes are independent of the split: trial t always uses the stream
    derived from (seed, t).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    f_m_values = list(f_m_values)
    if workers <= 1 or trials < 2 * workers:
        counts = _run_trials(code, f_m_values, mode, range(trials), seed, config)
    else:
        # imported here so that serial runs skip loading multiprocessing at start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk = (trials + workers - 1) // workers
        jobs = [(code, f_m_values, mode, range(lo, min(lo + chunk, trials)), seed, config)
                for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            counts = sum(pool.map(_run_trials, *zip(*jobs)))
    return [SimRecord(f_m=f_m, role=role, trials=trials, block_errors=fails + mismatches,
                      bler=(fails + mismatches) / trials, mean_iterations=iter_sum / trials,
                      fail_count=fails, mismatch_count=mismatches, seed=seed)
            for f_m, point in zip(f_m_values, counts.tolist())
            for role, (fails, mismatches, iter_sum) in zip(("C", "D"), point)]


# -- verification -------------------------------------------------------------


def verify_pair_files(gamma_path, delta_path) -> list[tuple[str, bool, str]]:
    """Read a stored pair and run every structural check on it
    (`binexpand.pair_checks`); returns (name, passed, detail) triples."""
    gamma = read_matrix(gamma_path)
    return pair_checks(gamma, read_matrix(delta_path, expected_field=gamma.field))


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


def _env_workers() -> int:
    """NBQC_WORKERS (default 1), a positive integer, capped at the number of
    CPUs this process may run on (its affinity mask, where the platform
    has one; else the CPU count)."""
    text = os.environ.get("NBQC_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"NBQC_WORKERS must be a positive integer, got {text!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(workers, len(os.sched_getaffinity(0)))
    return min(workers, os.cpu_count() or 1)


def cmd_simulate(args) -> int:
    workers = _env_workers()
    code = load_pair(args.gamma, args.delta)
    config = DecoderConfig(max_iter=args.max_iter)
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
        # endpoints outside the domain fail before the grid is sized from them
        limit_point(args.fm_min)
        limit_point(args.fm_max)
        if not args.fm_max >= args.fm_min:
            raise DomainError(f"--fm-max {args.fm_max} is below --fm-min {args.fm_min}")
        # the tolerance keeps fm_max on the grid when the quotient rounds below it
        steps = (args.fm_max - args.fm_min) / args.fm_step + 1e-9
        # sized before any list is built; `not <` also refuses an infinite quotient
        if not steps < MAX_LIMIT_POINTS:
            raise DomainError(f"--fm-step {args.fm_step} makes a grid of more than "
                              f"{MAX_LIMIT_POINTS} points")
        grid = [args.fm_min + i * args.fm_step for i in range(int(steps) + 1)]
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

    v = sub.add_parser("verify", help="check a stored pair (exit 0 iff all pass)")
    v.add_argument("gamma")
    v.add_argument("delta")

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

    m = sub.add_parser("limits", help="closed-form rate limit curves to CSV")
    m.add_argument("--fm", type=float, nargs="+", default=None,
                   help="explicit f_m values (else a uniform grid)")
    m.add_argument("--fm-min", type=float, default=0.005)
    m.add_argument("--fm-max", type=float, default=0.33)
    m.add_argument("--fm-step", type=float, default=0.005)
    m.add_argument("--out", default="-", help="CSV path (default stdout)")
    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        # ParseError, FieldMismatch, InvalidParams, DomainError, a stored pair
        # that fails a check and plain file problems all surface here;
        # internal invariants still raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
