"""Workloads, correctness checks and metrics of the nbqc benchmark.

Every workload runs the pipeline a user runs, `nbqc construct`, then
`nbqc verify`, then `nbqc simulate`, in rounds on one code of the (J, L)
= (2, 6) template.  Load is one process in a closed loop: a round, and
each trial within it, starts when the previous one has finished.  Inputs
come from the seed alone: the construct seed is `lift_seeds[seed % k]`
and round r simulates with master seed (seed << 20) | r.  Rounds 0 ..
fixed_rounds - 1 are the fixed work: the BLER sample that is checked
against the recorded reference, the pass that an untraced run repeats,
and the pass that a traced run times once plain and once traced.  Apart
from them, every run decodes the reference trials, which use master seed
REFERENCE_SIM_SEED whatever the run's seed, and whose counts must equal
the recorded ones exactly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import nbqc
from nbqc import channel, harness
from nbqc.binexpand import load_pair
from nbqc.decoder import DecoderConfig
from tracing import DECODE, SYNDROME, WHT, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
MAX_ITER = 32
MIN_PASSES = 3
PROBES_PER_CPU = 3
MIN_COVERAGE = 0.9
GATE_SIGMAS = 5.0
WARMUP_ROUND = (1 << 20) - 1      # its trials are disjoint from every measured round
REFERENCE_SIM_SEED = 1 << 62      # master seed of the reference trials, for every run seed

# One fresh interpreter per set-up measurement: the import and load_pair
# that `nbqc simulate` pays before its first trial.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import nbqc.harness
from nbqc.binexpand import load_pair
load_pair(sys.argv[1], sys.argv[2])
print(time.perf_counter() - t0, nbqc.__file__)
"""


class CpuSteer:
    """Start each timed step on the CPU that runs fastest at that moment.

    On a shared virtual machine each CPU the process may use is often
    slowed by 1.3-1.8x (another tenant busy on its host core), in
    stretches of a fraction of a second to minutes, and the kernel does
    not move a busy process off it.  A call times a short fixed slice of
    interpreter work on every allowed CPU and pins the process to the
    fastest.  Fresh interpreters started for set-up inherit the pinning.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.chosen: dict[int, int] = {}
        self.spent_s = 0.0        # time spent probing, kept out of round wall times

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i
        return time.perf_counter() - t0

    def __call__(self) -> None:
        if len(self.cpus) < 2:
            return
        t0 = time.perf_counter()
        best = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            best.append((min(self.probe() for _ in range(PROBES_PER_CPU)), cpu))
        cpu = min(best)[1]
        os.sched_setaffinity(0, {cpu})
        self.chosen[cpu] = self.chosen.get(cpu, 0) + 1
        self.spent_s += time.perf_counter() - t0

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


class CheckFailed(Exception):
    """An output of the program disagreed with a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    P: int
    sigma: int
    tau: int
    f_m: float
    batch: int                # trials per role in one round
    fixed_rounds: int         # rounds in the BLER sample and the traced work
    ref_trials: int           # trials per role in the exactly checked reference trials
    lift_seeds: tuple         # construct --seed values, picked by seed % len
    reject_trivial: bool = False

    def construct_argv(self, lift_seed: int, prefix: str) -> list[str]:
        argv = ["construct", "--p", str(self.p), "--L", "6", "--P", str(self.P),
                "--sigma", str(self.sigma), "--tau", str(self.tau),
                "--seed", str(lift_seed), "--out", prefix]
        return argv + (["--reject-trivial"] if self.reject_trivial else [])


WORKLOADS = {
    "full": {
        "sim-gf256-n336": Workload("sim-gf256-n336", p=8, P=7, sigma=2, tau=3, f_m=0.04,
                                   batch=5, fixed_rounds=48, ref_trials=100,
                                   lift_seeds=(0,)),
        "sim-gf16-n168": Workload("sim-gf16-n168", p=4, P=7, sigma=2, tau=3, f_m=0.02,
                                  batch=50, fixed_rounds=32, ref_trials=1000,
                                  lift_seeds=(0,)),
        "build-gf16-n1032": Workload("build-gf16-n1032", p=4, P=43, sigma=6, tau=2,
                                     f_m=0.02, batch=10, fixed_rounds=8, ref_trials=20,
                                     lift_seeds=(0,), reject_trivial=True),
    },
    "tiny": {
        "sim-gf256-n336": Workload("sim-gf256-n336", p=8, P=7, sigma=2, tau=3, f_m=0.04,
                                   batch=2, fixed_rounds=2, ref_trials=5,
                                   lift_seeds=(0,)),
        "sim-gf16-n168": Workload("sim-gf16-n168", p=4, P=7, sigma=2, tau=3, f_m=0.02,
                                  batch=5, fixed_rounds=2, ref_trials=20,
                                  lift_seeds=(0,)),
        "build-gf16-n1032": Workload("build-gf16-n1032", p=4, P=7, sigma=2, tau=3,
                                     f_m=0.02, batch=2, fixed_rounds=4, ref_trials=5,
                                     lift_seeds=(0, 1), reject_trivial=True),
    },
}


def trial_seed(seed: int, round_no: int) -> int:
    return (seed << 20) | round_no


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Ledger:
    """Operations attempted and failed, with a line per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def check(self, ok: bool, message: str, ops: int = 0) -> bool:
        if not ok:
            self.fail(ops, message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


STEPS = ("construct_s", "verify_s", "load_s", "sim_s")


@dataclass
class Round:
    construct_s: float
    verify_s: float
    load_s: float
    sim_s: float
    records: list             # SimRecord per role
    wall_s: float             # the whole round after its garbage collection


class Pipeline:
    """One workload's code files and the rounds run on them."""

    def __init__(self, wl: Workload, seed: int, work: str, ledger: Ledger):
        self.wl = wl
        self.lift_seed = wl.lift_seeds[seed % len(wl.lift_seeds)]
        self.seed = seed
        self.prefix = os.path.join(work, "code")
        self.gamma = f"{self.prefix}.gamma.nbqc"
        self.delta = f"{self.prefix}.delta.nbqc"
        self.ledger = ledger
        self.config = DecoderConfig(max_iter=MAX_ITER)
        self.steer = CpuSteer()

    def round(self, round_no: int, expected: dict) -> Round | None:
        """construct -> digest -> verify -> load -> simulate.

        A step that raises or fails a check fails itself and every later
        step of the round; the caller then stops.  The round starts from a
        fresh garbage collection, so the collector's work inside it does not
        depend on what earlier rounds left behind.  Each timed step starts
        on the CPU that CpuSteer finds fastest; its probing is not part of
        the round's wall time.
        """
        wl, ledger = self.wl, self.ledger
        steps = [("construct", 1), ("verify", 1), ("load", 1), ("simulate", 2 * wl.batch)]
        ledger.attempted += sum(n for _, n in steps)
        times, step = [], 0
        try:
            gc.collect()
            t_round, steer_s = time.perf_counter(), self.steer.spent_s
            t0 = self.start()
            self.construct()
            times.append(time.perf_counter() - t0)
            digest = self.digest()
            if digest != expected:
                raise CheckFailed(f"nbqc digests {digest} != recorded {expected}")
            step = 1
            t0 = self.start()
            checks = harness.verify_pair_files(self.gamma, self.delta)
            times.append(time.perf_counter() - t0)
            failing = [name for name, ok, _ in checks if not ok]
            if failing or len(checks) != 10:
                raise CheckFailed(f"verify: {len(checks)} checks, failing {failing}")
            step = 2
            t0 = self.start()
            code = load_pair(self.gamma, self.delta)
            times.append(time.perf_counter() - t0)
            step = 3
            seed = trial_seed(self.seed, round_no)
            t0 = self.start()
            records = harness.simulate_sweep(code, [wl.f_m], wl.batch, seed, self.config,
                                             mode="independent", workers=1)
            times.append(time.perf_counter() - t0)
            check_records(records, wl, seed)
        except Exception as exc:  # any failure ends the run; report it, don't crash
            failed_ops = sum(n for _, n in steps[step:])
            msg = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            ledger.fail(failed_ops, f"round {round_no}, {steps[step][0]}: {msg}")
            return None
        wall_s = time.perf_counter() - t_round - (self.steer.spent_s - steer_s)
        return Round(*times, records=records, wall_s=wall_s)

    def start(self) -> float:
        """Steer to the fastest CPU; returns the start time of the timed step."""
        self.steer()
        return time.perf_counter()

    def construct(self) -> None:
        """`nbqc construct` with the workload's flags."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = harness.main(self.wl.construct_argv(self.lift_seed, self.prefix))
        if rc != 0:
            raise CheckFailed(f"construct exited with {rc}")

    def digest(self) -> dict:
        return {"gamma": sha256_file(self.gamma), "delta": sha256_file(self.delta)}

    def nbqc_bytes(self) -> int:
        return os.path.getsize(self.gamma) + os.path.getsize(self.delta)


def check_records(records, wl: Workload, seed: int) -> None:
    """Each SimRecord's counts must agree with each other and the request."""
    if [r.role for r in records] != ["C", "D"]:
        raise CheckFailed(f"roles {[r.role for r in records]} != ['C', 'D']")
    for r in records:
        ok = (r.f_m == wl.f_m and r.trials == wl.batch and r.seed == seed
              and r.fail_count >= 0 and r.mismatch_count >= 0
              and r.block_errors == r.fail_count + r.mismatch_count <= r.trials
              and r.bler == r.block_errors / r.trials
              # a failed decode runs exactly max_iter iterations
              and r.fail_count * MAX_ITER <= r.mean_iterations * r.trials + 1e-9
              and 0.0 <= r.mean_iterations <= MAX_ITER)
        if not ok:
            raise CheckFailed(f"inconsistent record {r}")


def pooled(rounds: list[Round]) -> dict:
    recs = [r for rnd in rounds for r in rnd.records]
    trials = sum(r.trials for r in recs)
    return {"trials": trials,
            "block_errors": sum(r.block_errors for r in recs),
            "fail_count": sum(r.fail_count for r in recs),
            "mismatch_count": sum(r.mismatch_count for r in recs),
            "bler": sum(r.block_errors for r in recs) / trials,
            "mean_iterations": sum(r.mean_iterations * r.trials for r in recs) / trials}


def load_reference(size: str, name: str) -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)[size][name]


def reference_counts(pipe: Pipeline) -> dict:
    """[block_errors, fail_count, iterations] per role on the reference trials."""
    code = load_pair(pipe.gamma, pipe.delta)
    records = harness.simulate_sweep(code, [pipe.wl.f_m], pipe.wl.ref_trials,
                                     REFERENCE_SIM_SEED, pipe.config,
                                     mode="independent", workers=1)
    return {r.role: [r.block_errors, r.fail_count, round(r.mean_iterations * r.trials)]
            for r in records}


def exact_gate(pipe: Pipeline, ref: dict) -> None:
    """The reference trials must decode to exactly the recorded counts.

    Decoding is deterministic, so any change to a decision or to an
    iteration count on these trials fails the run, whatever its seed.
    """
    n = 2 * pipe.wl.ref_trials
    pipe.ledger.attempted += n
    want = ref["exact"][str(pipe.lift_seed)]
    try:
        got = reference_counts(pipe)
    except Exception as exc:  # any failure ends the run; report it, don't crash
        pipe.ledger.fail(n, f"reference trials: {type(exc).__name__}: {exc}")
        return
    pipe.ledger.check(got == want, f"reference trials [block_errors, fail_count, iterations] "
                                   f"per role {got} != recorded {want}", ops=n)


def gate(sample: dict, ref: dict, ledger: Ledger) -> None:
    """BLER and mean iterations within GATE_SIGMAS standard errors of the reference.

    A coarse check of the run's own trials; exact_gate is the fine one.
    The reference is pooled over many seeds at this commit; its BLER is
    floored at one error in its own sample so a zero reference still
    admits the odd block error.
    """
    n = sample["trials"]
    p = max(ref["bler"], 1.0 / ref["trials"])
    tol = GATE_SIGMAS * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
    ok = ledger.check(abs(sample["bler"] - ref["bler"]) <= tol,
                      f"bler {sample['bler']:.6g} over {n} trials is not within {tol:.3g} "
                      f"of the reference {ref['bler']:.6g}", ops=n)
    tol = GATE_SIGMAS * ref["iteration_sd"] / math.sqrt(n) + 0.01
    ledger.check(abs(sample["mean_iterations"] - ref["mean_iterations"]) <= tol,
                 f"mean iterations {sample['mean_iterations']:.6g} is not within {tol:.3g} "
                 f"of the reference {ref['mean_iterations']:.6g}", ops=n if ok else 0)


def measure_setup(pipe: Pipeline, src: str, ledger: Ledger) -> float | None:
    """Import plus load_pair in a fresh interpreter; None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    ledger.attempted += 1
    pipe.steer()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, pipe.gamma, pipe.delta],
                          env=env, capture_output=True, text=True, timeout=150)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or not fields[1].startswith(src):
        ledger.fail(1, f"set-up run failed: {proc.returncode} {proc.stderr.strip()[-300:]}")
        return None
    return float(fields[0])


def environment(args, wl: Workload, pipe: Pipeline, src: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "workload": wl.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "git_commit": commit, "cpu_model": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "nbqc_source": src,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "workers": int(os.environ.get("NBQC_WORKERS", "1")),
        "construct": wl.construct_argv(pipe.lift_seed, "<prefix>"),
        "simulate": {"f_m": wl.f_m, "roles": ["C", "D"], "trials_per_round": wl.batch,
                     "fixed_rounds": wl.fixed_rounds, "max_iter": MAX_ITER,
                     "mode": "independent"},
        "nbqc_sha256": pipe.digest(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run -----------------------------------------------------


def run_pass(pipe: Pipeline, expected: dict) -> list[Round] | None:
    """The fixed rounds once, in order; None as soon as one fails."""
    rounds = []
    for r in range(pipe.wl.fixed_rounds):
        rnd = pipe.round(r, expected)
        if rnd is None:
            return None
        rounds.append(rnd)
    return rounds


def untraced(pipe: Pipeline, args, expected: dict, ref: dict, src: str) -> tuple[dict, dict]:
    """Passes over the fixed rounds, at least MIN_PASSES, and more while one fits in --seconds.

    On a shared 2-core virtual machine the same work runs 1.3-1.8x slower
    whenever a host core is busy with other load, in bursts of a fraction
    of a second and in stretches of minutes.  CpuSteer moves each timed
    step to whichever CPU is fast at that moment, every timed step is
    short, and the metrics count the fastest repeats, those that fell
    between bursts:
    - construct and verify repeat the same operation on the same code in
      every round, so their metric is the fastest of all of them;
    - a round's trials repeat in every pass, so trials_per_s divides the
      trials of all fixed rounds by the sum of each round's fastest pass;
    - set-up, one fresh interpreter before each pass, is the median.
    """
    ledger = pipe.ledger
    passes, setup = [], []
    start = time.perf_counter()
    pass_s = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + pass_s <= args.seconds):
        t_pass = time.perf_counter()
        setup_s = measure_setup(pipe, src, ledger)
        rounds = run_pass(pipe, expected) if setup_s is not None else None
        if rounds is None:
            return {}, {}
        setup.append(setup_s)
        passes.append(rounds)
        pass_s = time.perf_counter() - t_pass
    measured = time.perf_counter() - start
    first = passes[0]
    sample = pooled(first)
    ledger.check(all([r.records for r in p] == [r.records for r in first] for p in passes),
                 "passes over the same rounds gave different results",
                 ops=sample["trials"] * (len(passes) - 1))
    gate(sample, ref, ledger)

    def fastest(step):
        return min(getattr(r, step) for p in passes for r in p)

    sim_s = sum(min(p[i].sim_s for p in passes) for i in range(len(first)))
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "trials_per_s": metric(sample["trials"] / sim_s, "1/s"),
        "construct_s": metric(fastest("construct_s"), "s"),
        "verify_s": metric(fastest("verify_s"), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    samples = {step: [[getattr(r, step) for r in p] for p in passes] for step in STEPS}
    extra = {"passes": len(passes), "measured_s": measured, "bler_sample": sample,
             "steer": {"steps_per_cpu": pipe.steer.chosen, "spent_s": pipe.steer.spent_s},
             "samples_s": {"setup": setup, **samples}}
    return metrics, extra


def traced(pipe: Pipeline, args, expected: dict, ref: dict, env: dict) -> tuple[dict, dict]:
    wl, ledger = pipe.wl, pipe.ledger
    walls, runs = [], []
    tracer = Tracer()
    for traced_pass in (False, True):
        if traced_pass:
            tracer.install()
        try:
            rounds = run_pass(pipe, expected)
        finally:
            tracer.uninstall()
        if rounds is None:
            return {}, {}
        walls.append(sum(r.wall_s for r in rounds))
        runs.append(rounds)
    plain, seen = runs
    sample = pooled(plain)
    gate(sample, ref, ledger)
    traced_sample = pooled(seen)
    n = traced_sample["trials"]
    ledger.check([r.records for r in plain] == [r.records for r in seen],
                 "traced and untraced passes gave different results", ops=n)
    bad = sum(not np.array_equal(channel.syndrome_of(code, role, est), syn)
              for code, role, syn, est in tracer.successes)
    ledger.check(bad == 0, f"{bad} of {len(tracer.successes)} successful decodes "
                           "do not reproduce their syndrome", ops=bad)
    ledger.check(len(tracer.decodes) == n
                 and sum(not ok for _, _, ok in tracer.decodes) == traced_sample["fail_count"]
                 and sum(it for _, it, _ in tracer.decodes)
                 == round(traced_sample["mean_iterations"] * n),
                 "traced decode outcomes disagree with the simulation records", ops=n)
    metrics, counts = layer_metrics(tracer, pipe, traced_sample, walls)
    ledger.check(metrics["trace.layer_coverage"]["value"] >= MIN_COVERAGE,
                 f"layer self times cover only {metrics['trace.layer_coverage']['value']:.3f} "
                 f"of the traced wall time (need {MIN_COVERAGE})")
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{wl.name}-{args.size}-seed{args.seed}.json")
    tracer.dump(spans_path, {"env": env, "counts": counts,
                             "walls_s": {"untraced": walls[0], "traced": walls[1]}})
    return metrics, {"counts": counts, "spans_file": spans_path, "bler_sample": sample}


def layer_metrics(tracer: Tracer, pipe: Pipeline, sample: dict, walls) -> tuple[dict, dict]:
    s = tracer.summary()

    def total(name):
        return s.get(name, {}).get("total", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self", 0.0)

    decodes = len(tracer.decodes)
    iterations = sum(it for _, it, _ in tracer.decodes)
    wasted = sum(it for _, it, ok in tracer.decodes if not ok)
    durations = sorted(tracer.decode_durations())
    pivots, free = tracer.solve_shapes[-1] if tracer.solve_shapes else (0, 0)
    counts = {
        "decoder.op_count": tracer.op_count,
        "decoder.iterations": iterations,
        "decoder.decodes": decodes,
        "decoder.wht_calls": calls(WHT),
        "decoder.wht_elems": tracer.wht_elems,
        "decoder.syndrome_calls": calls(SYNDROME),
        "nblift.cycle_structure_calls": calls("nblift.cycle_structure"),
        "nblift.verify_orthogonal_calls": calls("nblift.verify_orthogonal"),
        "binexpand.binary_orthogonal_calls": calls("binexpand.binary_orthogonal"),
        "qcpair.expand_calls": calls("qcpair.expand"),
        "modring.pivots": pivots,
        "modring.free_vars": free,
        "binexpand.nbqc_bytes": pipe.nbqc_bytes(),
    }
    seconds = {
        "decoder.wht_s": total(WHT),
        "decoder.decode_self_s": self_s(DECODE),
        "decoder.syndrome_s": total(SYNDROME),
        "decoder.init_s": total("decoder.SyndromeDecoder.__init__"),
        "channel.sample_error_s": total("channel.sample_error"),
        "harness.trial_rng_s": total("harness.trial_rng"),
        "harness.verify_pair_files_self_s": self_s("harness.verify_pair_files"),
        "harness.build_parser_s": total("harness.build_parser"),
        "nblift.cycle_structure_s": total("nblift.cycle_structure"),
        "nblift.assemble_constraints_self_s": self_s("nblift.assemble_constraints"),
        "nblift.lift_gamma_self_s": self_s("nblift.lift_gamma"),
        "nblift.solve_delta_self_s": self_s("nblift.solve_delta"),
        "nblift.verify_orthogonal_s": total("nblift.verify_orthogonal"),
        "modring.solve_mod_s": total("modring.solve_mod"),
        "modring.sample_solution_s": total("modring.sample_solution"),
        "binexpand.expand_pair_self_s": self_s("binexpand.expand_pair"),
        "binexpand.binary_orthogonal_s": total("binexpand.binary_orthogonal"),
        "binexpand.write_matrix_s": total("binexpand.write_matrix"),
        "binexpand.read_matrix_s": total("binexpand.read_matrix"),
        "qcpair.build_pair_s": total("qcpair.build_pair"),
        "qcpair.expand_s": total("qcpair.expand"),
        "qcpair.has_4cycle_s": total("qcpair.has_4cycle"),
        "qcpair.validate_params_s": total("qcpair.validate_params"),
        "gf2p.make_field_s": total("gf2p.make_field"),
    }
    # What the named layers explain: the self time of every span outside the
    # harness, plus the harness layers that are metrics of their own.  The
    # self time of the harness drivers (main, cmd_*, simulate_sweep/_point)
    # and untraced time between spans are left unexplained.
    explained = (sum(v["self"] for name, v in s.items() if not name.startswith("harness."))
                 + sum(v for name, v in seconds.items() if name.startswith("harness.")))
    metrics = {name: metric(v, "s") for name, v in seconds.items()}
    metrics.update({name: metric(v, "bytes" if name.endswith("_bytes") else "count")
                    for name, v in counts.items()})
    metrics.update({
        "decoder.us_per_iteration": metric(1e6 * total(DECODE) / max(iterations, 1), "us"),
        "decoder.mean_iterations": metric(iterations / max(decodes, 1), "count"),
        "decoder.max_iter_frac": metric(
            sum(not ok for _, _, ok in tracer.decodes) / max(decodes, 1), "ratio"),
        "decoder.wasted_iter_frac": metric(wasted / max(iterations, 1), "ratio"),
        "decoder.decode_ms_p50": metric(1e3 * statistics.median(durations), "ms"),
        "decoder.decode_ms_p99": metric(
            1e3 * durations[math.ceil(0.99 * len(durations)) - 1], "ms"),
        "decoder.bler": metric(sample["bler"], "ratio"),
        "trace.overhead_frac": metric(walls[1] / walls[0] - 1.0, "ratio"),
        "trace.layer_coverage": metric(explained / walls[1], "ratio"),
        "trace.spans": metric(len(tracer.spans), "count"),
    })
    return metrics, counts


# -- entry --------------------------------------------------------------------


def run(args) -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbqc.__file__)))
    table = WORKLOADS[args.size]
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    if src != os.path.join(os.getcwd(), "src"):
        print(f"error: nbqc was imported from {src}, not ./src", file=sys.stderr)
        return 2
    wl = table[args.workload]
    ref = load_reference(args.size, wl.name)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    ledger = Ledger()
    pipe = Pipeline(wl, args.seed, work, ledger)
    expected = ref["digests"].get(str(pipe.lift_seed))
    metrics, extra, env = {}, {}, {}
    try:
        # warm-up round: writes the files that set-up loads, fills caches
        if pipe.round(WARMUP_ROUND, expected) is not None:
            exact_gate(pipe, ref)
        if ledger.correct:
            env = environment(args, wl, pipe, src)
            if args.trace:
                metrics, extra = traced(pipe, args, expected, ref, env)
            else:
                metrics, extra = untraced(pipe, args, expected, ref, src)
    finally:
        pipe.steer.release()
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for key, value in extra.items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']!r} {m['unit']}")
    print(f"# failed_frac = {ledger.failed / max(ledger.attempted, 1)!r} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"# FAIL {problem}")
    ok = ledger.correct and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": max(ledger.attempted, 1),
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ok else 1
