"""amrex benchmark: seeded workloads run the way users run amrex.

    python3 perfbench/run.py --workload fever-verify --seed 1 --seconds 36 --trace 0

``--trace 0`` launches the workload's ``amrex`` command again and again in
fresh processes for ``--seconds`` and reports the end-to-end metrics:
``pairs_per_s``, ``setup_s`` (a fresh process doing only the command's
set-up calls, scaled by a calibration process run just before it),
``peak_rss_mb`` and, as ``attempted``/``failed``, the runs that failed the
output gate.  ``--trace 1`` alternates untraced runs with
traced in-process runs (see tracer.py) and reports the per-layer metrics.
``--workload all`` runs every workload, interleaved run by run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, the output SHA-256 and a run record.  Only
the standard library is used, and amrex is imported only in the child
processes, from ``src`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from stub import EmbeddingStub  # noqa: E402

ROOT = os.path.dirname(HERE)
LAUNCH = "import sys; from amrex.cli import main; sys.argv[0] = 'amrex'; main()"
# The whole invocation must end within this many seconds.
TIME_LIMIT_S = 170
ORACLE_SAMPLE = 60
# Wall seconds of calibrate.py on the reference host: each set-up probe's
# wall is scaled by this over the wall of the calibration run just before
# it, so setup_s reads as on the reference host (see README.md).
REFERENCE_CALIBRATION_S = 0.25
# Default lambda per dataset when --lambda is not given (see README).
DEFAULT_LAMBDA = {"fever": 0.0, "averitec": 0.9}
THRESHOLD = 0.6
SWEEP = [f"{i / 10:g}" for i in range(11)]

END_TO_END_UNITS = {"pairs_per_s": "pairs/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graph.parse_penman.calls": "count", "graph.parse_penman.s": "s",
    "ingest.load_amr_bundle.s": "s", "ingest.load_claims.s": "s",
    "ingest.join_amrs.s": "s",
    "smatch.align.calls": "count", "smatch.align.s": "s",
    "smatch.align.ms_p50": "ms", "smatch.align.ms_p90": "ms",
    "smatch.align.ms_max": "ms",
    "smatch.oracle_agree_ratio": "ratio", "smatch.mapping_sha256": "hash",
    "similarity.embed.calls": "count", "similarity.embed.hit_ratio": "ratio",
    "similarity.embed.s": "s", "similarity.cosine.s": "s",
    "similarity.service.requests": "count",
    "similarity.service.texts_per_request": "texts/request",
    "similarity.service.bytes": "B", "similarity.service.stub_busy_s": "s",
    "similarity.service.wait_s": "s",
    "verdict.verify_claim.s": "s", "verdict.aggregate.calls": "count",
    "verdict.aggregate.s": "s",
    "evaluation.lambda_sweep.s": "s", "evaluation.predictions_at_lambda.s": "s",
    "evaluation.score_predictions.s": "s",
    "cli.dispatch.s": "s", "cli.self_s": "s", "cli.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio", "output.sha256": "hash",
}
# Per-layer metrics that must repeat exactly between traced runs.
EXACT = [name for name, unit in PER_LAYER_UNITS.items()
         if unit in ("count", "hash", "B") or name == "smatch.oracle_agree_ratio"]


def digest_number(hexdigest: str) -> int:
    """The first 52 bits of a hex digest, exact as a JSON number."""
    return int(hexdigest[:13], 16)


class Run:
    """One finished process: exit code, wall seconds, resource usage and,
    once gated, the output digest or the reason it failed."""

    def __init__(self, code: int, wall: float, usage, load: float):
        self.code = code
        self.wall = wall
        self.usage = usage
        self.load = load
        self.sha256: str | None = None
        self.error: str | None = None
        self.calibration_s: float | None = None   # for a set-up probe

    @property
    def rss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024     # ru_maxrss is in KiB on Linux

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.lower().endswith("_proxy") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def launch(argv: list[str], stdout_path: str, deadline: float) -> Run:
    """Run *argv* to completion; kill it if it outlives *deadline*."""
    load = os.getloadavg()[0]
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage, load)


def read_output(path: str) -> bytes:
    """The bytes a run wrote to *path*; nothing if it wrote no file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def gate(run: Run, output: bytes, check, expected_sha: str | None) -> None:
    """Mark *run* failed unless it exited 0, its output passes *check* and
    its digest equals the digest of the workload's earlier runs."""
    if run.code != 0:
        run.error = f"exit code {run.code}"
        return
    run.sha256 = hashlib.sha256(output).hexdigest()
    try:
        run.error = check(output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        run.error = f"malformed output: {exc!r}"
    if run.error is None and expected_sha not in (None, run.sha256):
        run.error = f"output sha256 {run.sha256[:12]} differs from {expected_sha[:12]}"


def _th2(e: Fraction, dataset: str) -> str:
    tenth, half = Fraction(1, 10), Fraction(1, 2)
    if dataset == "fever":
        return "S" if e >= tenth else "R" if e <= -tenth else "N"
    if e >= half:
        return "S"
    if e <= -half:
        return "R"
    return "N" if -tenth <= e <= tenth else "C"


def check_verdicts(inputs: workloads.Inputs, output: bytes) -> str | None:
    """Every claim gets one row, in input order, whose pair scores, blend,
    decisions and label agree with each other and with the reference pairs."""
    lam = DEFAULT_LAMBDA[inputs.dataset]
    lines = output.decode("utf-8").splitlines()
    if len(lines) != len(inputs.claims):
        return f"{len(lines)} verdict rows, expected {len(inputs.claims)}"
    for claim, line in zip(inputs.claims, lines):
        row = json.loads(line)
        cid = claim["claim_id"]
        if row["claim_id"] != cid:
            return f"row for {row['claim_id']!r} where {cid!r} was expected"
        if [p["evidence_id"] for p in row["pairs"]] != [e["id"] for e in claim["evidence"]]:
            return f"claim {cid}: evidence ids differ from the input"
        for p in row["pairs"]:
            blend = lam * p["smatch_p"] + (1 - lam) * p["cosine"]
            if (not 0 <= p["smatch_p"] <= 1 or abs(p["f"] - blend) > 1e-9
                    or p["decision"] != (1 if p["f"] >= THRESHOLD else -1)):
                return f"claim {cid}: inconsistent pair {p['evidence_id']}"
        e = Fraction(sum(p["decision"] for p in row["pairs"]), len(row["pairs"]))
        if abs(row["e"] - float(e)) > 1e-12 or row["label"] != _th2(e, inputs.dataset):
            return f"claim {cid}: label {row['label']} does not follow from e"
        if cid in inputs.reference:
            if abs(row["pairs"][0]["smatch_p"] - inputs.reference[cid]) > \
                    workloads.REFERENCE_TOLERANCE:
                return f"claim {cid}: smatch_p {row['pairs'][0]['smatch_p']:.3f} " \
                       f"is off its reference {inputs.reference[cid]}"
    return None


def check_sweep(output: bytes) -> str | None:
    """A markdown table with one row per lambda 0, 0.1, ..., 1 and four
    per-label F1, macro F1 and accuracy cells in [0, 1]."""
    lines = output.decode("utf-8").splitlines()
    if len(lines) != 2 + len(SWEEP):
        return f"{len(lines)} sweep table lines, expected {2 + len(SWEEP)}"
    for lam, line in zip(SWEEP, lines[2:]):
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] != lam or len(cells) != 7:
            return f"bad sweep row {line!r}"
        try:
            if not all(0 <= float(c) <= 1 for c in cells[1:]):
                return f"sweep cell out of range in {line!r}"
        except ValueError:
            return f"non-numeric sweep cell in {line!r}"
    return None


class Workload:
    """Generated inputs of one workload, its command and its output gate."""

    def __init__(self, name: str, seed: int, work: str, stub: EmbeddingStub | None):
        self.name = name
        self.dir = os.path.join(work, name)
        os.makedirs(self.dir)
        self.inputs = workloads.GENERATORS[name](seed, ROOT)
        claims, amrs = self.inputs.write(self.dir)
        dataset = self.inputs.dataset
        if name == "averitec-sweep":
            self.backend = f"service:{stub.url}"
            self.args = ["evaluate", "--dataset", dataset, "--claims", claims,
                         "--amrs", amrs, "--backend", self.backend,
                         "--sweep", "0:1:0.1", "--empty-evidence", "label-N"]
            self.out_flag = False   # the sweep table goes to stdout
        else:
            self.backend = "test"
            self.args = ["verify", "--dataset", dataset, "--claims", claims,
                         "--amrs", amrs, "--backend", self.backend]
            self.out_flag = True
        self.probe_args = [dataset, claims, amrs, self.backend]
        self.seed = seed
        self.runs: list[Run] = []
        self.probes: list[Run] = []
        self.traced: list[tuple[Run, dict, dict]] = []   # run, record, service
        self.errors: list[str] = []     # failures found across runs
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.dir, f"{stem}-{self.count}")

    def argv(self, out: str) -> list[str]:
        return self.args + (["--out", out] if self.out_flag else [])

    def check(self, output: bytes) -> str | None:
        if self.out_flag:
            return check_verdicts(self.inputs, output)
        return check_sweep(output)

    def output_path(self, out: str, stdout: str) -> str:
        return out if self.out_flag else stdout

    @property
    def sha256(self) -> str | None:
        return next((r.sha256 for r in self.runs if r.error is None), None)

    @property
    def attempted(self) -> list[Run]:
        return self.runs + self.probes + [run for run, _, _ in self.traced]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.attempted if r.error) + len(self.errors)

    @functools.cached_property
    def oracle_pairs(self) -> list[list[str]]:
        """A seeded sample of averitec-sweep (answer, claim) Penman pairs,
        all small enough for the exhaustive alignment."""
        inputs = workloads.averitec_sweep(self.seed, ROOT)
        bundle = {row["id"]: row["penman"] for row in inputs.bundle}
        pairs = [[penman, bundle[rid.rsplit("-e", 1)[0]]]
                 for rid, penman in bundle.items() if "-e" in rid]
        return random.Random(f"oracle:{self.seed}").sample(pairs, ORACLE_SAMPLE)

    def run(self, deadline: float) -> Run:
        """One untraced run of the command in a fresh process."""
        out = self.path("out")
        stdout = out + ".stdout"
        run = launch([sys.executable, "-c", LAUNCH, *self.argv(out)], stdout, deadline)
        gate(run, read_output(self.output_path(out, stdout)), self.check, self.sha256)
        self.runs.append(run)
        return run

    def probe(self, deadline: float) -> Run:
        """A calibration run, then one fresh process doing only the
        command's set-up calls."""
        calibration = launch([sys.executable, os.path.join(HERE, "calibrate.py")],
                             self.path("calibrate"), deadline)
        run = launch([sys.executable, os.path.join(HERE, "setup_probe.py"),
                      *self.probe_args], self.path("probe"), deadline)
        run.error = None if run.code == 0 else f"exit code {run.code}"
        if calibration.code != 0:
            run.error = f"calibration exit code {calibration.code}"
        run.calibration_s = calibration.wall
        self.probes.append(run)
        return run

    def round(self, deadline: float) -> None:
        """A set-up probe on each side of one run of the command."""
        self.probe(deadline)
        self.run(deadline)
        self.probe(deadline)

    def trace(self, deadline: float, stub: EmbeddingStub | None) -> Run:
        """One traced in-process run through amrex.cli.dispatch."""
        out = self.path("traced")
        spec = {"argv": self.argv(out), "stdout": out + ".stdout",
                "oracle_pairs": self.oracle_pairs}
        spec_path, record_path = out + ".spec.json", out + ".record.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        before = stub.counters.snapshot() if stub else None
        run = launch([sys.executable, os.path.join(HERE, "tracer.py"),
                      spec_path, record_path], out + ".log", deadline)
        after = stub.counters.snapshot() if stub else None
        service = ({k: after[k] - before[k] for k in after} if stub else
                   {"requests": 0, "texts": 0, "bytes": 0, "busy_s": 0.0})
        record = {}
        if run.code == 0:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            run.code = record["exit"]
        gate(run, read_output(self.output_path(out, spec["stdout"])),
             self.check, self.sha256)
        self.traced.append((run, record, service))
        return run


def tail(values: list[float], higher_is_better: bool) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values, reverse=higher_is_better)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - p / 100) >= 10:
            return f"p{p:g} {ordered[int(len(values) * p / 100)]:.4g}"
    return "no percentile has 10 samples beyond it"


def end_to_end(w: Workload) -> dict[str, float]:
    good = [r for r in w.runs if r.error is None]
    probes = [r for r in w.probes if r.error is None]
    metrics = {}
    if good:
        metrics["pairs_per_s"] = statistics.median(w.inputs.pairs / r.wall for r in good)
        metrics["peak_rss_mb"] = statistics.median(r.rss_mb for r in good)
    if probes:
        metrics["setup_s"] = statistics.median(
            r.wall * REFERENCE_CALIBRATION_S / r.calibration_s for r in probes)
    return metrics


def per_layer(w: Workload) -> dict[str, float]:
    traced = [(run, rec, svc) for run, rec, svc in w.traced if run.error is None]
    untraced = [r for r in w.runs if r.error is None]
    if not traced or not untraced:
        return {}
    rows = []
    for run, record, service in traced:
        m = tracer.layer_metrics(record)
        m["smatch.oracle_agree_ratio"] = record["oracle_agree_ratio"]
        m["smatch.mapping_sha256"] = digest_number(record["mapping_sha256"])
        m["output.sha256"] = digest_number(run.sha256)
        m["similarity.service.requests"] = service["requests"]
        m["similarity.service.texts_per_request"] = (
            service["texts"] / service["requests"] if service["requests"] else 0.0)
        m["similarity.service.bytes"] = service["bytes"]
        m["similarity.service.stub_busy_s"] = service["busy_s"]
        m["similarity.service.wait_s"] = (m["similarity.embed.s"] - service["busy_s"]
                                          if service["requests"] else 0.0)
        m["traced_wall_s"] = run.wall - record["guard_s"]
        rows.append(m)
    for name in EXACT:
        if len({row[name] for row in rows}) > 1:
            w.errors.append(f"{name} differs between traced runs")
    metrics = {name: rows[0][name] if name in EXACT
               else statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_ratio"] = (metrics.pop("traced_wall_s")
                                       / statistics.median(r.wall for r in untraced))
    metrics["cli.cpu_per_wall"] = statistics.median(r.cpu_s / r.wall for r in untraced)
    return metrics


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report(w: Workload, metrics: dict[str, float], units: dict[str, str]) -> None:
    attempted = w.attempted
    print(f"== {w.name} (seed {w.seed}): {len(w.runs)} runs, {len(w.probes)} set-up "
          f"probes, {len(w.traced)} traced runs; output sha256 {w.sha256}")
    samples = {"pairs_per_s": ([w.inputs.pairs / r.wall for r in w.runs if not r.error], True),
               "peak_rss_mb": ([r.rss_mb for r in w.runs if not r.error], False),
               "setup_s as measured": ([r.wall for r in w.probes if not r.error], False),
               "calibration_s": ([r.calibration_s for r in w.probes if not r.error], False)}
    for name, unit in units.items():
        if name not in metrics:
            print(f"  {name:38s} missing")
            continue
        value = metrics[name]
        if unit == "hash":
            line = f"  {name:38s} {value:14x} {unit} (first 52 bits)"
        else:
            line = f"  {name:38s} {value:14.6g} {unit}"
        if name in samples:
            values, higher = samples[name]
            line += f"  median; {tail(values, higher)} (n={len(values)})"
        print(line)
    if units is END_TO_END_UNITS and w.probes:
        for name in ("setup_s as measured", "calibration_s"):
            values, higher = samples[name]
            print(f"  {name:38s} {statistics.median(values):14.6g} s"
                  f"  median; {tail(values, higher)} (n={len(values)})")
    print(f"  {'failed_ratio':38s} {w.failed / len(attempted):14.6g} ratio"
          f"  ({w.failed} failed of {len(attempted)} runs)")
    for error in [r.error for r in attempted if r.error] + w.errors:
        print(f"  failed: {error}")
    print("# record " + json.dumps({
        "workload": w.name, "seed": w.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "load_1min": [round(r.load, 2) for r in attempted],
        "run_walls_s": [round(r.wall, 4) for r in w.runs],
        "probe_walls_s": [round(r.wall, 4) for r in w.probes],
        "calibration_walls_s": [round(r.calibration_s, 4) for r in w.probes],
        "shape": w.inputs.shape(), "output_sha256": w.sha256,
    }))


def remove_work_dir(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):     # still in use by another run
        os.rmdir(os.path.dirname(work))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    hard_deadline = start + TIME_LIMIT_S
    for needed in ("src/amrex/cli.py", "tests/_fixtures.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run the benchmark "
                  "from a checkout of the repository", file=sys.stderr)
            return 2

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(remove_work_dir, work)
        stub = (cleanup.enter_context(EmbeddingStub())
                if "averitec-sweep" in names else None)
        suite = [Workload(name, args.seed, work, stub) for name in names]
        # Compile amrex's bytecode once so no measured run pays for it.
        suite[0].probe(hard_deadline)
        suite[0].probes.clear()
        measure_start = time.perf_counter()
        deadline = measure_start + args.seconds
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for w in suite:             # interleave workloads run by run
                if args.trace:
                    w.run(hard_deadline)
                    w.trace(hard_deadline, stub)
                else:
                    w.round(hard_deadline)
            rounds += 1
            now = time.perf_counter()
            # Stop where the next round would end nearer the deadline than
            # this one, or could not finish before the hard limit.
            if now + (now - measure_start) / rounds / 2 > deadline \
                    or now + 2 * (now - round_start) > hard_deadline:
                break

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    all_metrics, attempted, failed = {}, 0, 0
    for w in suite:
        metrics = per_layer(w) if args.trace else end_to_end(w)
        report(w, metrics, units)
        attempted += len(w.attempted)
        failed += w.failed
        prefix = "" if len(suite) == 1 else f"{w.name}/"
        all_metrics.update({prefix + name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()})
    correct = failed == 0 and len(all_metrics) == len(units) * len(suite)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
