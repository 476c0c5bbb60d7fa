"""permorb benchmark: four closed-loop workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload audit-cli --seed 1 --seconds 20 --trace 0

One run: set up (import permorb, generate the seeded inputs into a scratch
directory, one untimed warm-up op), then repeat whole rotations of the
workload's ops until ``--seconds`` have passed, checking every op's output.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rotations and prints the per-layer metrics.  The last
line of stdout is the result object; earlier lines starting with ``#`` carry
the environment, per-op output digests and summaries.  Full results (and
the span records of a traced run) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOAD_NAMES = ("certify-exhaustive", "certify-flagship", "audit-cli", "spot-check")
MIN_ROTATIONS = 4  # every op repeats at least this often, for its best-of
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median of these and the run's own

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer span metrics: "<layer>.<function>.calls|self_s", or ".s" for kernels.
SPAN_METRICS = [
    "separation.certify_separation.calls",
    "separation.certify_separation.self_s",
    "kernel.svd.calls",
    "kernel.svd.s",
    "kernel.sort.calls",
    "kernel.sort.s",
    "kernel.lsap.calls",
    "kernel.lsap.s",
    "core.as_matrix.calls",
    "core.as_matrix.self_s",
    "core.json_dumps.self_s",
    "core.load_matrix_csv.self_s",
    "cli.main.self_s",
    "embeddings.sorted_embedding.calls",
    "embeddings.sorted_embedding.self_s",
    "embeddings.pooled_embedding.calls",
    "embeddings.pooled_embedding.self_s",
    "embeddings.sketched_embedding.calls",
    "embeddings.sketched_embedding.self_s",
    "metrics.orbit_distance.calls",
    "metrics.orbit_distance.self_s",
    "separation.spot_check_injectivity.self_s",
    "audit.empirical_distortion.self_s",
    "audit.sample_pair_pool.self_s",
    "audit.ose_check.self_s",
    "audit.gaussian_sketch.self_s",
    "audit.projective_uniformity.self_s",
    "audit.subset_sigma_lower_bound.self_s",
    "constructions.adversarial_circle_pair.calls",
    "constructions.adversarial_circle_pair.self_s",
]
DERIVED_METRICS = {
    "separation.tuples_examined": "count",
    "separation.parallel_util": "ratio",
    "separation.spot_check_injectivity.accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


def span_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


def per_layer_units() -> dict[str, str]:
    units = {name: span_unit(name) for name in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def hygiene() -> None:
    """Run before numpy is imported: no budget override, single-threaded BLAS."""
    os.environ.pop("PERMORB_BUDGET", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_failed(message: str):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def setup(name: str, seed: int, workdir: Path):
    """Import permorb, generate the inputs and run the warm-up op; returns (seconds, workload)."""
    start = time.perf_counter()
    if not (SRC / "permorb" / "__init__.py").is_file():
        setup_failed(f"no permorb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import permorb

    if Path(permorb.__file__).resolve().parent != (SRC / "permorb").resolve():
        setup_failed(f"imported permorb from {permorb.__file__}, not {SRC}")
    from perfbench import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warmup()
    return time.perf_counter() - start, workload


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class SetupProbes:
    """``count`` set-up probes spread evenly through the timed loop.

    The host's speed changes in spells of seconds, so probes taken back to
    back share one spell; spread out, their median is steadier.  Before the
    first probe the peak RSS of the children so far (the pool workers) is
    read, so that the probes themselves never count in ``peak_rss_mb``.
    """

    def __init__(self, name: str, seed: int, count: int, seconds: float):
        self.name, self.seed, self.count, self.seconds = name, seed, count, seconds
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in probes, not counted as loop time
        self.children_kb: int | None = None

    def _probe(self) -> None:
        if self.children_kb is None:
            self.children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        start = time.perf_counter()
        self.samples.append(probe_setup(self.name, self.seed))
        self.spent += time.perf_counter() - start

    def tick(self, elapsed: float) -> None:
        """Probe if ``elapsed`` loop seconds have reached the next probe's turn."""
        if len(self.samples) < self.count and elapsed >= (
            (len(self.samples) + 1) * self.seconds / (self.count + 1)
        ):
            self._probe()

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self._probe()

    def peak_rss_mb(self) -> float:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(kb, self.children_kb or 0) / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The host's speed drifts by tens of percent over minutes, so end-to-end
# timings are reported at a reference speed: scaled by CALIBRATION_REF_S over
# the best time of ``calibrate`` in the same run.  CALIBRATION_REF_S is that
# best time on the 2-core Intel Xeon machine where the baseline was recorded.
CALIBRATION_REF_S = 0.01
CALIBRATION_LOOPS = 100_000
CALIBRATION_EVERY_S = 0.25  # between rotations, calibrate at most this often
CALIBRATION_SHARE = 0.1  # and for this share of the time since the last calibration


def calibrate() -> float:
    """Seconds for a fixed loop of interpreter work, the host-speed probe."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples spread through a run; their best sets the scale.

    A fast spell must fall into some calibration window for the best to be
    the fast-spell speed, so a long rotation earns a longer window after it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self, seconds: float) -> None:
        """Calibrate for ``seconds``, and at least twice."""
        end = time.perf_counter() + seconds
        self.samples += [calibrate(), calibrate()]
        while time.perf_counter() < end:
            self.samples.append(calibrate())
        self.last = time.perf_counter()

    def tick(self) -> None:
        gap = time.perf_counter() - self.last
        if gap >= CALIBRATION_EVERY_S:
            self.sample(CALIBRATION_SHARE * gap)

    def scale(self) -> float:
        """Factor taking this run's seconds to seconds at the reference speed."""
        return CALIBRATION_REF_S / min(self.samples)


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


class Checker:
    """Per-op invariants plus, on the recorded seed, the expected records."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.records: dict[str, dict] = {}
        self.problems: list[str] = []

    def __call__(self, key: str, outcome) -> bool:
        problems = list(outcome.problems)
        record = json.loads(json.dumps(outcome.record))
        if self.expected is not None and self.expected.get(key) != record:
            problems.append(f"record {record} != expected {self.expected.get(key)}")
        first = self.digests.setdefault(key, outcome.digest)
        if first != outcome.digest:
            problems.append(f"output digest {outcome.digest} differs from this run's first {first}")
        self.records.setdefault(key, record)
        self.problems += [f"{key}: {p}" for p in problems]
        return not problems


def run_op(op, check: Checker, tracer=None, op_id=None) -> dict:
    """Runs one op; returns its sample: latency_s, cpu_s, units, ok."""
    try:
        op.prepare()
        if tracer is not None:
            tracer.op = op_id
        try:
            cpu0, start = cpu_seconds(), time.perf_counter()
            result = op.call()
            latency, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.op = None
        outcome = op.inspect(result)
    except (Exception, SystemExit):  # an op failure is counted, never fatal to the run
        traceback.print_exc(file=sys.stderr)
        check.problems.append(f"{op.key}: raised")
        return {"key": op.key, "ok": False}
    ok = check(op.key, outcome)
    return {"key": op.key, "ok": ok, "latency_s": latency, "cpu_s": cpu, "units": outcome.units}


def measure(workload, seconds: float, check: Checker, tracer=None, host=None,
            probes=None) -> list[dict]:
    """Whole rotations until ``seconds`` pass, and at least MIN_ROTATIONS.

    With a tracer, odd rotations are traced.  Between rotations the host
    speed is sampled and ``probes`` take their turns; probe time is not
    loop time.  Returns one dict per rotation, holding its op samples.
    """
    from perfbench import tracing

    rotations = []
    begin = time.perf_counter()
    while True:
        index = len(rotations)
        traced = tracer is not None and index % 2 == 1
        rot = {"traced": traced, "ops": []}
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            for k, op in enumerate(workload.ops):
                rot["ops"].append(run_op(op, check, tracer if traced else None, f"{index}.{k}"))
        rot["wall_s"] = time.perf_counter() - t0
        rot["cpu_s"] = cpu_seconds() - cpu0
        rotations.append(rot)
        if host is not None:
            host.tick()
        if probes is not None:
            probes.tick(time.perf_counter() - begin - probes.spent)
        spent = probes.spent if probes is not None else 0.0
        if time.perf_counter() - begin - spent >= seconds and len(rotations) >= MIN_ROTATIONS:
            return rotations


def counts(rotations) -> tuple[int, int]:
    samples = [s for r in rotations for s in r["ops"]]
    return len(samples), sum(not s["ok"] for s in samples)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def best(rotations, field: str) -> dict[str, float]:
    """Per op key, the smallest value of ``field`` over the rotations given.

    The host alternates between fast and slow spells lasting seconds, so a
    median over one run lands in whichever spell dominated it; the best of
    many repeats of one op estimates its fast-spell cost far more steadily.
    """
    out: dict[str, float] = {}
    for rot in rotations:
        for sample in rot["ops"]:
            if sample["ok"]:
                value = sample[field]
                out[sample["key"]] = min(out.get(sample["key"], value), value)
    return out


def rotation_units(rotations) -> int:
    return sum(s.get("units", 0) for s in rotations[0]["ops"])


def end_to_end(setup_samples, rotations, peak_mb: float, scale: float = 1.0) -> dict[str, float]:
    """End-to-end metrics; every time is multiplied by ``scale``.

    With no op that passed its checks, the op times read 0.
    """
    latency = best(rotations, "latency_s")
    wall = sum(latency.values()) * scale
    return {
        "setup_s": statistics.median(setup_samples) * scale,
        "wall_s": wall,
        "op_p50_s": statistics.median(latency.values()) * scale if latency else 0.0,
        "units_per_s": rotation_units(rotations) / wall if wall else 0.0,
        "cpu_s": sum(best(rotations, "cpu_s").values()) * scale,
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, rotations, tracer) -> dict[str, float | None]:
    """Per-layer metrics per traced rotation.

    Spans inside pool workers are not collected, so on a workload with
    workers a span the parent never entered is absent (None), not zero.
    """
    plain = [r for r in rotations if not r["traced"]]
    traced = [r for r in rotations if r["traced"]]
    ops = {f"{i}.{k}" for i, r in enumerate(rotations) if r["traced"] for k in range(len(r["ops"]))}
    totals = tracer.totals(ops)
    out = {}
    for name in SPAN_METRICS:
        span, _, stat = name.rpartition(".")
        agg = totals.get(span)
        if agg is None:
            out[name] = None if workload.workers > 1 else 0
            continue
        out[name] = agg[{"calls": "calls", "self_s": "self_s", "s": "total_s"}[stat]] / len(traced)
    certify = workload.name.startswith("certify")
    out["separation.tuples_examined"] = rotation_units(traced) if certify else 0
    out["separation.parallel_util"] = statistics.median(
        r["cpu_s"] / (r["wall_s"] * workload.workers) for r in plain
    )
    trials = rotation_units(traced) * len(traced) if workload.name == "spot-check" else 0
    distance_calls = sum(
        calls for (op, name, parent), (calls, _t, _c) in tracer.records.items()
        if op in ops and name == "metrics.orbit_distance"
        and parent == "separation.spot_check_injectivity"
    )
    out["separation.spot_check_injectivity.accept_ratio"] = (
        trials / distance_calls if distance_calls else 0.0
    )
    out["trace.overhead_s"] = (
        sum(best(traced, "latency_s").values()) - sum(best(plain, "latency_s").values())
    )
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, in this interpreter, and print the seconds it took")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's op outputs as the expected records for its seed")
    return parser.parse_args(argv)


def load_expected(workload: str, seed: int) -> dict | None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if data.get("seed") != seed:
        return None
    return data.get("workloads", {}).get(workload, {})


def write_expected(workload: str, seed: int, records: dict) -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if data.get("seed", seed) != seed:
        raise SystemExit(f"error: {EXPECTED} records seed {data['seed']}, not {seed}")
    data["seed"] = seed
    data.setdefault("workloads", {})[workload] = records
    data["workloads"] = dict(sorted(data["workloads"].items()))
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    args = parse_args(argv)
    hygiene()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        setup_main, workload = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        from perfbench import tracing

        env = environment(args)
        print("# env " + json.dumps(env), flush=True)
        expected = None if args.write_expected else load_expected(args.workload, args.seed)
        check = Checker(expected)
        tracer = tracing.Tracer() if args.trace else None
        host = HostSpeed()
        host.sample(0.3)
        # set-up is an end-to-end metric only, so a traced run does not probe it
        probes = None if args.trace else SetupProbes(args.workload, args.seed, SETUP_PROBES,
                                                     args.seconds)
        rotations = measure(workload, args.seconds, check, tracer, host, probes)
        if probes is not None:
            probes.finish()
        setup_samples = [setup_main] + (probes.samples if probes is not None else [])
        host.tick()
        attempted, failed = counts(rotations)
        if args.trace:
            values = per_layer(workload, rotations, tracer)
            units = per_layer_units()
            absent = sorted(name for name, value in values.items() if value is None)
            if absent:
                print(f"# absent (inside the {workload.workers} pool workers, not traced) "
                      + " ".join(absent))
        else:
            peak_mb = probes.peak_rss_mb()
            values = end_to_end(setup_samples, rotations, peak_mb, host.scale())
            units = END_TO_END
            print("# raw " + json.dumps(end_to_end(setup_samples, rotations, peak_mb)))
        for key, digest in sorted(check.digests.items()):
            print(f"# digest {args.workload} {key} {digest}")
        for problem in check.problems:
            print(f"# FAILED {problem}")
        plain = [r for r in rotations if not r["traced"]]
        latencies = [s["latency_s"] for r in plain for s in r["ops"] if s["ok"]]
        print("# ops " + json.dumps({
            "rotations": len(rotations), "ops_per_rotation": len(workload.ops),
            "op_latency_quartiles_s": quartiles(latencies) if latencies else None,
            "rotation_wall_quartiles_s": quartiles(r["wall_s"] for r in plain),
            "setup_samples_s": setup_samples, "calibration_best_s": min(host.samples),
            "calibration_samples": len(host.samples), "scale": host.scale(),
        }))
        if args.write_expected and failed == 0:
            write_expected(args.workload, args.seed, check.records)
        OUT.mkdir(exist_ok=True)
        results = {
            "env": env, "plan": workload.plan, "metrics": values, "rotations": rotations,
            "setup_samples_s": setup_samples, "calibration_samples_s": host.samples,
            "digests": check.digests,
            "records": check.records, "problems": check.problems,
        }
        if tracer is not None:
            results["spans"] = {"fields": ["op", "name", "parent", "calls", "total_s", "child_s"],
                                "records": tracer.dump()}
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(results, indent=1) + "\n"
        )
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
