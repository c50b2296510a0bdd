"""nestedtbcc benchmark: design time, decoder throughput and key latency.

    python3 perfbench/run.py --workload fec-m8 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  One process, one caller: no worker pool, BLAS limited to
one thread.  ``--trace 0`` measures the end-to-end metrics, with times
divided by the run's machine factor (see SpeedProbe); ``--trace 1`` runs the
same operations untraced and then traced, and derives the per-layer metrics
from spans around the package's public functions.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}; the
line before it is a JSON report with provenance, digests, quality counts,
the paper's complexity estimates and the tracing overhead.
"""

import os
import sys
import time

T_START = time.perf_counter()  # set-up time counts from here: imports included
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("design-m6", "fec-m8", "keyagree-batch-m6", "keyagree-single-m6")
SETUP_PROBES = 3  # fresh processes that repeat the set-up; setup_s is the median
END_TO_END = [("setup_s", "s"), ("norm_latency_p50_ms", "ms"), ("norm_throughput_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
REF_NOMINAL_S = 0.020  # reference-kernel time that defines the machine factor 1.0
REF_EVERY_S = 1.0      # reference samples between operations, at most this far apart


class SpeedProbe:
    """A fixed kernel owned by the benchmark, timed between operations.

    A shared virtual machine can change speed by up to a third over minutes
    (measured on a 2-vCPU KVM guest), and every wall time moves with it.
    The kernel mixes an interpreter loop with a Viterbi-like
    add-compare-select on numpy arrays, as the package does, and no package
    change can alter it.  The median of
    its times over a run, divided by REF_NOMINAL_S, is the run's machine
    factor; normalised times are wall times divided by it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._add = rng.integers(0, 8, size=(256, 256, 2))
        self._src = rng.integers(0, 256, size=(256, 2))
        self._bp = np.empty((8, 256, 256), dtype=np.int8)
        self.samples = []
        self._last = -REF_EVERY_S

    def sample(self) -> None:
        np = self._np
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i
        metric = np.zeros((256, 256), dtype=np.int64)
        for t in range(len(self._bp)):
            cand = metric[:, self._src] + self._add
            best = cand.argmin(axis=2)
            metric = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0]
            self._bp[t] = best
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return statistics.median(self.samples) / REF_NOMINAL_S


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    if not (SRC / "nestedtbcc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'nestedtbcc'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nestedtbcc
    if Path(nestedtbcc.__file__).resolve().parent != SRC / "nestedtbcc":
        sys.exit(f"perfbench: imported nestedtbcc from {nestedtbcc.__file__}, not {SRC}")


class PassResult:
    def __init__(self):
        self.latencies = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.digest = hashlib.sha256()


def run_pass(wl, seconds=None, n_ops=None, tracer=None, probe=None) -> PassResult:
    """Closed loop: ops until `seconds` have passed (at least the digest ops),
    or exactly `n_ops` ops.  A speed probe, if given, samples between ops."""
    from tracing import OP

    res = PassResult()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (i < n_ops) if n_ops is not None else (
            i < max(wl.digest_ops, 1) or time.perf_counter() < deadline):
        if probe:
            probe.maybe_sample()
        inp = wl.make_input(i)
        span = tracer.open(OP) if tracer else None
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception:
            out = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        outcome = wl.failed_op()
        if out is not None:
            try:
                outcome = wl.check(inp, out)
            except Exception:
                traceback.print_exc()
        res.latencies.append(dt)
        res.items += wl.items_per_op
        res.attempted += outcome.attempted
        res.failed += outcome.failed
        res.errors += outcome.errors
        if i < wl.digest_ops:
            res.digest.update(outcome.blob)
        i += 1
    if probe:
        probe.sample()
    return res


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def tail_percentile(latencies):
    """The highest of p99/p90 with at least ten samples beyond it."""
    n = len(latencies)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    return None, None


def provenance(args) -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    src_digest = hashlib.sha256()
    for p in sorted((SRC / "nestedtbcc").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            src_digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "machine": model, "arch": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "src_sha256": src_digest.hexdigest(),
        "workload_seed": args.seed, "op_seeds": "numpy default_rng((workload_seed, op_index))",
        "command": [Path(sys.executable).name] + sys.argv,
    }


def named_metrics(name, res: PassResult) -> dict:
    """The workload's headline metrics under the names the design notes use."""
    lat = res.latencies
    if name == "design-m6":
        return {"design_s": statistics.median(lat), "designs": len(lat)}
    if name == "keyagree-single-m6":
        p, tail = tail_percentile(lat)
        out = {"key_latency_p50_ms": 1e3 * statistics.median(lat), "samples": len(lat)}
        if p is not None:
            out[f"key_latency_p{p}_ms"] = 1e3 * tail
        return out
    key = "fec_words_per_s" if name == "fec-m8" else "keys_per_s"
    return {key: res.items / sum(lat)}


def run_all(args) -> int:
    """Run every workload, each in its own process, and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def traced_run(wl, args, report: dict):
    """The same ops twice: untraced for the reference, then traced.

    Returns both passes and the per-layer metrics; adds the tracing overhead
    (and on design-m6 the stage-sum check) to the report.
    """
    import tracing
    from nestedtbcc import trellis

    res = run_pass(wl, seconds=args.seconds / 2)
    trellis.build_trellis.cache_clear()  # the traced set-up builds again
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.open(tracing.SETUP)
        wl.setup()
        tracer.close(span)
        traced = run_pass(wl, n_ops=len(res.latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_mean = statistics.fmean(res.latencies)
    overhead = statistics.fmean(traced.latencies) - untraced_mean
    report["tracing_overhead"] = {"s_per_op": overhead, "share": overhead / untraced_mean,
                                  "untraced_mean_s": untraced_mean,
                                  "traced_mean_s": untraced_mean + overhead}
    layer = tracing.per_layer_metrics(tracer.spans, overhead)
    if wl.name == "design-m6":
        stage_sum = sum(layer[f"design.stage.{s}_s"]
                        for s in ("search_fec", "calibrate", "extend", "freeze"))
        report["design_stage_check"] = {
            "stage_sum_s": stage_sum, "design_s_untraced_mean": untraced_mean,
            "difference_s": stage_sum - untraced_mean, "tracing_overhead_s": overhead}
    spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    report["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    return res, traced, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args), "complexity": wl.complexity()}
    if args.trace == 0:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        probe = SpeedProbe()
        res = run_pass(wl, seconds=args.seconds, probe=probe)
        passes = [res]
        factor = probe.factor()
        report["machine"] = {"factor": factor, "reference_samples": len(probe.samples),
                             "reference_nominal_s": REF_NOMINAL_S}
        report["wall"] = {"setup_s": statistics.median(setups), "setup_samples_s": setups,
                          "latency_p50_ms": 1e3 * statistics.median(res.latencies),
                          "throughput_per_s": res.items / sum(res.latencies)}
    else:
        res, traced, layer = traced_run(wl, args, report)
        passes = [res, traced]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = [p.digest.hexdigest() for p in passes]
    report["ops"] = [len(p.latencies) for p in passes]
    report["digest"] = {"sha256": digests[0], "ops": wl.digest_ops,
                        "identical_across_passes": len(set(digests)) == 1}
    report["fail_ratio"] = failed / attempted
    if wl.error_name:
        report["quality"] = {wl.error_name: res.errors / res.attempted,
                             "errors": res.errors, "of": res.attempted}
    report["named"] = named_metrics(wl.name, res)
    p, tail = tail_percentile(res.latencies)
    report["latency"] = {"p50_ms": 1e3 * statistics.median(res.latencies),
                         "samples": len(res.latencies),
                         **({f"p{p}_ms": 1e3 * tail} if p is not None else {})}

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace == 0:
        wall = report["wall"]
        values = {
            "setup_s": wall["setup_s"] / factor,
            "norm_latency_p50_ms": wall["latency_p50_ms"] / factor,
            "norm_throughput_per_s": wall["throughput_per_s"] * factor,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    else:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER}
    print(json.dumps({"report": report}))
    correct = failed == 0 and len(set(digests)) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
