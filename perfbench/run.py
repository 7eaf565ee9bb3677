"""The repository benchmark: one command, three workloads (``BENCHMARK.json``
lists ``build`` and ``triples``; ``update`` runs by hand).

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Generates (once per seed) a Parquet transcripts table and an ontology,
starts a local Ray session sized from the CPU affinity mask, then calls the
workload's job again and again, one call at a time, until ``--seconds`` of
calls have been timed.  Every call runs under a timeout and its output is
checked against an independent DuckDB oracle.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over the calls).
``--trace 1`` reports per-layer metrics: it times the untraced job as well,
then replays the job stage by stage with spans, and measures the matcher
kernels outside Ray.  See README.md.

The command itself only supervises: it runs the benchmark in a child
process and, before it exits, ends and waits for every process the child
started, so no Ray daemon or worker outlives the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbwork")
RAY_TEMP = os.path.join(WORK, "r")
RUN_BUDGET_S = 165  # every run must have exited within 180 s
CHILD_LIMIT_S = 172  # the supervisor kills a run that is still going then
SETUP_REPS = 3
CHILD_ENV = "PERFBENCH_CHILD"
PR_SET_CHILD_SUBREAPER = 36


def ray_cpus() -> int:
    # never from nproc: OMP_NUM_THREADS=1 makes it print 1 on a 4-vCPU mask,
    # and a 1-CPU session deadlocks the default actor pool
    return min(4, max(2, len(os.sched_getaffinity(0))))


def ray_init() -> None:
    import ray

    # Ray's socket paths (<temp>/session_<date>_<pid>/sockets/plasma_store)
    # must fit AF_UNIX's 107 bytes; a checkout path too long for that keeps
    # Ray's default location
    kw = {"_temp_dir": RAY_TEMP} if len(RAY_TEMP) <= 43 else {}
    ray.init(
        address="local",
        num_cpus=ray_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=768 * 2**20,
        **kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def set_up(workload) -> float:
    """``ray.init``, the raykg import and one tiny warm-up call."""
    t = time.perf_counter()
    ray_init()
    import raykg.job  # noqa: F401
    import raykg.pipeline.graph  # noqa: F401

    workload.warm_up()
    return time.perf_counter() - t


def timed(fn, timeout: float):
    """Run ``fn`` in a thread; raise TimeoutError if it has not returned
    within ``timeout`` seconds (the call is then abandoned)."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise TimeoutError(f"call exceeded {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class Run:
    def __init__(self, args):
        self.args = args
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_BUDGET_S
        self.calls = []
        self.errors = []
        self.attempted = self.failed = 0
        self.timed_out = False

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def wait_idle(self, free_share, limit: float = 15.0) -> float:
        """Untimed: wait until the previous call's actors have released
        their CPUs, so each call starts from an idle session."""
        t = time.perf_counter()
        while free_share() < 1.0 and time.perf_counter() - t < limit:
            time.sleep(0.1)
        return time.perf_counter() - t

    def call_loop(self, w, free_share, trace: bool):
        """Closed loop: one call at a time until ``--seconds`` of calls are
        timed, or the run budget leaves no room for another call."""
        from procstat import Sampler

        measured = 0.0
        while not self.timed_out:
            longest = max((c["job_s"] for c in self.calls), default=0.0)
            if self.calls and (measured >= self.args.seconds or self.remaining() < 2 * longest + 20):
                break
            rec = {"idle_wait_s": self.wait_idle(free_share)}
            w.before_call()
            self.attempted += 1
            try:
                with Sampler(probe=free_share if trace else None) as s:
                    t = time.perf_counter()
                    result = timed(w.call, max(5.0, self.remaining() - 15))
                    rec["job_s"] = time.perf_counter() - t
                rec.update(cpu_s=s.cpu_total, peak_mem_mb=s.peak_mb, new_procs=s.new_procs, probes=s.probes)
                bad = w.check(result)
                rec["out_bytes"] = w.out_bytes(result)
            except TimeoutError as e:
                self.timed_out = True
                bad = [str(e)]
            except Exception as e:  # a failed call is counted, never fatal
                bad = [f"{type(e).__name__}: {e}"]
            if bad:
                self.failed += 1
                self.errors.append(bad)
            if "job_s" in rec:
                measured += rec["job_s"]
                self.calls.append(rec)


def median(values):
    return statistics.median(values) if values else 0.0


def _m(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="raykg benchmark")
    p.add_argument("--workload", required=True, choices=["build", "triples", "update"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "raykg")):
        print(f"raykg package not found under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    # Ray workers import raykg whatever the working directory
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, ROOT)

    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    from procstat import cpu_stat, host_facts, host_speed_s, steal_share
    from workloads import Workload

    run = Run(args)
    stat0 = cpu_stat()
    facts = host_facts()
    w = Workload(args.workload, args.seed, WORK)
    facts.update(workload=w.desc, gen_s=w.gen_s, ray_cpus=ray_cpus(),
                 ray_temp_dir=RAY_TEMP if len(RAY_TEMP) <= 43 else "ray default")

    import ray

    setups = []
    try:
        setups.append(set_up(w))
        facts["prepare_s"] = w.prepare()
        total = ray.cluster_resources().get("CPU", 1.0)
        free_share = lambda: ray.available_resources().get("CPU", 0.0) / total  # noqa: E731
        facts["pool.cpus_free_at_start"] = free_share()
        run.call_loop(w, free_share, bool(args.trace))
        if args.trace and not run.timed_out:
            metrics = traced(run, w, free_share, facts)
        else:
            # more set-up samples, after the timed calls: a re-initialized
            # session in this process keeps one CPU reserved, which must not
            # touch the calls
            while not run.timed_out and len(setups) < SETUP_REPS and run.remaining() > 30:
                ray.shutdown()
                setups.append(set_up(w))
            metrics = end_to_end(run, w, setups)
    finally:
        if not run.timed_out:
            ray.shutdown()
        shutil.rmtree(w.out, ignore_errors=True)
    facts.update(
        setups_s=setups,
        calls=[{k: v for k, v in c.items() if k != "probes"} for c in run.calls],
        errors=run.errors,
        loadavg_after=os.getloadavg(),
        steal_share=steal_share(stat0, cpu_stat()),
        host_speed_s_after=host_speed_s(),
        run_s=time.perf_counter() - run.t_start,
    )
    print(json.dumps({"host": facts}, default=str))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    if run.timed_out:  # the abandoned call may still hold Ray; stop it hard
        ray.shutdown()
        os._exit(0)
    return 0


def end_to_end(run: Run, w, setups) -> dict:
    calls = run.calls
    job_s = median([c["job_s"] for c in calls])
    return {
        "job_s": _m(job_s, "s"),
        "turns_per_s": _m(w.turns / job_s if job_s else 0.0, "1/s"),
        "setup_s": _m(median(setups), "s"),
        "cpu_s": _m(median([c["cpu_s"] for c in calls]), "s"),
        "peak_mem_mb": _m(median([c["peak_mem_mb"] for c in calls]), "MB"),
        "out_bytes": _m(median([c["out_bytes"] for c in calls if "out_bytes" in c]), "bytes"),
        "ok_rate": _m((run.attempted - run.failed) / max(run.attempted, 1), "1"),
    }


def traced(run: Run, w, free_share, facts) -> dict:
    """Per-layer metrics: one traced replay of the job plus the kernel
    sweep outside Ray; ``run.calls`` are the untraced calls of this run."""
    import ray

    from procstat import Sampler
    from workloads import Tracer, core_layer, replay

    untraced = median([c["job_s"] for c in run.calls])
    probes = [v for c in run.calls for v in c["probes"]]
    run.wait_idle(free_share)
    w.before_call()
    run.attempted += 1
    with Sampler() as sampler:
        tr = Tracer(ray_cpus(), sampler)
        result = replay(w, tr)
        traced_s = time.perf_counter() - tr.t0
    bad = w.check(result)
    if bad:
        run.failed += 1
        run.errors.append(bad)
    spans = tr.spans
    with open(os.path.join(WORK, f"trace-{w.name}-{run.args.seed}.json"), "w") as f:
        json.dump({"traced_s": traced_s, "spans": spans}, f, indent=1)

    def layer_sum(layer, key):
        return sum(s.get(key, 0) for s in spans if s["layer"] == layer)

    out = {
        "read.s": _m(tr.total("read"), "s"),
        "read.bytes": _m(layer_sum("read", "bytes"), "bytes"),
        "tag.s": _m(tr.total("tag"), "s"),
        "tag.rows_out": _m(layer_sum("tag", "rows"), "count"),
        "tag.first_block_s": _m(layer_sum("tag", "first_block_s"), "s"),
        "tag.cpu_util": _m(tr.cpu_util("tag"), "1"),
        "graph.edges_s": _m(tr.total("graph", "edges"), "s"),
        "graph.nodes_s": _m(tr.total("graph", "nodes"), "s"),
        "graph.scores_s": _m(tr.total("graph", "scores"), "s"),
        "graph.edges_rows": _m(sum(s.get("rows", 0) for s in spans if s["name"] == "edges"), "count"),
        "graph.nodes_rows": _m(sum(s.get("rows", 0) for s in spans if s["name"] == "nodes"), "count"),
        "graph.scores_rows": _m(sum(s.get("rows", 0) for s in spans if s["name"] == "scores"), "count"),
        "graph.cpu_util": _m(tr.cpu_util("graph"), "1"),
        "io.manifest_scan_s": _m(tr.total("io", "manifest_scan"), "s"),
        "io.refresh_s": _m(tr.total("io", "refresh."), "s"),
        "io.readback_s": _m(tr.total("io", "readback"), "s"),
        "io.bytes": _m(0 if w.name == "triples" else w.out_bytes(result), "bytes"),
        "io.partitions": _m(layer_sum("io", "partitions"), "count"),
        "pool.cpus_free_share": _m(statistics.fmean(probes) if probes else 0.0, "1"),
        "pool.cpus_free_at_start": _m(facts["pool.cpus_free_at_start"], "1"),
        "job.traced_s": _m(traced_s, "s"),
        "job.untraced_s": _m(untraced, "s"),
        "job.other_s": _m(traced_s - sum(s["end"] - s["start"] for s in spans), "s"),
        "trace_overhead_s": _m(traced_s - untraced, "s"),
    }
    for table in ("mentions", "edges", "nodes", "scores"):
        out[f"io.write_s.{table}"] = _m(
            tr.total("io", f"write.{table}") + tr.total("io", f"refresh.{table}"), "s"
        )
    ray.shutdown()  # the kernels run alone on the host
    for k, v in core_layer(w, run.args.seed).items():
        out[k] = _m(v, "MB/s" if "mb_per_s" in k else "s" if k.endswith("_s") or "_s." in k else "1")
    return out


def _become_subreaper() -> None:
    """Orphaned descendants (Ray workers whose raylet has gone) are
    re-parented to this process instead of init, so it can wait for them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap_all() -> None:
    """Kill every descendant and wait for each to end.  As a subreaper this
    process inherits every orphan, so once it has no children left, no
    process the run started is still running."""
    from procstat import tree_pids

    me = os.getpid()
    while True:
        for pid in tree_pids(me):
            if pid != me:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def supervise(argv=None) -> int:
    """Run the benchmark in a child process, then make sure every process
    it started (Ray daemons, workers and their orphans) has ended before
    returning.  The child's stdout is relayed only if it exited with 0."""
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(ROOT, "raykg")):
        print(f"raykg package not found under {ROOT}", file=sys.stderr)
        return 2
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"stdout-{os.getpid()}.txt")
    rc = 1
    try:
        with open(out_path, "w") as out:
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), *argv],
                stdout=out,
                env={**os.environ, CHILD_ENV: "1"},
            )
            try:
                rc = child.wait(timeout=CHILD_LIMIT_S)
            except subprocess.TimeoutExpired:
                print(f"run exceeded {CHILD_LIMIT_S} s; stopped", file=sys.stderr)
    finally:
        _reap_all()
    with open(out_path) as f:
        text = f.read()
    os.remove(out_path)
    if rc != 0:
        sys.stderr.write(text)
        return rc or 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise())
