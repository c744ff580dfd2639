"""One campaign in a fresh interpreter, timed from the inside.

Usage: python3 child.py JOB_JSON SPAWN_TIME, where SPAWN_TIME is the parent's
time.monotonic() just before it started this process (CLOCK_MONOTONIC is
shared by all processes).  Writes a JSON result to the job's "result" path.
"""

import json
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    spawned = float(sys.argv[2])

    from hitemp import cli
    from workloads import Workload

    argv = Workload(**job["workload"]).argv(job["seed"], job["out"], job["workers"])
    result = {"setup_s": time.monotonic() - spawned}

    import speed

    result["setup_kernel_s"] = speed.setup_kernel_s()
    if not job["setup_only"]:
        run = cli.main
        tracer = sampler = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap("cli", cli.main)
        else:
            sampler = speed.Sampler(job["samples"])
            sampler.start()
        own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        code = run(argv)
        wall = time.perf_counter() - t0
        own2, kids2 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=_cpu(own2) - _cpu(own) + _cpu(kids2) - _cpu(kids),
            # ru_maxrss is in KiB; RUSAGE_CHILDREN reports the largest worker
            peak_rss_mb=max(own2.ru_maxrss, kids2.ru_maxrss) / 1024,
        )
        if sampler is not None:
            result["kernel_s"] = sampler.stop()
        if tracer is not None:
            tracer.write(job["spans"], job["captured"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
