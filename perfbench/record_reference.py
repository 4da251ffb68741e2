"""Record the reference table digests the benchmark checks studies against.

Run from the root of a checkout::

    python3 perfbench/record_reference.py 0 39

For every seed in the inclusive range it runs one study of each study
workload and the ``daily_update`` set-up study, and writes their
improvement-table digests to ``perfbench/reference.json`` together with
the Python and numpy versions and machine type they were recorded on.
Takes about 15 s per seed on a 2-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench.run import ROOT, _environment, _reap_workers  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_PATH,
    WORKLOADS,
    host_info,
    make_workload,
    table_digest,
    workload_jobs,
)


def record(first: int, last: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    host = host_info(nproc)
    doc = {key: host[key] for key in ("python", "numpy", "machine")}
    doc["digests"] = {name: {} for name in WORKLOADS}
    workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        for seed in range(first, last + 1):
            for name in WORKLOADS:
                jobs = workload_jobs(name, nproc)
                with _environment(jobs):
                    wl = make_workload(name, seed, "bench", workdir, jobs)
                    problems = wl.setup()
                    if name == "daily_update":
                        digest = wl.digest
                    else:
                        results = wl.op()
                        problems += wl.check(results)[0]
                        digest = table_digest(results)
                    _reap_workers()
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: {problems}")
                doc["digests"][name][str(seed)] = digest
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return doc


if __name__ == "__main__":
    first, last = (int(arg) for arg in sys.argv[1:3])
    REFERENCE_PATH.write_text(json.dumps(record(first, last), indent=1)
                              + "\n")
