"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds spent importing unitgompertz plus running the workload's
warm-up ops; building their inputs in between is not counted.
"""

import sys
import time

import run  # pins the thread environment before anything imports numpy

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    run.import_library()
    elapsed = time.perf_counter() - t0
    import workloads

    workload = workloads.WORKLOADS[name](run.OUT_DIR)
    warm = workload.warmup_ops(workload.pool(seed))
    t0 = time.perf_counter()
    for op in warm:
        try:
            workload.call(op)
        except Exception:  # a known defect among the warm-up ops still costs its time
            pass
    elapsed += time.perf_counter() - t0
    print(f"{elapsed!r}")
