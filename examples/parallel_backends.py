"""Execution backends: identical results, different wall-clock.

Runs the heaviest Table-1 workload (Hybrid-THC(2) full gather from every
node — Θ(n) volume per start node, so Θ(n²) work) once per backend,
checks the ProcessPoolBackend result is **bitwise identical** to the
SerialBackend reference, and reports wall-clock times.

On a multi-core machine the process pool shows near-linear speedup; on a
single core it only adds fork overhead — that is the point of the
backend abstraction: the science code is identical either way.

Run:  python examples/parallel_backends.py [workers] [depth]
"""

import random
import sys
import time

from repro.algorithms.hybrid_algs import HybridFullGather
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.graphs.generators import hybrid_thc_instance
from repro.model.runner import run_algorithm


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    shape = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    instance = hybrid_thc_instance(2, shape, shape, rng=random.Random(shape))
    algorithm = HybridFullGather(2)
    print(
        f"instance: {instance.name}, n = {instance.graph.num_nodes}; "
        f"algorithm: {algorithm.name} from every node"
    )

    results = {}
    timings = {}
    backends = [SerialBackend(), ProcessPoolBackend(workers=workers)]
    for backend in backends:
        with backend:
            started = time.perf_counter()
            results[backend.name] = run_algorithm(
                instance, algorithm, seed=1, backend=backend
            )
            timings[backend.name] = time.perf_counter() - started

    reference = results["serial"]
    for name, result in results.items():
        identical = (
            result.outputs == reference.outputs
            and result.profiles == reference.profiles
        )
        speedup = timings["serial"] / timings[name]
        print(
            f"{name:<22} {timings[name]:7.2f}s  speedup {speedup:4.2f}x  "
            f"identical to serial: {identical}"
        )
        assert identical, f"{name} diverged from the serial reference!"
    print()
    print(
        f"max volume {reference.max_volume}, "
        f"max distance {reference.max_distance} — every backend agrees."
    )


if __name__ == "__main__":
    main()
