"""The shared flatness gate: per-element cost of one stage at two sizes."""

import time


def cost_ratio(stage, sizes) -> float:
    """Per-element cost of a stage at ``sizes[1]`` over its cost at ``sizes[0]``.

    ``stage(size)`` does the untimed set-up and returns ``(run, elements)``:
    ``run()`` is timed, each size keeping the fastest of three runs, and the
    time is divided by ``elements``.
    """
    cost = []
    for size in sizes:
        run, elements = stage(size)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        cost.append(best / elements)
    return cost[1] / cost[0]
