"""A fixed calibration kernel that measures how fast the host runs now.

On a shared host the same code runs up to 40% slower for minutes at a
time, and the kernel slows with it. The worker times a batch of kernels
before and after every timed call; ``run.py`` multiplies the call's wall
seconds by ``NOMINAL_S`` over the batches' mean, so ``run_s`` follows the
program rather than the host's speed at the moment. The kernel mixes the
two kinds of work the library does: a pure-Python deterministic walk over
tuples and dicts (as ``tourist`` does) and small numpy array work (as
``features`` and ``classify`` do). It does not import ``sensewalk``, so a
change to the library never changes it, and it holds little memory, so it
does not move the worker's peak.
"""

import itertools
import time

import numpy as np

N_VERTICES = 400
NEIGHBOURS = 8
MEMORIES = range(1, 9)
ARRAY_ROUNDS = 120
# The reference speed: scaled seconds are seconds on a host where one kernel
# takes this long (about what the baseline host in README.md gives).
NOMINAL_S = 0.07


def _graph():
    rng = np.random.default_rng(12345)
    points = rng.standard_normal((N_VERTICES, 6))
    d = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d, axis=1, kind="stable")[:, 1 : NEIGHBOURS + 1]
    return points, [tuple(int(j) for j in row) for row in order]


POINTS, ADJ = _graph()


def _walks():
    """Deterministic walks with a memory window from every vertex."""
    total = 0
    for memory, start in itertools.product(MEMORIES, range(N_VERTICES)):
        traj = [start]
        window = (start,)
        seen = {(start, window): 0}
        while True:
            nxt = -1
            for j in ADJ[traj[-1]]:
                if j not in window:
                    nxt = j
                    break
            if nxt < 0:
                break
            traj.append(nxt)
            window = (nxt,) + window[: memory - 1]
            key = (nxt, window)
            if key in seen:
                break
            seen[key] = len(traj) - 1
        total += len(traj)
    return total


def _arrays():
    acc = 0.0
    for r in range(ARRAY_ROUNDS):
        x = POINTS[r::5]
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
        acc += float(np.sort(d, axis=1)[:, 1].sum())
    return acc



def kernel_seconds():
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _walks()
    _arrays()
    return time.perf_counter() - start
