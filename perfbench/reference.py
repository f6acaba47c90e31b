"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared virtual machine the same code runs up to half again slower
from one ten-second stretch to the next, which would swamp the effect of
most code changes. The benchmark therefore times this kernel between
operations and scales each operation's time by ``REFERENCE_S / kernel
time``, the kernel time averaged over the samples around the operation:
every reported time is the time the operation would take on a host where
the kernel takes ``REFERENCE_S``.

The kernel does the kinds of work the package does (reading a small XML
text with the standard library, a recursive walk of a small expression
tree, dict lookups, tuple and list building); the check workload's kernel
also reads a large list, as its operations do. Neither uses the package,
so a change to the package cannot move them.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from time import perf_counter

# The kernel's time on the host the baseline was measured on (2-vCPU
# Intel Xeon KVM guest, CPython 3.11), in a quiet stretch.
REFERENCE_S = 0.0006

_DOC = "<r>" + "".join(f'<c id="c{i}"><list> x[{i}] x[{i + 1}] </list><v> {i % 7} </v></c>'
                       for i in range(40)) + "</r>"
_TREE = ("le", ("add", ("var", "a"), ("var", "b")), ("add", ("var", "c"), ("int", 3)))


def _eval(node, env):
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "int":
        return node[1]
    if op == "add":
        return _eval(node[1], env) + _eval(node[2], env)
    return int(_eval(node[1], env) <= _eval(node[2], env))


def _kernel() -> int:
    root = ET.fromstring(_DOC)
    rows = [(el.get("id"), el.find("list").text.split(), int(el.find("v").text))
            for el in root]
    env = {}
    seen = {}
    n = 0
    for a in range(7):
        env["a"] = a
        for b in range(7):
            env["b"] = b
            for c in range(7):
                env["c"] = c
                n += _eval(_TREE, env)
                seen[(a, b, c % 3)] = [a, b, c]
    return n + len(seen) + len(rows)


def _walker():
    """_kernel, then 1,500 reads of a 150,000-cell list in a fixed random order.

    The check workload's operations walk instances of thousands of
    constraints, which do not fit in the processor's caches; a neighbour
    that contends for memory slows them more than it slows ``_kernel``.
    """
    heap = [[i] for i in range(150_000)]
    order = random.Random(0).sample(range(len(heap)), 1500)

    def walk() -> int:
        total = _kernel()
        for j in order:
            total += heap[j][0]
        return total
    return walk


# Workloads whose operations are scaled by another kernel than _kernel, and
# that kernel's time on the reference host.
_WORKLOAD_KERNELS = {"check": (_walker, 0.0011)}


class Scaler:
    """Times the kernel between operations; scales each operation's time.

    An operation that ran between kernel samples k and k + 1 is scaled by
    the mean of the WINDOW samples before it and the WINDOW after it: one
    sample is noisy, and the host's speed drifts over seconds, not
    milliseconds.
    """

    WINDOW = 4

    def __init__(self, workload: str) -> None:
        make, self.reference_s = _WORKLOAD_KERNELS.get(workload, (None, REFERENCE_S))
        self._kernel = make() if make is not None else _kernel
        self.samples = []

    def mark(self) -> int:
        """Time the kernel once; the index of the sample."""
        t0 = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, k: int) -> float:
        """Multiplier for a time measured between samples k and k + 1."""
        window = self.samples[max(0, k - self.WINDOW + 1):k + self.WINDOW + 1]
        return self.reference_s * len(window) / sum(window)

    def host_factor(self) -> float:
        """Median kernel time over its reference time: above 1 means a slow host."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / self.reference_s
