"""Time qshield.statevector.apply_gate for RY and CNOT on 4- to 16-qubit states.

Usage: python3 perfbench/probe.py SEED

RY acts on qubit n // 2; CNOT has control 0 and target n // 2. Each gate is
applied in batches whose repeat count doubles until a batch takes at least
MIN_BATCH_S; the reported time per call is the median over BATCHES batches.
Prints one JSON object: {"ry": {"4": microseconds, ...}, "cnot": {...}}.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from qshield.statevector import QuantumState, apply_gate, cnot, ry

from workloads import PROBE_QUBITS

MIN_BATCH_S = 0.02
BATCHES = 7


def per_call_us(state, gate) -> float:
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            apply_gate(state, gate)
        if time.perf_counter() - start >= MIN_BATCH_S:
            break
        reps *= 2
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            apply_gate(state, gate)
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times) * 1e6


def main(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out: dict = {"ry": {}, "cnot": {}}
    for n in PROBE_QUBITS:
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = QuantumState(n, amps / np.linalg.norm(amps))
        out["ry"][str(n)] = per_call_us(state, ry(n // 2, 0.3))
        out["cnot"][str(n)] = per_call_us(state, cnot(0, n // 2))
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
