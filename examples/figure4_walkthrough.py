"""The paper's Figure 4, with real numbers: one parallel step on a chain.

Figure 4 illustrates a parallel step of Parallel Southwell (a) and
Distributed Southwell (b) on four processes in a line.  This example
builds an actual four-subdomain chain (a 1D Laplacian split into four
blocks), seeds it so the rightmost process holds the largest residual —
the figure's setup — and prints each phase: who relaxes, what each
process believes about its neighbors (Γ), what each believes its
neighbors believe about it (Γ̃, DS only), and every message sent.

Run:  python examples/figure4_walkthrough.py
"""

import numpy as np

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.matrices.poisson import poisson_1d
from repro.partition import partition
from repro.sparsela import symmetric_unit_diagonal_scale
from repro.trace import RunTracer


def build_chain():
    """A 1D Laplacian over 4 contiguous blocks: P0 - P1 - P2 - P3."""
    A = symmetric_unit_diagonal_scale(poisson_1d(40)).matrix
    part = partition(A, 4, method="strided")
    system = build_block_system(A, part)
    # seed the residual ramp of Figure 4: ‖r₀‖ < ‖r₁‖ < ‖r₂‖ < ‖r₃‖
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, 40) * np.repeat([0.1, 0.2, 0.3, 0.4], 10)
    b = np.zeros(40)
    x0 /= np.linalg.norm(A.matvec(x0))
    return system, x0, b


def show_state(method, label, with_tilde):
    print(f"  {label}:")
    print("    ‖r_p‖  = "
          + "  ".join(f"P{p}:{method.norms[p]:.3f}" for p in range(4)))
    gam = []
    for p in range(4):
        ests = ", ".join(
            f"‖r_{int(q)}‖≈{np.sqrt(method.gamma_sq[p][i]):.3f}"
            for i, q in enumerate(method.system.neighbors_of(p)))
        gam.append(f"P{p}:[{ests}]")
    print("    Γ (estimates of neighbors) = " + "  ".join(gam))
    if with_tilde:
        til = []
        for p in range(4):
            ests = ", ".join(
                f"P{int(q)} thinks {np.sqrt(method.tilde_sq[p][i]):.3f}"
                for i, q in enumerate(method.system.neighbors_of(p)))
            til.append(f"P{p}:[{ests}]")
        print("    Γ̃ (mirror of their beliefs) = " + "  ".join(til))


def trace_step(cls, label, with_tilde):
    """Print one parallel step of ``cls`` on the chain; returns every
    message it sent as ``"P<src> --<category>--> P<dst>"``, in put
    order, read from a run tracer's send events."""
    system, x0, b = build_chain()
    tracer = RunTracer()
    method = cls(system, tracer=tracer)
    method.setup(x0, b)
    print(f"\n=== {label} — one parallel step on the chain "
          "P0 - P1 - P2 - P3 ===")
    show_state(method, "initial state (Figure 4 ramp)", with_tilde)
    n_relaxed = method.step()
    sent = [f"P{ev['src']} --{ev['cat']}--> P{ev['dst']}"
            for ev in tracer.iter_events() if ev["ev"] == "send"]
    print(f"  phase 1: {n_relaxed} process(es) relaxed")
    print("  messages: " + ("; ".join(sent) if sent else "(none)"))
    show_state(method, "after the step", with_tilde)
    return sent


def main() -> None:
    trace_step(ParallelSouthwell, "Parallel Southwell (Figure 4a)", False)
    trace_step(DistributedSouthwell, "Distributed Southwell (Figure 4b)",
               True)
    print("\nNote the difference in 'residual' traffic: PS broadcasts its "
          "new norm after\nevery change; DS sends an explicit update only "
          "where Γ̃ shows a neighbor\nover-estimating it.")


if __name__ == "__main__":
    main()
