#!/usr/bin/env python3
"""Quickstart: the E-process vs the simple random walk in 60 seconds.

Builds a random 4-regular graph (the paper's flagship even-degree
workload), runs both walks to vertex cover, verifies the paper's
structural Observations on the live run, and prints the headline numbers:
the E-process covers in Θ(n) while the SRW needs Θ(n log n).

Run:  python examples/quickstart.py [n]
"""

import math
import sys

from repro import (
    EdgeProcess,
    SimpleRandomWalk,
    random_connected_regular_graph,
    spawn,
    verify_observation_10,
    verify_observation_12,
)
from repro.sim.tables import format_kv_block
from repro.spectral.eigen import spectral_gap


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    rng = spawn(2012, "quickstart", n)
    graph = random_connected_regular_graph(n, 4, rng)

    eprocess = EdgeProcess(graph, start=0, rng=spawn(2012, "e", n))
    e_cover = eprocess.run_until_vertex_cover()
    verify_observation_10(eprocess)  # blue phases returned to their starts
    verify_observation_12(eprocess)  # t = t_R + t_B with t_B <= m

    srw = SimpleRandomWalk(graph, start=0, rng=spawn(2012, "s", n))
    s_cover = srw.run_until_vertex_cover()

    print(
        format_kv_block(
            f"E-process vs SRW on a random 4-regular graph, n = {n}",
            [
                ["spectral gap 1 - lambda_max", spectral_gap(graph)],
                ["E-process cover time", e_cover],
                ["  ... / n  (Theorem 1: O(1) for l = Omega(log n))", e_cover / n],
                ["  blue (unvisited-edge) steps", eprocess.blue_steps],
                ["  red (random-walk) steps", eprocess.red_steps],
                ["SRW cover time", s_cover],
                ["  ... / (n ln n)  (Feige floor: >= 1 asymptotically)", s_cover / (n * math.log(n))],
                ["speed-up SRW / E-process", s_cover / e_cover],
                ["ln n (the paper's predicted speed-up scale)", math.log(n)],
            ],
        )
    )
    print()
    print("Observations 10 and 12 verified on this run: every completed blue")
    print("phase returned to its start vertex, and t = t_R + t_B with t_B <= m.")


if __name__ == "__main__":
    main()
