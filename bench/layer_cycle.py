"""Run one traced synth_prepare cycle and print its per-layer totals as JSON.

    python3 bench/layer_cycle.py SEED

``run.py --trace 1`` starts this on ``cli_roundtrip`` twice, with the
default BLAS threads and with OPENBLAS_NUM_THREADS=1, so both measure the
seed's first cycle of inputs after the same untimed warm-up.  Exits 1 if any
instance fails its checks.
"""

import json
import sys

import run
import workloads
from tracing import Tracer, untraced


def main(seed: int) -> int:
    wl = workloads.SynthPrepare(seed)
    for inp in wl.warm_up_inputs():
        wl.run(inp, untraced)
    tracer = Tracer()
    failed = 0
    with tracer.intercept():
        for _ in range(wl.cycle):
            inp = wl.next_input()
            result = wl.run(inp, tracer.call)
            failed += not all(chk.ok for chk in wl.check(inp, result))
    print(json.dumps({"metrics": tracer.call_metrics(),
                      "blas_threads": run.blas_threads(), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
