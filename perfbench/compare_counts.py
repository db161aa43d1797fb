"""Compare the exact per-layer figures of two traced result records.

    python3 perfbench/compare_counts.py RESULT_A RESULT_B

The records are the files a ``--trace 1`` run writes under
``.bench_build/perfbench/results``. Exits 1 if any count differs or if the
two records are not the same workload and seed.
"""

import json
import sys

from run import layer_metrics


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    for rec, path in zip((a, b), argv):
        if rec["per_layer"] is None:
            sys.stderr.write(f"{path} is not a traced run\n")
            return 2
    key = ("workload", "seed")
    if [a["meta"][k] for k in key] != [b["meta"][k] for k in key]:
        sys.stderr.write("records differ in workload or seed\n")
        return 1
    exact = [name for name, _, is_exact, _ in layer_metrics() if is_exact
             and (a["per_layer"][name]["value"], b["per_layer"][name]["value"]) != (None, None)]
    differ = [n for n in exact if a["per_layer"][n]["value"] != b["per_layer"][n]["value"]]
    for name in differ:
        print(f"{name}: {a['per_layer'][name]['value']} != {b['per_layer'][name]['value']}")
    print(f"{len(exact) - len(differ)} of {len(exact)} recorded exact figures identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
