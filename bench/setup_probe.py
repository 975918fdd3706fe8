"""One set-up, as a CLI user pays it: a fresh interpreter imports
``equideform.cli``, then writes the workload's configs and builds the grids
and analytic seeds they describe. run.py starts this script several times
and times each process from the outside; the script prints its own split
as one JSON line.

    python3 bench/setup_probe.py --workload NAME --seed N --size full --workdir DIR
"""

import argparse
import json
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    t = time.perf_counter()
    import equideform.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t
    import workloads
    ops = workloads.make_pass(args.workload, args.seed, args.size)
    workloads.write_configs(ops, args.workdir, args.seed)
    grid_s = workloads.build_inputs(ops)
    print(json.dumps({"import_s": import_s, "build_grid_s": grid_s}))


if __name__ == "__main__":
    main()
