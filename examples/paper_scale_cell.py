"""One Table-1 cell at the paper's split sizes: UHSCM, 64 bits, scale 1.0.

The §4.1 splits reach 5,000 queries against 190,834 database images on
NUS-WIDE, about 954M (query, database) pairs.  ``evaluate_codes`` walks the
queries in tiles of packed Hamming distances, so evaluating such a cell
holds one tile at a time, never the whole pair matrix.

The script runs four phases and prints, after each one, its wall time and
the process's peak resident set so far (``ru_maxrss``, which is VmHWM on
Linux):

1. data: generate the dataset;
2. fit: mine concepts, build Q and train the hashing network;
3. encode: hash the query and database images;
4. evaluate: MAP@5000, P@N and the PR curve.

Run:  python examples/paper_scale_cell.py --dataset nuswide [--scale 1.0]
"""

import argparse
import resource
import sys
import time

from repro.config import paper_config
from repro.core.uhscm import UHSCM
from repro.datasets import DATASET_NAMES, load_dataset
from repro.retrieval import evaluate_codes
from repro.vlp import SimCLIP

N_BITS = 64


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    start = last = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        print(f"{name:9s} {now - last:7.1f} s   peak RSS "
              f"{peak_rss_mb():7.0f} MB", flush=True)
        last = now

    data = load_dataset(args.dataset, scale=args.scale, seed=0)
    print(f"{args.dataset} at scale {args.scale}: {len(data.train_images)} "
          f"train, {len(data.query_images)} query, "
          f"{len(data.database_images)} database images")
    phase("data")
    model = UHSCM(paper_config(args.dataset, n_bits=N_BITS, seed=0),
                  clip=SimCLIP(data.world))
    model.fit(data.train_images)
    phase("fit")
    query_codes = model.encode(data.query_images)
    db_codes = model.encode(data.database_images)
    phase("encode")
    report = evaluate_codes(query_codes, db_codes, data.query_labels,
                            data.database_labels)
    phase("evaluate")
    print(f"total     {time.perf_counter() - start:7.1f} s")
    print(report)


if __name__ == "__main__":
    main()
