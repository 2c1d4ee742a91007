#!/usr/bin/env python3
"""Correlation structure of the 16 features on a dataset.

Builds the full feature table (12 base features, NF, RF, MaxPSD, MedPSD),
prints the pairwise Pearson matrix and the block summaries that show how
weakly the root-growth features track the base features.
"""

import argparse
import sys

import numpy as np

from prs.dataset import generate_synthetic, load_dataset
from prs.evaluation import build_feature_table, correlation_matrix


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", help="dataset manifest; omit to synthesize")
    parser.add_argument("--n", type=int, default=40, help="segments per class")
    parser.add_argument("--len", type=int, default=2000, dest="length")
    parser.add_argument("--data-seed", type=int, default=1)
    parser.add_argument(
        "--seed", type=int, default=1, help="unused: the feature ranking is exact"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.manifest:
        dataset = load_dataset(args.manifest)
    else:
        dataset = generate_synthetic(args.n, args.length, seed=args.data_seed)

    table, names = build_feature_table(dataset, seed=args.seed)
    corr, constant = correlation_matrix(table)

    print(f"dataset: {dataset.name} ({len(dataset)} segments)")
    print()
    print(" " * 7 + " ".join(f"{n:>6}" for n in names))
    for i, name in enumerate(names):
        print(f"{name:>6} " + " ".join(f"{corr[i, j]:>6.2f}" for j in range(len(names))))
    flagged = [names[i] for i in range(len(names)) if constant[i]]
    if flagged:
        print(f"\nconstant columns (correlation undefined): {', '.join(flagged)}")

    n_base = 12
    base_block = [abs(corr[i, j]) for i in range(n_base) for j in range(i + 1, n_base)]
    prs_block = [abs(corr[i, j]) for i in (12, 13) for j in range(n_base)]
    spectral_block = [abs(corr[i, j]) for i in (14, 15) for j in range(n_base)]
    print()
    print(f"mean |r| base x base:      {np.mean(base_block):.4f}")
    print(f"mean |r| {{NF,RF}} x base:   {np.mean(prs_block):.4f}")
    print(f"mean |r| spectral x base:  {np.mean(spectral_block):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
