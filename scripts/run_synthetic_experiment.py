#!/usr/bin/env python3
"""End-to-end demo on synthetic data, driven through the CLI.

Generates a CSV, trains a convnet, fits the latent hypernet on the frozen
parameters (reduced, then unreduced on z-scored raw taps), runs the paired
cross-validation, compares prediction times, and exports the two scatter
projections. Everything lands in --out-dir.

The defaults finish in a few minutes on a laptop; pass --quick for a
coarse but fast pass.
"""
import argparse
import os
import sys

from latenthypernet import cli, synthetic


def run(argv):
    print(f"$ lhn {' '.join(argv)}")
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="synthetic-run", help="where all outputs go")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="fewer epochs, folds, and runs")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "sensors.csv")
    rate, window_len = 32.0, 64
    synthetic.write_synthetic_csv(
        csv_path, n_windows=600, window_len=window_len, seed=args.seed, sampling_rate_hz=rate
    )
    print(f"wrote {csv_path}")

    epochs = "5" if args.quick else "30"
    folds = "3" if args.quick else "10"
    runs = "5" if args.quick else "30"
    data = [
        "--data", csv_path,
        "--rate", str(rate),
        "--window-seconds", str(window_len / rate),
        "--out-dir", args.out_dir,
    ]
    seed = ["--seed", str(args.seed)]  # only the commands that train draw random numbers
    params = os.path.join(args.out_dir, "convnet1.params.json")
    model = os.path.join(args.out_dir, "convnet1.lhn.json")
    unreduced = os.path.join(args.out_dir, "convnet1.unreduced.lhn.json")
    log = os.path.join(args.out_dir, "training.log")

    run(["train", *data, *seed, "--arch", "convnet1", "--epochs", epochs, "--log-file", log])
    run(["lhn-fit", *data, *seed, "--params", params, "--epochs", epochs])
    run(["lhn-fit", *data, *seed, "--params", params, "--epochs", epochs,
         "--no-reduction", "--out", unreduced])
    run(["evaluate", *data, *seed, "--arch", "convnet1", "--epochs", epochs, "--folds", folds])
    run(["benchmark-time", *data, "--params", params, "--lhn-model", model, "--runs", runs])
    run(["project", *data, "--params", params, "--lhn-model", model, "--layers", "last"])
    run(["project", *data, "--params", params, "--lhn-model", model, "--layers", "all"])
    print(f"done; see {args.out_dir}/")


if __name__ == "__main__":
    main()
