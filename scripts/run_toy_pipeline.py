"""End-to-end toy experiment: synthesize pairs, train, enhance, evaluate.

Generates procedural in-air scenes, degrades them with the scattering model,
fine-tunes the conditional denoiser on one split, enhances the held-out
split, and prints before/after metric tables. Everything is seeded; rerunning
reproduces the same numbers. The scenes and the configuration are the toy
experiment of `toy_world.py`.

Usage: python scripts/run_toy_pipeline.py [workdir]
"""

import sys

from toy_world import run_cli, write_experiment_inputs


def main() -> None:
    work = sys.argv[1] if len(sys.argv) > 1 else "toy_run"
    run_cli(write_experiment_inputs(work), work)


if __name__ == "__main__":
    main()
