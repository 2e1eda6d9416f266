"""Analytic-world demonstration of guided sampling.

Runs the exact-noise-predictor sampler in the scalar Gaussian world and
prints how the terminal distribution tracks the closed-form posterior, plus
the lambda sweep that trades off two conflicting observations.

Usage: python scripts/posterior_demo.py [n_trajectories]
"""

import sys

from uwdiff.diffusion import (
    AnalyticGaussianWorld,
    GuidanceConfig,
    default_schedule,
    sample_terminal,
    stream_rng,
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    sched = default_schedule(200)
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)

    prior = sample_terminal(world, sched, n, stream_rng(0, 0))
    print(f"unguided:      mean {prior.mean():+.4f}  var {prior.var():.4f}   (prior: +0.0000, 1.0000)")

    y = 2.0
    guided = sample_terminal(
        world, sched, n, stream_rng(0, 1), observations=(y,),
        cfg=GuidanceConfig(mode="lambda_blend", lam=1.0),
    )
    mean, var = world.posterior(y)
    print(f"guided (y={y}): mean {guided.mean():+.4f}  var {guided.var():.4f}   (posterior: {mean:+.4f}, {var:.4f})")

    print("\nlambda sweep with observations y1=+2, y2=-2:")
    for lam in (0.9, 0.7, 0.5, 0.3, 0.1):
        samples = sample_terminal(
            world, sched, n, stream_rng(1, int(lam * 10)), observations=(2.0, -2.0),
            cfg=GuidanceConfig(mode="lambda_blend", lam=lam),
        )
        target, _ = world.blended_posterior(2.0, -2.0, lam)
        print(f"  lambda={lam:.1f}: terminal mean {samples.mean():+.4f}   closed form {target:+.4f}")


if __name__ == "__main__":
    main()
