#!/usr/bin/env python3
"""Time the arithmetic kernel on its two hot paths.

Times row reduction of one dense random matrix and a batch of polynomial
products over Q(zeta_N), best of several repeats.  Workloads are seeded, so
repeated runs measure the same computation.

    python3 benchmarks/kernel_bench.py [--size 40] [--conductor 12] [--repeat 3]
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from nicholsforge._kernel import active as kernel
from nicholsforge.scalars import field_context, make_scalar


def random_poly(rng, ctx):
    """A kernel residue: random coefficients p/q with |p| <= 3 and q <= 3."""
    coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) if rng.random() < 0.6 else 0
              for _ in range(ctx.phi)]
    return make_scalar(ctx.conductor, coeffs).coeffs


def build_matrix(rng, nrows, ncols, ctx):
    return [[random_poly(rng, ctx) for _ in range(ncols)] for _ in range(nrows)]


def bench(rows, ctx, repeat):
    red, modpoly = ctx.red, ctx.modpoly
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        kernel.rref_rows(rows, red, modpoly)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_mul(pairs, ctx, repeat):
    red = ctx.red
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a, b in pairs:
            kernel.poly_mul(a, b, red)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=40, help="matrix rows (columns: 1.5x)")
    parser.add_argument("--conductor", type=int, default=12)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20260815)
    args = parser.parse_args(argv)

    ctx = field_context(args.conductor)
    rng = random.Random(args.seed)
    rows = build_matrix(rng, args.size, args.size * 3 // 2, ctx)
    pairs = [(random_poly(rng, ctx), random_poly(rng, ctx)) for _ in range(4000)]

    print(f"conductor {args.conductor} (degree {ctx.phi}), "
          f"matrix {args.size} x {args.size * 3 // 2}, best of {args.repeat}")

    t_rref = bench(rows, ctx, args.repeat)
    t_mul = bench_mul(pairs, ctx, args.repeat)
    print(f"{kernel.IMPL}  rref {t_rref * 1000:8.1f} ms   mul x4000 {t_mul * 1000:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
