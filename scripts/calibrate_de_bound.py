#!/usr/bin/env python3
"""Empirical oracle behind the DE regression bound used in acceptance:
sphere D=10, literature parameters (0.9, 0.5, 100), 10,000 evaluations,
30 fixed seeds.  Prints the final-best distribution so the frozen bound
(<= 1e-2 on >= 28/30 seeds) can be re-checked after engine changes.
"""

import numpy as np

from tuneseer.bench import ObjectiveSpec, make_instance
from tuneseer.de import optimize
from tuneseer.sampling import ControlParams


def main():
    finals = []
    for seed in range(30):
        instance = make_instance(ObjectiveSpec("sphere", 10), 1)
        trace = optimize(instance, ControlParams(0.9, 0.5, 100), 10_000, seed)
        finals.append(trace.best_value)
        print(f"seed {seed:2d}: final best {trace.best_value:.3e}")
    finals = np.array(finals)
    print(f"\nmedian {np.median(finals):.3e}  worst {finals.max():.3e}")
    for bound in (1e-2, 1e-4, 1e-6):
        print(f"<= {bound:g}: {int((finals <= bound).sum())}/30 seeds")


if __name__ == "__main__":
    main()
