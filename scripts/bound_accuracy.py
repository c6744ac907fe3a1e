#!/usr/bin/env python3
"""Accuracy of the case bound's float64 forms against a long-double
evaluation of the same inputs, per variant.

Each variant runs at `--drops` drops per seed twice. The first run is the
package's own: it records every case's summed (D, 2, 2) FIM as `peb_arrays`
receives it. The second run gives `fim_diagonal` the same float64 Jacobian
rows and variances, since nothing upstream of it depends on its result, but
forms each block, its clock-bias centring and the case sums in
`np.longdouble`; its closed form sqrt((a + d) / (a*d - b*b)) is the
reference. Two float64 forms of the first run's FIMs are scored against it:

* `closed`: `peb_arrays`, the closed form the package writes;
* `eigvalsh`: sqrt(1/l1 + 1/l2) from LAPACK's eigenvalues.

Only bounds the outputs carry are scored: drops degenerate by the gate, or
with an anchor below the horizon, are left out. Per variant and seed it
prints how many bounds were scored and, per form, the max and p99.9
relative error and the count above 1e-12. Forming F in float64 costs
about eps * cond(F) in either form; a form that works on the Jacobian rows
would not pay it.

    PYTHONPATH=src python scripts/bound_accuracy.py [--drops 1000] [--seeds 0-2]

The long double is x87 80-bit on x86-64 Linux (64-bit mantissa); where it
is plain float64 the script refuses to run.
"""

from __future__ import annotations

import argparse
from unittest import mock

import numpy as np

from satpeb import scenarios
from satpeb.config import make_config
from satpeb.fisher import fim_diagonal, peb_arrays

VARIANTS = ("single-leo", "multi-leo", "gnss-leo", "gnss-only")
THRESHOLD = 1e-12


def _fim_longdouble(J, variances, clock_bias=False):
    """`fim_diagonal` in long double, from the same float64 inputs."""
    J, w = np.asarray(J, np.longdouble), 1 / np.asarray(variances, np.longdouble)
    if clock_bias:
        J = J - np.sum(J * w[..., None], -2, keepdims=True) / np.sum(w, -1)[..., None, None]
    f = np.swapaxes(J, -1, -2) @ (J * w[..., None])
    return (f + np.swapaxes(f, -1, -2)) / 2


def _case_fims(config, fim):
    """(C, D, 2, 2) summed FIMs of every case, with blocks from `fim`, and
    the (C, D) degenerate flags of the package's run."""
    seen = []

    def record(f, mean_variance=1.0):
        seen.append(f)
        return peb_arrays(np.asarray(f, float), mean_variance)

    with mock.patch.object(scenarios, "fim_diagonal", fim), \
            mock.patch.object(scenarios, "peb_arrays", record):
        columns = scenarios.evaluate(config, *scenarios.drop_ues(config))
    return seen[0], np.stack([degenerate for _, _, degenerate in columns.values()])


def _bound_longdouble(f):
    a, b, d = f[..., 0, 0], f[..., 0, 1], f[..., 1, 1]
    return np.sqrt((a + d) / (a * d - b * b))


def _bound_eigvalsh(f):
    return np.sqrt(np.sum(1.0 / np.linalg.eigvalsh(f), axis=-1))


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drops", type=int, default=1000, help="UE drops (default 1000)")
    parser.add_argument("--seeds", default="0-2", help="seed range, e.g. 0-2 (default)")
    args = parser.parse_args(argv)
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        parser.error("np.longdouble is no wider than float64 on this platform")
    print(f"{'variant':<11}{'seed':>5}{'bounds':>8}  "
          + "  ".join(f"{form + ' max':>13}{'p99.9':>9}{'> 1e-12':>8}"
                      for form in ("closed", "eigvalsh")))
    np.seterr(divide="ignore", invalid="ignore")  # degenerate drops are left out
    for variant in VARIANTS:
        for seed in _seed_range(args.seeds):
            config = make_config(variant, n_ue_drops=args.drops, seed=seed)
            f, degenerate = _case_fims(config, fim_diagonal)
            reference = _bound_longdouble(_case_fims(config, _fim_longdouble)[0])[~degenerate]
            row = f"{variant:<11}{seed:>5}{reference.size:>8}  "
            for bound in (peb_arrays(f)[0], _bound_eigvalsh(f)):
                error = np.abs(bound[~degenerate] / reference - 1).astype(float)
                row += (f"{error.max():>13.2e}{np.percentile(error, 99.9):>9.2e}"
                        f"{np.count_nonzero(error > THRESHOLD):>8}  ")
            print(row.rstrip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
