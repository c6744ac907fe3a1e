#!/usr/bin/env python3
"""Accuracy of the case bound's float64 forms against a long-double
evaluation of the same inputs, per variant.

Each variant runs at `--drops` drops per seed twice. The first run is the
package's own: it records every case's summed information (a, b, d) of
the FIM [[a, b], [b, d]] as `peb_arrays` receives it. The second run gives
`information` the same float64 east/north rows and variances, since
nothing upstream of it depends on its result, but cast to `np.longdouble`:
the kernel then forms each block, its clock-bias centring and its sums over
the anchor axis in long double, and so does the run's case sum. The closed
form sqrt((a + d) / (a*d - b*b)) of that run's information is the
reference. Two float64 forms of the first run's information are scored
against it:

* `closed`: `peb_arrays`, the closed form the package writes;
* `eigvalsh`: sqrt(1/l1 + 1/l2) from LAPACK's eigenvalues.

Only bounds the outputs carry are scored: drops degenerate by the gate are
left out, those with an anchor below the horizon among them (its NaN range
sigma makes the case FIM NaN). Per variant and seed it
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
from satpeb.fisher import information, peb_arrays

VARIANTS = ("single-leo", "multi-leo", "gnss-leo", "gnss-only")
THRESHOLD = 1e-12


def _information_longdouble(east, north, variances, clock_bias=False):
    """`information` in long double, from the same float64 inputs."""
    return information(*(np.asarray(x, np.longdouble) for x in (east, north, variances)),
                       clock_bias)


def _case_information(config, kernel):
    """(3, C, D) summed (a, b, d) of every case, with blocks from `kernel`,
    and the (C, D) degenerate flags of the package's run."""
    seen = []

    def record(a, b, d, mean_variance=1.0):
        seen.append(np.stack([a, b, d]))
        return peb_arrays(*(np.asarray(x, float) for x in (a, b, d)), mean_variance)

    with mock.patch.object(scenarios, "information", kernel), \
            mock.patch.object(scenarios, "peb_arrays", record):
        columns = scenarios.evaluate(config, *scenarios.drop_ues(config))
    return seen[0], np.stack([degenerate for _, _, degenerate in columns.values()])


def _bound_longdouble(abd):
    a, b, d = abd
    return np.sqrt((a + d) / (a * d - b * b))


def _bound_eigvalsh(abd):
    a, b, d = abd
    f = np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)
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
            abd, degenerate = _case_information(config, information)
            reference = _bound_longdouble(
                _case_information(config, _information_longdouble)[0])[~degenerate]
            row = f"{variant:<11}{seed:>5}{reference.size:>8}  "
            for bound in (peb_arrays(*abd)[0], _bound_eigvalsh(abd)):
                error = np.abs(bound[~degenerate] / reference - 1).astype(float)
                row += (f"{error.max():>13.2e}{np.percentile(error, 99.9):>9.2e}"
                        f"{np.count_nonzero(error > THRESHOLD):>8}  ")
            print(row.rstrip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
