"""Direct-engine probe: the eigenfunction solver's warm factor, layer by layer.

Times each layer of the direct engine as the minimum of N repeats:

* ``gather``: ``SurfaceOperator.contact_block_matrix``, ``A_cc`` from the
  cosine-kernel table;
* ``cholesky``: ``cho_factor`` of it, in place, as the solver factors it;
* ``promotion``: the contact-space form ``W = U^-T E``
  (``EigenfunctionSolver._contact_form``);
* one direct block of 8, 36 and 186 columns on each form
  (``_solve_direct_chunk``): two triangular sweeps over the Cholesky, or
  two GEMMs against ``W``.

It also prints each form's bytes and the block width at which building
``W`` has paid for itself on this host.  It runs on extract-paper's
substrate (5,120 contact panels, 256 contacts) and on a serve-cold substrate
(1,024 contact panels, 256 contacts), and asserts that the two forms give
the same currents to 1e-12 of max|I|.

Run with:  python benchmarks/bench_direct_engine.py        (5 repeats)
           python benchmarks/bench_direct_engine.py 3      (N repeats)
Under pytest both substrates run with 2 repeats.
"""

from __future__ import annotations

import sys
import time
from functools import partial

import numpy as np
from scipy.linalg import cho_factor

from common import ensure_repro_importable

ensure_repro_importable()

from repro import (
    EigenfunctionSolver,
    SubstrateProfile,
    alternating_size_grid,
    regular_grid,
)
from repro.substrate.factor_cache import seal_factor_arrays

WIDTHS = (8, 36, 186)
#: relative agreement of the two forms' currents
AGREEMENT = 1e-12


def substrates() -> dict[str, EigenfunctionSolver]:
    """extract-paper's solver and a serve-cold one (both grounded, 128x128 grid)."""
    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    layouts = {
        "extract-paper": alternating_size_grid(n_side=16, size=128.0),
        "serve-cold": regular_grid(n_side=16, size=128.0, fill=0.3),
    }
    return {
        name: EigenfunctionSolver(layout, profile, max_panels=256, use_factor_cache=False)
        for name, layout in layouts.items()
    }


def _min_time(repeats: int, run, prepare=lambda: ()) -> tuple[float, object]:
    """Minimum wall time of ``run(*prepare())`` over ``repeats``, and its last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        value = run(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


def run(name: str, solver: EigenfunctionSolver, repeats: int) -> dict:
    """Layer times (s), bytes and the forms' agreement on one substrate."""
    times: dict[str, float] = {}
    times["gather"], a_cc = _min_time(
        repeats, lambda: solver.operator.contact_block_matrix(max_batch=solver.max_batch)
    )
    times["cholesky"], chol = _min_time(
        repeats,
        lambda a: cho_factor(a.T, lower=False, overwrite_a=True),
        prepare=lambda: (a_cc.copy(),),
    )
    del a_cc
    seal_factor_arrays(chol[0])
    cholesky = ("chol", chol)
    times["promotion"], contact = _min_time(repeats, lambda: solver._contact_form(cholesky))
    assert contact[0] == "contact", contact[0]
    rng = np.random.default_rng(0)
    worst = 0.0
    for width in WIDTHS:
        v = rng.standard_normal((solver.n_contacts, width))
        answers = {}
        for form, factor in (("chol", cholesky), ("contact", contact)):
            block = partial(solver._solve_direct_chunk, v, factor)
            times[f"{form}_{width}"], (answers[form], _) = _min_time(repeats, block)
        want = answers["chol"]
        worst = max(worst, float(np.abs(answers["contact"] - want).max() / np.abs(want).max()))
    widest = WIDTHS[-1]
    saved_per_column = (times[f"chol_{widest}"] - times[f"contact_{widest}"]) / widest
    return {
        "name": name,
        "n_panels": solver.grid.n_contact_panels,
        "n_contacts": solver.n_contacts,
        "times": times,
        "bytes": {"cholesky": chol[0].nbytes, "contact": contact[1].nbytes},
        "break_even": times["promotion"] / saved_per_column if saved_per_column > 0 else None,
        "agreement": worst,
    }


def report(result: dict) -> str:
    t = result["times"]

    def ms(key: str) -> str:
        return f"{1e3 * t[key]:.1f}"

    blocks = " / ".join(ms(f"chol_{w}") for w in WIDTHS)
    contact_blocks = " / ".join(ms(f"contact_{w}") for w in WIDTHS)
    mib = {form: n / 2**20 for form, n in result["bytes"].items()}
    paid = result["break_even"]
    return (
        f"{result['name']}: {result['n_panels']} panels, {result['n_contacts']} contacts\n"
        f"  gather {ms('gather')} ms, cholesky {ms('cholesky')} ms, "
        f"promotion {ms('promotion')} ms\n"
        f"  block of {'/'.join(map(str, WIDTHS))} columns: cholesky {blocks} ms, "
        f"contact {contact_blocks} ms\n"
        f"  bytes: cholesky {mib['cholesky']:.1f} MiB, contact {mib['contact']:.1f} MiB; "
        f"promotion paid after {'-' if paid is None else f'{paid:.0f}'} columns "
        f"(the rule: {result['n_contacts'] // 2}); "
        f"agreement {result['agreement']:.1e} of max|I|"
    )


def check(result: dict) -> list[str]:
    if result["agreement"] <= AGREEMENT:
        return []
    return [f"{result['name']}: forms differ by {result['agreement']:.2e} of max|I|"]


def test_direct_engine_forms_agree():
    failures = []
    for name, solver in substrates().items():
        result = run(name, solver, repeats=2)
        print("\n" + report(result))
        failures.extend(check(result))
    assert failures == []


def main(argv: list[str]) -> None:
    repeats = int(argv[0]) if argv else 5
    failures = []
    for name, solver in substrates().items():
        result = run(name, solver, repeats)
        print(report(result), flush=True)
        failures.extend(check(result))
    if failures:
        raise SystemExit("\n".join(failures))


if __name__ == "__main__":
    main(sys.argv[1:])
