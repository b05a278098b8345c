"""A table of single-edit mutants of the package and the test meant to kill each.

Each entry names one edit of one file under ``src/``: the exact text
``old``, which occurs once in that file, and its replacement ``new``.  The
runner copies ``src/`` to a temporary directory, applies the edit there
and runs the entry's killing test against the copy; if that test passes,
it runs the whole tier-1 suite with ``-x``.  A mutant that no test fails
has survived, and the runner exits 1.  The repository itself is never
edited, and each run's hypothesis database stays in its temporary
directory.

Entries with a ``reason`` instead of a test are equivalent in effect: they
change only what no test can observe (a redraw's batching, an event of
probability zero), and are listed, not run.  ``tests/test_mutants.py``
checks in tier-1 that every ``old`` still occurs exactly once and that
every killing test exists, so a refactor that moves a line shows here.

Run from the repository root:

    python tests/mutants.py              # every entry
    python tests/mutants.py --only NAME  # one entry
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/blocksweep
    old: str
    new: str
    test: str | None  # the killing test id, relative to the repo root
    reason: str | None = None  # why an equivalent mutant is not run


PAPER = "tests/test_paper_reference.py::"
SELECT = ("tests/test_blockspace.py::"
          "test_the_select_of_a_candidate_is_the_per_block_update_byte_for_byte")

MUTANTS = (
    # the masked update: the engine's one select and the relaxation rule
    Mutant("select_copies_x", "blockspace.py",
           "        out[sl] = cand[sl]", "        out[sl] = x[sl]", SELECT),
    Mutant("relaxed_without_unit_branch", "blockspace.py",
           "return target if relax == 1.0 else x + relax * (target - x)",
           "return x + relax * (target - x)", SELECT),
    Mutant("select_also_the_block_after_the_last_active", "blockspace.py",
           "        out[sl] = cand[sl]\n    return out",
           "        out[sl] = cand[sl]\n"
           "    if active and active[-1] + 2 < len(offsets):\n"
           "        sl = slice(offsets[active[-1] + 1], "
           "offsets[active[-1] + 2])\n"
           "        out[sl] = cand[sl]\n"
           "    return out",
           PAPER + "test_run_single_layer_follows_the_paper_update"),
    Mutant("masked_update_warns_on_inactive_overflow", "blockspace.py",
           'np.errstate(over="ignore", invalid="ignore")', "np.errstate()",
           "tests/test_blockspace.py::test_masked_update_does_not_warn_"
           "for_an_overflow_in_an_inactive_block"),
    Mutant("engine_selects_the_next_mask", "solvers.py",
           "_masked_flat(x, mask.active,",
           "_masked_flat(x, masks(n + 1).active,",
           PAPER + "test_run_single_layer_follows_the_paper_update"),
    Mutant("km_step_drops_a_n", "solvers.py",
           "target = target + sampler_a(n)",
           "target = target + 0.0 * sampler_a(n)",
           PAPER + "test_run_single_layer_follows_the_paper_update"),
    # the splitting drivers' candidate
    Mutant("splitting_candidate_drops_mu", "solvers.py",
           "return x + mu * delta", "return x + delta",
           PAPER + "test_run_dr_follows_the_paper_recursion"),
    Mutant("splitting_candidate_drops_a_n", "solvers.py",
           "delta = delta + sampler_a(n)",
           "delta = delta + 0.0 * sampler_a(n)",
           PAPER + "test_run_dr_follows_the_paper_recursion"),
    Mutant("reflection_at_q_minus_x", "solvers.py",
           "_finite(2.0 * q - x)", "_finite(q - x)",
           PAPER + "test_run_dr_follows_the_paper_recursion"),
    Mutant("b_n_draw_keeps_the_first_sweep", "solvers.py",
           "ja = resolvents(2.0 * z - x, gamma)", "ja = ja",
           PAPER + "test_run_dr_follows_the_paper_recursion"),
    Mutant("splitting_residual_not_doubled", "solvers.py",
           "return (2.0 * _norm(ja - q), gamma,",
           "return (_norm(ja - q), gamma,",
           PAPER + "test_run_dr_follows_the_paper_recursion"),
    Mutant("pd_dr_error_slots_swapped", "solvers.py",
           '_error_sampler(cfg, ("a", h), ("b", g))',
           '_error_sampler(cfg, ("b", h), ("a", g))',
           PAPER + "test_run_pd_dr_follows_the_paper_recursion"),
    # the exact expectation check's candidate
    Mutant("expectation_candidate_unrelaxed", "diagnostics.py",
           "cand = _relaxed(x.flat, relax, target.flat)",
           "cand = target.flat",
           "tests/test_diagnostics.py::"
           "test_batched_expansion_equals_masked_update_loop"),
    # the config's declared fixed points
    Mutant("affine_fixed_point_gap_ignored", "cli.py",
           "> 1e-12 * (1.0 + _norm(z.flat)):",
           "> 1e-12 * (1.0 + _norm(z.flat)) + 2.0:",
           "tests/test_config_rejections.py::test_a_broken_value_is_a_"
           "config_error[affine_fixed_point_not_fixed]"),
    # equivalent in effect: listed, not run
    Mutant("bernoulli_redraw_batches_double", "sweeping.py",
           "rows *= 16", "rows *= 2", None,
           "changes only how many rejected rows one redraw call batches; "
           "the uniforms are the same stream, so every mask is the same"),
    Mutant("bernoulli_uniform_at_most_q", "sweeping.py",
           "rng.random((rows, m)) < q)", "rng.random((rows, m)) <= q)", None,
           "differs only when a uniform equals q exactly, an event of "
           "probability zero that no seed in the suite draws"),
    Mutant("nonzero_bits_search_left", "sweeping.py",
           'cdf.searchsorted(rng.random() * cdf[-1], side="right")',
           'cdf.searchsorted(rng.random() * cdf[-1], side="left")', None,
           "differs only when a scaled uniform equals a cdf entry exactly, "
           "an event of probability zero"),
)


def _pytest(src: str, cwd: str, *args: str, timeout: float) -> int | None:
    """The exit status of pytest against the package in ``src``, or None
    when it times out."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--rootdir", ROOT,
           "-c", os.path.join(ROOT, "pyproject.toml"), *args]
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return None


# pytest's exit statuses: 1 a test failed, 2 collection failed
_KILLED = (1, 2, None)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "blocksweep", mutant.file)
        with open(path) as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "error: the edit does not apply once", 0.0
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        status = _pytest(src, tmp, os.path.join(ROOT, mutant.test),
                         timeout=600)
        if status in _KILLED:
            outcome = f"killed by {mutant.test}"
        elif status != 0:
            outcome = f"error: pytest exit status {status} on {mutant.test}"
        elif _pytest(src, tmp, os.path.join(ROOT, "tests"),
                     "--continue-on-collection-errors",
                     timeout=1800) in _KILLED:
            outcome = f"killed by tier-1, not by {mutant.test}"
        else:
            outcome = "survived"
    return outcome, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME",
                        help="run only the entry of this name")
    args = parser.parse_args(argv)
    table = [m for m in MUTANTS if args.only in (None, m.name)]
    if not table:
        parser.error(f"no mutant named {args.only!r}")
    bad = 0
    for mutant in table:
        if mutant.test is None:
            print(f"{mutant.name}: equivalent, not run: {mutant.reason}")
            continue
        outcome, seconds = run(mutant)
        print(f"{mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
        bad += not outcome.startswith("killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
