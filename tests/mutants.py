"""Mutants of the spec's boundary rules, and the tests that kill them.

Each row of MUTANTS makes one small edit to one rule in `src/grasplab`: the file, the old text, the new
text, and the id of the tier-1 test that must fail once the edit is made. The old text must occur exactly
once in its file, so a refactor that moves a rule fails here instead of turning its row into a silent
survivor. A row that no test can tell apart from the original names no test and gives the reason instead.

Each row is applied to a temporary copy of `src/`, `tests/`, `pyproject.toml` and `README.md` made outside
the checkout, and pytest runs there, so no cache or example database reaches the checkout:

    python tests/mutants.py          # first the named tests on an unmutated copy, then each row's test
    python tests/mutants.py --full   # all of tier-1 on each mutated copy

Hypothesis runs with a fixed seed, so a property that kills a row kills it on every run. A row is killed
when a test fails (pytest exits 1); a mutant that breaks pytest itself (exit 2 or more, say an import error)
does not count as killed. It exits 0 when every row is killed or marked equivalent, and 1 otherwise. Its name
does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    file: str           # under src/grasplab
    old: str            # occurs exactly once in the file
    new: str
    test: str | None    # a tier-1 test id that fails on the mutant; None for an equivalent mutant
    reason: str = ""    # why an equivalent mutant cannot be told apart


_CONTACT_ORACLE = "tests/test_contact.py::TestContactOracle::test_find_contacts_matches_the_oracle"
_CLOSING_CORNERS = ("tests/test_collision.py::TestClosingBall::"
                    "test_points_at_the_corners_and_the_ball_edge_match_full_scan")

MUTANTS = [
    Mutant("metrics.py", "dists <= radius", "dists < radius",
           "tests/test_metrics.py::TestCoverageRate::test_a_center_exactly_at_the_radius_covers"),
    Mutant("contact.py", "abs(pair.y_i - pair.y_j) <= s.width", "abs(pair.y_i - pair.y_j) < s.width",
           "tests/test_contact.py::TestWidthFit::test_a_spread_of_exactly_the_opening_fits"),
    Mutant("contact.py", "return min(score, 1.0)", "return score",
           "tests/test_contact.py::TestAntipodalScore::test_product_an_ulp_above_one_is_clamped"),
    Mutant("anchors.py", "classes[angles >= angle_neg]", "classes[angles > angle_neg]",
           "tests/test_anchors.py::TestAssignAnchorLabels::test_an_angle_of_exactly_both_thresholds"),
    Mutant("anchors.py", "if angles[best] < angle_pos:", "if angles[best] <= angle_pos:",
           "tests/test_anchors.py::TestAssignAnchorLabels::test_an_angle_of_exactly_both_thresholds"),
    Mutant("anchors.py", "if dc < d1 and", "if dc <= d1 and",
           "tests/test_anchors.py::TestRefineLabels::test_offsets_of_exactly_a_threshold"),
    Mutant("anchors.py", "and dt < gamma1:", "and dt <= gamma1:",
           "tests/test_anchors.py::TestRefineLabels::test_offsets_of_exactly_a_threshold"),
    Mutant("anchors.py", "if dc > d2 or", "if dc >= d2 or",
           "tests/test_anchors.py::TestRefineLabels::test_offsets_of_exactly_a_threshold"),
    Mutant("anchors.py", "or dt >= gamma2:", "or dt > gamma2:",
           "tests/test_anchors.py::TestRefineLabels::test_offsets_of_exactly_a_threshold"),
    Mutant("sampling.py", "if n > keep:", "if n >= keep:",
           "tests/test_sampling.py::TestBallQuery::test_exactly_keep_rows_are_all_kept_in_order"),
    Mutant("sampling.py", "valid = eigvals[:, 1] > 1e-10 *", "valid = eigvals[:, 1] > 1e-6 *",
           "tests/test_sampling.py::TestEstimateNormals::test_a_thin_but_planar_neighbourhood_stays_valid"),
    Mutant("sampling.py", "np.einsum(\"ni,ni->n\", normals, p)) < 0.0", "np.einsum(\"ni,ni->n\", normals, p)) <= 0.0",
           None, "at a dot product of exactly 0 the viewpoint lies in the tangent plane, so neither sign faces "
                 "it; the spec orients a normal toward the viewpoint and has no rule for this tie, so keeping "
                 "the eigen-solver's sign (<) and flipping it (<=) both meet it"),
    Mutant("dataio.py", "raise ParseError(path, linenos[bad[0]], \"color", "raise ParseError(path, body_start, \"color",
           "tests/test_dataio.py::TestPointCloudIO::test_ply_color_out_of_range_names_its_row"),
    Mutant("losses.py", "if np.shape(label.classes) != (m,):", "if np.shape(label.classes)[0] > m:",
           "tests/test_losses.py::TestGrnLoss::test_labels_with_different_class_counts_rejected"),
    # rules that the oracle comparisons and the exact-face tests kill without an edge test of their own
    Mutant("collision.py", "tol = -BOUNDARY_TOL if strict else BOUNDARY_TOL",
           "tol = BOUNDARY_TOL if strict else -BOUNDARY_TOL",
           "tests/test_collision.py::TestBox3::test_contains_at_each_face"),
    Mutant("collision.py", "(d < kernel.r_in)", "(d <= kernel.r_in)",
           "tests/test_collision.py::TestCells::test_a_cell_too_thin_proves_nothing"),
    Mutant("collision.py", "_BALL_SLACK = 1e-9 ", "_BALL_SLACK = 0.0 ",
           "tests/test_collision.py::TestCells::test_circumscribed_balls_cover_the_worst_points"),
    Mutant("collision.py", "BOUNDARY_TOL = 1e-12 ", "BOUNDARY_TOL = 1e-9 ",
           "tests/test_collision.py::TestCells::test_circumscribed_balls_cover_the_worst_points"),
    Mutant("contact.py", "y.max() >= 0.0", "y.max() > 0.0", _CONTACT_ORACLE),
    Mutant("contact.py", "y.min() < 0.0", "y.min() <= 0.0", _CONTACT_ORACLE),
    Mutant("contact.py", "np.argmax(y)", "len(y) - 1 - np.argmax(y[::-1])", _CONTACT_ORACLE),
    Mutant("contact.py", "np.argmin(y)", "len(y) - 1 - np.argmin(y[::-1])", _CONTACT_ORACLE),
    Mutant("collision.py", "idx = np.sort(cloud.pairs(", "idx = (cloud.pairs(", _CONTACT_ORACLE),
    Mutant("collision.py", "math.hypot(*(v.closing.hi - v.closing.lo) / 2.0) + BOUNDARY_TOL + _BALL_SLACK",
           "math.hypot(*(v.closing.hi - v.closing.lo) / 2.0)", _CLOSING_CORNERS),
    Mutant("confidence.py", "np.sum(1.0 - d / d_th, axis=1)", "np.sum(1.0 + d / d_th, axis=1)",
           "tests/test_confidence.py::TestPointConfidence::test_two_grasps_sum_before_tanh"),
    Mutant("confidence.py", 'order = np.argsort(-field.values, kind="stable")',
           'order = n - 1 - np.argsort(-field.values[::-1], kind="stable")',
           "tests/test_confidence.py::TestSelectPositivePoints::test_all_equal_ties_break_by_index"),
    Mutant("policy.py", "float(result.fun @ result.fun) >= _limit_rss(x, y)",
           "float(result.fun @ result.fun) > _limit_rss(x, y)",
           "tests/test_policy.py::TestFitSigmoidDegenerateSamples::test_fit_is_finite"),
]


def _copy(dest: Path) -> None:
    dest.mkdir()
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests: list[str]) -> int:
    """pytest's exit status for `tests` (all of tier-1 when empty) run in `tree` against `tree`/src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _mutated(tree: Path, m: Mutant) -> str:
    """The text of m.file in `tree` with the row's edit made; the old text must occur exactly once."""
    text = (tree / "src" / "grasplab" / m.file).read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"mutants: {m.old!r} occurs {text.count(m.old)} times in src/grasplab/{m.file}, not once")
    return text.replace(m.old, m.new)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="run all of tier-1 on each mutant, not its one test")
    args = parser.parse_args(argv)
    for m in MUTANTS:  # every row's text is checked before any test runs
        _mutated(ROOT, m)
    with tempfile.TemporaryDirectory(prefix="grasplab-mutants-") as tmp:
        control = Path(tmp) / "control"
        _copy(control)
        named = sorted({m.test for m in MUTANTS if m.test})
        if _pytest(control, [] if args.full else named):
            print("mutants: the tests fail on the unmutated copy; no row can be judged")
            return 1
        survivors = 0
        for i, m in enumerate(MUTANTS):
            where = f"{m.file}: {m.old!r} -> {m.new!r}"
            if m.test is None:
                print(f"{'equivalent':<12}{where}\n{'':<12}{m.reason}")
                continue
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            (tree / "src" / "grasplab" / m.file).write_text(_mutated(tree, m))
            status = _pytest(tree, [] if args.full else [m.test])  # 1: a test failed; above 1, pytest broke
            survivors += status != 1
            print(f"{({0: 'SURVIVED', 1: 'killed'}).get(status, f'ERROR {status}'):<12}{where}")
            shutil.rmtree(tree)
    print(f"mutants: {len(MUTANTS)} rows, {survivors} not killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
