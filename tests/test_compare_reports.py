import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from skybps.cli import main
from skybps.lie_target import TargetGeometry

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref")
    assert main(["verify", "--family", "identity-u1", "-n", "16", "--emit-gnuplot",
                 "--output-dir", str(out)]) == 0
    return out


def compare(a, b, *extra):
    res = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *extra],
                         capture_output=True, text=True, timeout=60)
    return res.returncode, res.stdout


def edited_copy(reference, tmp_path, edit_report=None, edit_csv=None):
    out = tmp_path / "edited"
    shutil.copytree(reference, out)
    if edit_report:
        report = json.loads((out / "report.json").read_text())
        edit_report(report)
        (out / "report.json").write_text(json.dumps(report))
    if edit_csv:
        (out / "results.csv").write_text(edit_csv((out / "results.csv").read_text()))
    return out


def test_equal_reports(reference, tmp_path):
    rc, out = compare(reference, edited_copy(reference, tmp_path))
    assert rc == 0
    assert "largest relative difference: 0.000e+00" in out


def test_float_within_and_over_the_bound(reference, tmp_path):
    def nudge(rel):
        def edit(report):
            report["rows"][1]["energy"] *= 1.0 + rel
        return edit

    within = edited_copy(reference, tmp_path / "a", nudge(1e-14))
    rc, out = compare(reference, within)
    assert rc == 0 and "at report.json:rows[1].energy" in out
    over = edited_copy(reference, tmp_path / "b", nudge(1e-9))
    rc, out = compare(reference, over)
    assert rc == 1 and "at report.json:rows[1].energy" in out
    assert compare(reference, over, "--rel", "1e-6")[0] == 0


def test_small_floats_are_compared_at_their_own_scale(reference, tmp_path):
    # a residual at rounding moved by 1e-15 is a relative change of about
    # 10: it fails at the default bound, where |a - b| / max(1, |a|) passed
    # it, and passes only under an absolute floor above the change
    report = json.loads((reference / "report.json").read_text())
    at = next(i for i, c in enumerate(report["checks"]) if 0 < c["value"] < 1e-15)

    def nudge(report):
        report["checks"][at]["value"] += 1e-15

    moved = edited_copy(reference, tmp_path, nudge)
    rc, out = compare(reference, moved)
    assert rc == 1 and f"at report.json:checks[{at}].value" in out
    assert compare(reference, moved, "--abs", "2e-15")[0] == 0
    assert compare(reference, moved, "--abs", "5e-16")[0] == 1


def test_rounding_change_of_the_volume_passes_at_the_scale_of_e(reference, tmp_path, monkeypatch):
    # the gap E - 6 Vol(N)|deg| cancels to about 1e-9 of E, so 2 ulps of
    # Vol(N) move it by far more than 1e-12 of itself; it is compared at the
    # scale of its row's E, in the report and in both tables, and gap_rel at 1
    real = TargetGeometry.volume
    monkeypatch.setattr(TargetGeometry, "volume", lambda self: real(self) * (1.0 + 4e-16))
    moved = tmp_path / "moved"
    assert main(["verify", "--family", "identity-u1", "-n", "16", "--emit-gnuplot",
                 "--output-dir", str(moved)]) == 0
    rows = [json.loads((d / "report.json").read_text())["rows"] for d in (reference, moved)]
    assert max(abs(b["gap"] - a["gap"]) / abs(a["gap"]) for a, b in zip(*rows)) > 1e-8
    rc, out = compare(reference, moved, "--rel", "1e-12", "--abs", "0")
    assert rc == 0, out
    assert "largest relative difference: 0.000e+00" not in out


def test_degree_near_an_integer_is_compared_at_the_scale_of_the_degree(reference, tmp_path,
                                                                      monkeypatch):
    # |deg - round(deg)| cancels like the gap: with Vol(N) scaled so that
    # the degree sits 2e-4 above 1, 2 ulps of Vol(N) move the check by about
    # 2e-12 of itself; it is compared at the scale max(1, |deg|), so that
    # change passes and a change of 1e-10 still fails
    deg = json.loads((reference / "report.json").read_text())["degree_extrapolated"]
    near = deg / (1.0 + 2e-4)
    real = TargetGeometry.volume

    def run(name, rel):
        monkeypatch.setattr(TargetGeometry, "volume", lambda self: real(self) * near * (1.0 + rel))
        out = tmp_path / name
        assert main(["verify", "--family", "identity-u1", "-n", "16", "--emit-gnuplot",
                     "--output-dir", str(out)]) == 0
        return out

    base, moved, far = run("base", 0.0), run("moved", 4e-16), run("far", 1e-10)
    a, b = (next(c["value"] for c in json.loads((d / "report.json").read_text())["checks"]
                 if c["name"] == "degree_integer") for d in (base, moved))
    assert abs(a - 2e-4) < 1e-9 and abs(b - a) / a > 1e-12
    rc, out = compare(base, moved, "--rel", "1e-12", "--abs", "0")
    assert rc == 0, out
    assert compare(base, far, "--rel", "1e-12", "--abs", "0")[0] == 1


def test_a_table_in_one_directory_only_fails(reference, tmp_path):
    edited = edited_copy(reference, tmp_path)
    (edited / "results.dat").unlink()
    rc, out = compare(reference, edited)
    assert rc == 1 and "non-float difference: results.dat: only in" in out


def test_nan_against_a_number_fails_under_any_bound(reference, tmp_path):
    def poison(report):
        report["rows"][1]["energy"] = float("nan")

    rc, out = compare(reference, edited_copy(reference, tmp_path, poison), "--rel", "1", "--abs", "1")
    assert rc == 1 and "inf at report.json:rows[1].energy" in out


def test_flipped_flag_fails(reference, tmp_path):
    def flip(report):
        report["checks"][0]["pass"] = not report["checks"][0]["pass"]

    rc, out = compare(reference, edited_copy(reference, tmp_path, flip))
    assert rc == 1
    assert "non-float difference: report.json:checks[0].pass" in out


def test_csv_header_and_exit_column_fail(reference, tmp_path):
    header = edited_copy(reference, tmp_path / "a",
                         edit_csv=lambda text: text.replace("gap,", "gap_,", 1))
    assert compare(reference, header)[0] == 1

    def bump_exit(text):
        lines = text.splitlines()
        lines[1] = lines[1][:-1] + "1"  # the exit code is the last cell
        return "\n".join(lines) + "\n"

    rc, out = compare(reference, edited_copy(reference, tmp_path / "b", edit_csv=bump_exit))
    assert rc == 1 and "row 0.exit" in out


def test_missing_file_exit_2(reference, tmp_path):
    assert compare(reference, tmp_path)[0] == 2
