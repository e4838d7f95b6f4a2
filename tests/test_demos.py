"""Every demo script runs to a clean exit against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
STDOUT = {}  # demo name -> the stdout of its run in test_demo_runs


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited with {exc.code!r}"
    STDOUT[path.stem] = capsys.readouterr().out
    assert STDOUT[path.stem]


def test_demo_stdout_matches_the_manifest(golden):
    # reads the runs above; a demo they did not run (a -k selection) runs here
    for path in DEMOS:
        if path.stem not in STDOUT:
            STDOUT[path.stem] = golden.demo_stdout(path)
    changed = golden.differences(golden.load()["demos"],
                                 {name: golden.digest(out) for name, out in STDOUT.items()})
    assert not changed, (
        "demo stdout differs from tests/golden/shipped.json; if the change is meant, run "
        "`PYTHONPATH=src python tests/golden/regenerate.py` and list every changed entry "
        "in CHANGES.md:\n" + "\n".join(changed))
