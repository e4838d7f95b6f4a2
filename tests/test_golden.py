"""Every file ``resodyn full`` writes for the shipped configs, and its stdout,
and every file and the stdout of each experiment of the bench rounds in
``ROUNDS`` and of each experiment file in ``CASES``, against the digests in
tests/golden/shipped.json (the demos' stdout is checked in test_demos.py)."""

REGENERATE = ("run `PYTHONPATH=src python tests/golden/regenerate.py` and list every "
              "changed entry in CHANGES.md")


def test_full_outputs_match_the_manifest(golden):
    changed = golden.differences(golden.load()["full"], golden.full_digests())
    assert not changed, (
        "outputs of `resodyn full` differ from tests/golden/shipped.json; if the change is "
        f"meant, {REGENERATE}:\n" + "\n".join(changed))


def test_bench_round_outputs_match_the_manifest(golden):
    changed = golden.differences(golden.load()["rounds"], golden.round_digests())
    assert not changed, (
        "outputs of the bench rounds differ from tests/golden/shipped.json; if the change "
        f"is meant, {REGENERATE}:\n" + "\n".join(changed))


def test_case_outputs_match_the_manifest(golden):
    changed = golden.differences(golden.load()["cases"], golden.case_digests())
    assert not changed, (
        "outputs of the experiment files in tests/golden/ differ from "
        f"tests/golden/shipped.json; if the change is meant, {REGENERATE}:\n"
        + "\n".join(changed))
