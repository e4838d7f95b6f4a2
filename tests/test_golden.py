"""Every file ``resodyn full`` writes for the shipped configs, and its stdout,
against the digests in tests/golden/shipped.json (the demos' stdout is
checked in test_demos.py)."""


def test_full_outputs_match_the_manifest(golden):
    changed = golden.differences(golden.load()["full"], golden.full_digests())
    assert not changed, (
        "outputs of `resodyn full` differ from tests/golden/shipped.json; if the change is "
        "meant, run `PYTHONPATH=src python tests/golden/regenerate.py` and list every "
        "changed entry in CHANGES.md:\n" + "\n".join(changed))
