"""Every golden output, regenerated in process, keeps its recorded bytes (see ``golden_set``)."""

import json

import golden_set

MANIFEST = json.loads(golden_set.MANIFEST.read_text(encoding="utf-8"))


def test_verify_json_keeps_its_golden_text():
    code, text = golden_set.run(golden_set.VERIFY_ARGV)
    where = golden_set.first_difference(text, golden_set.VERIFY_TEXT.read_text(encoding="utf-8"))
    assert (code, where) == (0, None), (
        f"{' '.join(golden_set.VERIFY_ARGV)}: exit {code}, {where}; "
        f"{golden_set.environment_note(MANIFEST['environment'])}")


def test_matrix_and_simulate_keep_their_recorded_outputs():
    names = [" ".join(argv) for argv in golden_set.manifest_argvs()]
    assert sorted(names) == sorted(MANIFEST["outputs"])
    moved = []
    for argv, name in zip(golden_set.manifest_argvs(), names):
        code, text = golden_set.run(argv)
        got, want = golden_set.record(code, text), MANIFEST["outputs"][name]
        if got != want:
            moved.append(f"{name}: {golden_set.first_record_difference(text, got, want)}")
    assert not moved, "\n".join(
        [*moved, golden_set.environment_note(MANIFEST["environment"])])
