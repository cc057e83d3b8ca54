import ipfem


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in ipfem.__all__ if not hasattr(ipfem, name)]
    assert not missing
    assert len(set(ipfem.__all__)) == len(ipfem.__all__)


def test_the_ci_workflow_parses_and_every_step_runs_or_uses_one_thing():
    # a missing space in "run: PYTHONPATH=..." makes the file unparseable,
    # and safe_load raises; a step must also run a command or use an action,
    # not both
    from pathlib import Path

    import pytest

    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((Path(__file__).resolve().parent.parent / ".github/workflows/tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step, dict) and len({"run", "uses"} & step.keys()) == 1, step
