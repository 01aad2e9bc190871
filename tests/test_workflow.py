"""The CI workflow's console-script steps, run here through a `lamptwist` shim.

Every `run:` step of `.github/workflows/tests.yml` runs in order, as GitHub's
runner would run it: from the checkout root or its `working-directory`, with
`RUNNER_TEMP` pointing at one directory shared by all steps, and with a
`lamptwist` on `PATH` that calls `lamptwist.cli:main` as the installed
console script does.  The steps that install the package, run this suite or
run the benchmark are left out.
"""

import os
import pathlib
import subprocess
import sys

import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = {
    "Install the package with its test extras": "pip install",
    "Tier-1 tests": "pytest",
    "Smoke-run the benchmark harness": "perfbench/",
}
CONSOLE_SCRIPT = f"""#!{sys.executable}
import sys
from lamptwist.cli import main
sys.exit(main())
"""


def workflow_steps():
    (job,) = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
    return [step for step in job["steps"] if "run" in step]


def test_every_console_script_step_passes(tmp_path):
    bin_dir, runner_temp = tmp_path / "bin", tmp_path / "runner-temp"
    bin_dir.mkdir()
    runner_temp.mkdir()
    shim = bin_dir / "lamptwist"
    shim.write_text(CONSOLE_SCRIPT, encoding="utf-8")
    shim.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        PYTHONPATH=str(ROOT / "src"),
        RUNNER_TEMP=str(runner_temp),
    )

    skipped = []
    for step in workflow_steps():
        name, script = step["name"], step["run"]
        if any(marker in script for marker in SKIPPED.values()):
            skipped.append(name)
            continue
        # the default shell of a Linux runner, or the one `shell: bash` selects
        assert step.get("shell", "bash") == "bash", f"step {name!r} uses another shell"
        shell = ["bash", "-e"]
        if "shell" in step:
            shell = ["bash", "--noprofile", "--norc", "-eo", "pipefail"]
        cwd = step.get("working-directory", ".").replace("${{ runner.temp }}", str(runner_temp))
        assert "${{" not in script + cwd, f"step {name!r} uses an expression this test lacks"
        proc = subprocess.run(
            [*shell, "-c", script], cwd=ROOT / cwd, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"step {name!r} failed:\n{proc.stdout}\n{proc.stderr}"
    assert sorted(skipped) == sorted(SKIPPED)
