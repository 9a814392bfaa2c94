"""The README's examples run as written, and its list of practical keys
matches the code."""

import json
import re
from pathlib import Path

from subspace_bandit import harness
from subspace_bandit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(language):
    """The body of the README's first ```language block."""
    match = re.search(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no {language} block in the README"
    return match.group(1)


def test_python_quickstart_runs_and_splits_its_regret(capsys):
    namespace = {}
    exec(fenced_block("python"), namespace)
    capsys.readouterr()
    record = namespace["record"]
    total = record.total_regret
    assert abs(record.R1 + record.R2 + record.R3 - total) <= 1e-8 * max(1.0, abs(total))


def test_json_config_runs_a_sweep(tmp_path, capsys):
    config = json.loads(fenced_block("json"))
    config["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_listed_practical_keys_are_the_settable_ones():
    """Each bullet under "The keys are:" names keys in backticks before its
    first colon."""
    listing = README.split("The keys are:", 1)[1].strip().split("\n\n", 1)[0]
    keys = set()
    for bullet in re.findall(r"^\* (.*)$", listing, re.M):
        keys.update(re.findall(r"`([^`]+)`", bullet.split(":", 1)[0]))
    assert keys == harness._PRACTICAL_KEYS
