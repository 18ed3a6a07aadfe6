"""``cli.load_config`` decides validity without importing jsonschema, and imports it
only to word the error of a config that fails; ``verify`` loads only with its commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import glob, json, sys
from quantloss import cli
for path in sorted(glob.glob(sys.argv[1] + "/configs/*.json")):
    cli.load_config(path)
loaded = {name: name in sys.modules for name in ("jsonschema", "quantloss.verify")}
try:
    cli.load_config(sys.argv[2])
except cli.CliError as e:
    error = str(e)
print(json.dumps({"loaded": loaded, "error": error, "jsonschema_after": "jsonschema" in sys.modules}))
"""


def test_valid_presets_load_without_jsonschema_and_a_bad_one_keeps_its_message(tmp_path):
    bad = {"task": "classification", "train": {"epochs": True}}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(REPO), str(bad_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == {"jsonschema": False, "quantloss.verify": False}
    schema = json.loads((REPO / "src" / "quantloss" / "config_schema.json").read_text())
    want = jsonschema.exceptions.best_match(jsonschema.validators.validator_for(schema)(schema).iter_errors(bad))
    assert got["error"] == f"config {bad_path}: field train/epochs: {want.message}"
    assert got["jsonschema_after"]
