"""numpy and the classifiers load only when a train stage runs."""

import json
import subprocess
import sys
from pathlib import Path

from methodlens import labeling, ml, pipeline
from methodlens.cli import build_parser

TESTS = Path(__file__).resolve().parent
SRC = Path(pipeline.__file__).resolve().parents[1]

# runs in a fresh interpreter: the test session has numpy loaded already
COLD_PATH = """
import json, sys, tempfile
from pathlib import Path

sys.path[:0] = [SRC, TESTS]
import methodlens.cli
from methodlens import pipeline
from synth import separable_corpus

loaded = lambda: {name: name in sys.modules for name in ("numpy", "methodlens.ml")}
seen = {"cli": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    methods = separable_corpus(projects=3, per_project=20, seed=1)
    pipeline.write_ndjson(out / "dataset.ndjson", "label", {},
                          [pipeline.labeled_record(m, 0, 2000.0) for m in methods])
    pipeline.run_train(pipeline.PipelineConfig(), out, {}, dataset_path=out / "dataset.ndjson",
                       classifiers=["tree"])
    seen["train"] = loaded()
    seen["status"] = json.loads((out / "report.json").read_text()).get("status")
print(json.dumps(seen))
"""


def test_the_cli_imports_neither_numpy_nor_ml_until_train_runs():
    code = f"SRC, TESTS = {str(SRC)!r}, {str(TESTS)!r}\n" + COLD_PATH
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["cli"] == {"numpy": False, "methodlens.ml": False}
    assert seen["status"] is None  # the corpus trained
    assert seen["train"] == {"numpy": True, "methodlens.ml": True}


# runs in a fresh interpreter: a one-project corpus cannot train
NOT_TRAINABLE = """
import json, sys, tempfile
from pathlib import Path

sys.path[:0] = [SRC, TESTS]
from methodlens import pipeline
from synth import separable_corpus

seen = {}
for case, approach, labels in (("1", 1, ("good", "ugly")), ("2", 2, ("good", "ugly")), ("good", 2, ("good",))):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        methods = [m for m in separable_corpus(projects=1, per_project=20, seed=1) if m.label in labels]
        pipeline.write_ndjson(out / "dataset.ndjson", "label", {},
                              [pipeline.labeled_record(m, 0, 2000.0) for m in methods])
        pipeline.run_train(pipeline.PipelineConfig(approach=approach), out, {}, dataset_path=out / "dataset.ndjson")
        report = json.loads((out / "report.json").read_text())
        seen[case] = [report["status"], report["reason"]]
seen["loaded"] = [name for name in ("numpy", "methodlens.ml") if name in sys.modules]
print(json.dumps(seen))
"""


def test_a_corpus_too_small_to_train_is_reported_without_numpy():
    code = f"SRC, TESTS = {str(SRC)!r}, {str(TESTS)!r}\n" + NOT_TRAINABLE
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "1": ["not-trainable", "need at least 3 projects, got 1"],
        "2": ["not-trainable", "leave-one-out needs at least 2 projects"],
        "good": ["not-trainable", "no ugly-labeled rows; cannot train a classifier"],  # checked first
        "loaded": [],
    }


def test_the_train_classifier_choices_are_the_trainers_in_order():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    train = subparsers.choices["train"]
    classifier = next(a for a in train._actions if "--classifier" in a.option_strings)
    assert tuple(classifier.choices) == ml.CLASSIFIER_NAMES == tuple(ml._TRAINERS)
    assert ml.CLASSIFIER_NAMES is labeling.CLASSIFIER_NAMES
