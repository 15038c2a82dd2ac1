"""The benchmark's output checker and quality scorer on a real run.

``perfbench/quality.py`` reads a finished workdir through the program's
codecs and encoder (``Vocabulary.load``, ``model.load_params``,
``extract_facets``, ``tokenize_query``, ``embed_batch`` and
``classify_batch_logits``), so a change to any of them that the pipeline
survives can still break every benchmark run. This runs both on the dense
workload's seed-1 inputs, without pinning the scores' digits, which move
with the BLAS build.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import quality  # noqa: E402

from topicforge import cli  # noqa: E402


def test_checker_and_scores_read_a_dense_run(tmp_path, capsys):
    paths = gen.write_inputs("dense", 1, tmp_path / "inputs")
    workdir = tmp_path / "w"
    assert cli.main(["all", "--config", str(paths["config"]),
                     "--workdir", str(workdir)]) == 0
    capsys.readouterr()
    assert checker.check_run(workdir, paths["config"]) == []
    scores = quality.scores(workdir, tmp_path / "inputs")
    assert math.isfinite(scores["intent_auc"])
    assert 0.5 < scores["intent_auc"] <= 1.0
    assert math.isfinite(scores["shelf_xent"]) and scores["shelf_xent"] > 0
