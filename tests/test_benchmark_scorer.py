"""The benchmark's output checker, quality scorer and trace points.

``perfbench/quality.py`` reads a finished workdir through the program's
codecs and encoder (``Vocabulary.load``, ``model.load_params``,
``extract_facets``, ``tokenize_query``, ``embed_batch`` and
``classify_batch_logits``), so a change to any of them that the pipeline
survives can still break every benchmark run. This runs both on the dense
workload's seed-1 inputs, without pinning the scores' digits, which move
with the BLAS build.

``perfbench/tracing.py`` patches the program's functions and methods by
name and skips a name it cannot find, so a rename or a move would make a
per-layer metric read 0 without an error; every name must resolve.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import quality  # noqa: E402
import tracing  # noqa: E402

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


# the patch points that resolve to nothing in this version of the program;
# their metrics read 0 until the benchmark drops them
UNRESOLVED = {"model.embed", "model.classify_logits",
              "dedup.FacetIndex.vector", "train.make_embed_fn"}


def test_every_trace_point_resolves():
    def module(name):
        return importlib.import_module(f"topicforge.{name}")

    unresolved = set()
    for mod_name, attr, *_ in tracing.FUNCTIONS:
        if getattr(module(mod_name), attr, None) is None:
            unresolved.add(f"{mod_name}.{attr}")
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(module(mod_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            unresolved.add(f"{mod_name}.{cls_name}.{attr}")
    # install's closure factory and stage table
    if getattr(module("train"), "make_embed_fn", None) is None:
        unresolved.add("train.make_embed_fn")
    assert set(module("pipeline")._STAGE_FNS) == set(module("pipeline").STAGES)
    assert unresolved == UNRESOLVED
