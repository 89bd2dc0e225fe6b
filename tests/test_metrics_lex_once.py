"""Each declaration is lexed once for all 17 metrics, and the pipeline
lexes each introduction once, in trace."""

import pytest

from methodlens import metrics
from methodlens.gitrepo import GitRepo
from methodlens.java_extract import extract_methods, normalize_source
from methodlens.metrics import compute_metric_vector
from methodlens.pipeline import PipelineConfig, read_ndjson, run_stage

from golden_corpus import corpus_files

DECLS = [decl for content in corpus_files().values()
         for decl in extract_methods(normalize_source(content))]


@pytest.fixture
def lexed(monkeypatch):
    texts = []
    real_tokenize = metrics.tokenize
    monkeypatch.setattr(metrics, "tokenize", lambda text, memo=None: texts.append(text) or real_tokenize(text, memo))
    return texts


def test_metric_vector_lexes_the_declaration_once(lexed):
    for decl in DECLS[:5]:
        lexed.clear()
        compute_metric_vector(decl)
        assert lexed == [decl.bodyText]


def test_trace_lexes_each_introduction_once_and_label_lexes_none(fixture_repo, tmp_path, lexed):
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    git = GitRepo(config.repo)
    run_stage("extract", config, {}, git, config.commit)
    lexed.clear()
    run_stage("trace", config, {"methods.ndjson": tmp_path / "methods.ndjson"}, git, config.commit)
    _, histories = read_ndjson(tmp_path / "histories.ndjson")
    assert len(histories) == 11  # the young method too
    assert sorted(lexed) == sorted(h["introduction"]["method"]["body"] for h in histories)
    lexed.clear()
    run_stage("label", config, {"histories.ndjson": tmp_path / "histories.ndjson"}, None, config.commit)
    _, records = read_ndjson(tmp_path / "dataset.ndjson")
    assert 0 < len(records) < 11  # some methods are too young to be labelled
    assert lexed == []
