"""The benchmark's tracer patches the program's functions by name
(`perfbench/run.py` `install_tracer`), so a name it looks up that is
deleted or renamed fails here as well as in the benchmark's own smoke run.
Every patch is undone before the test ends."""

import methodlens.gitrepo
import methodlens.java_extract
import methodlens.pipeline


def test_the_benchmark_tracer_finds_every_name_it_patches(bench_run, monkeypatch):
    before = (methodlens.java_extract.tokenize, methodlens.pipeline.trace_method, methodlens.gitrepo.subprocess)
    tracers = []
    real_tracer = bench_run.Tracer
    monkeypatch.setattr(bench_run, "Tracer", lambda: tracers.append(real_tracer()) or tracers[-1])
    try:
        bench_run.install_tracer(methodlens.pipeline)
    finally:
        for tracer in tracers:
            tracer.restore()
    assert len(tracers) == 1
    assert (methodlens.java_extract.tokenize, methodlens.pipeline.trace_method,
            methodlens.gitrepo.subprocess) == before
