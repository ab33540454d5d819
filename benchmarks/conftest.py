"""Benchmark-suite helpers.

Every benchmark target regenerates one table or figure of the paper. The
experiments are deterministic simulations, so each runs exactly once
(``rounds=1``) — the interesting output is the printed experiment report
(paper expectation vs measured rows), not timing jitter statistics.
"""

import pytest

from repro.experiments import registry, validate_spec
from repro.experiments.compiler import Sweep


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner


@pytest.fixture
def figure():
    """Compile a benchmark's own axes and params as an inline spec.

    The kind (and, unless given, the title and paper expectation) come
    from the committed spec of that id; the sweep axes and params are
    the benchmark's, not the spec file's.
    """

    def compile_inline(spec_id, sweep=None, title=None, expectation=None,
                       **params):
        committed = registry.get(spec_id)
        return Sweep(validate_spec({
            "id": spec_id,
            "kind": committed["kind"],
            "title": title or committed["title"],
            "expectation": expectation or committed["expectation"],
            "sweep": sweep or {},
            "params": params,
        }))

    return compile_inline
