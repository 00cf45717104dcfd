"""The benchmark's tracing contract: perfbench/tracing.py wraps library
functions by name and counts the network it keeps, so a refactor that
renames one of them, or changes what they return, breaks traced runs."""

import importlib.util
import pathlib

import pytest

import scsp
import scsp.cli
import scsp.solver
import scsp.submodular
from scsp import build_network, compile_to_intervals, min_cut, parse_instance

_TRACING = (pathlib.Path(__file__).resolve().parent.parent
            / "perfbench" / "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def quadratic(data_dir):
    return data_dir / "quadratic.scsp"


def check_counts(tracing, tracer, source):
    network = tracer.kept["cutgraph.build_network"]
    cut = tracer.kept["cutgraph.min_cut"]
    counts = tracing.network_counts(network, cut)
    assert counts["cutgraph.nodes"] == len(network.nodes)
    assert counts["cutgraph.edges"] == len(network.edges)
    # the same shape as an untraced build and cut of the same file
    expected = build_network(compile_to_intervals(
        parse_instance(source.read_text())))
    assert (len(expected.nodes), len(expected.edges)) == (
        len(network.nodes), len(network.edges))
    assert counts["cutgraph.cut_edges"] == len(min_cut(expected).cut_edges)


def check_decompositions(tracer):
    """quadratic.scsp holds six distinct unary tables and one binary table
    on three scopes; each is decomposed once, under a span the benchmark's
    ``submodular.terms`` and ``submodular.decompose_s`` are read from."""
    assert tracer.calls("submodular.decompose_unary") == 6
    assert tracer.calls("submodular.decompose_binary") == 1
    assert len(tracer.term_counts) == 7
    assert all(terms > 0 for _, _, terms in tracer.term_counts)


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, _ in tracing.WRAPPED:
        assert callable(getattr(getattr(scsp, module_name), attr)), (
            module_name, attr)


def test_traced_solve(tracing, quadratic):
    instance = parse_instance(quadratic.read_text())
    tracer = tracing.Tracer(scsp)
    # looked up at call time, as the benchmark's worker does
    solution, seconds = tracer.root(lambda i: scsp.solver.solve(i), instance)
    assert str(solution.evaluation) == "11/4" and seconds > 0
    assert {"cutgraph.build_network", "cutgraph.min_cut"} <= set(tracer.kept)
    assert tracer.calls("solver.solve") == 1
    assert tracer.calls("submodular.find_violation") == 1
    check_decompositions(tracer)
    check_counts(tracing, tracer, quadratic)
    # uninstall put the originals back
    assert scsp.solver.min_cut is min_cut


def test_traced_command_line(tracing, quadratic, tmp_path, capsys):
    graph = tmp_path / "network.edges"
    tracer = tracing.Tracer(scsp)
    code, _ = tracer.root(scsp.cli.main,
                          ["solve", str(quadratic), "--emit-graph", str(graph)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "evaluation = 11/4"
    assert {"fileformat.parse_instance", "cutgraph.build_network",
            "cutgraph.min_cut"} <= set(tracer.kept)
    assert tracer.calls("cutgraph.format_network") == 1
    check_decompositions(tracer)
    check_counts(tracing, tracer, quadratic)
    times = tracing.layer_times(tracer.self_times())
    assert set(times) == set(tracing.LAYER_TIMES)
    assert scsp.cli.parse_instance is parse_instance
