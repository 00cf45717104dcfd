"""The command-line interface, driven through main(argv)."""

import pytest

import scsp.solver
from scsp import BinaryTable, parse_instance
from scsp.cli import main
from scsp.cutgraph import NETWORK_GUARD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, name):
    """Replace scsp.solver.<name> by a wrapper that records its first
    argument; returns the list of recorded arguments."""
    calls = []
    original = getattr(scsp.solver, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(scsp.solver, name, counting)
    return calls


def distinct_tables(source):
    return {c.function for c in parse_instance(source.read_text()).constraints
            if isinstance(c.function, BinaryTable)}


class TestSolve:
    def test_chain(self, capsys, chain_file):
        code, out, err = run(capsys, "solve", str(chain_file))
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "x = 4", "y = 4", "z = 1", "evaluation = 5"]

    def test_quadratic(self, capsys, data_dir):
        code, out, _ = run(capsys, "solve", str(data_dir / "quadratic.scsp"))
        assert code == 0
        assert out.splitlines()[-1] == "evaluation = 11/4"

    def test_emit_graph(self, capsys, chain_file, tmp_path):
        target = tmp_path / "network.edges"
        code, out, _ = run(capsys, "solve", str(chain_file),
                           "--emit-graph", str(target))
        assert code == 0 and "evaluation = 5" in out
        lines = target.read_text().splitlines()
        assert len(lines) == 22
        assert "x_4 y_2 3 constraint:0" in lines

    def test_emit_graph_is_the_graph_output(self, capsys, data_dir, tmp_path):
        source = str(data_dir / "quadratic.scsp")
        target = tmp_path / "network.edges"
        code, _, _ = run(capsys, "solve", source, "--emit-graph", str(target))
        assert code == 0
        code, out, _ = run(capsys, "graph", source)
        assert code == 0 and target.read_bytes() == out.encode()

    def test_emit_graph_decomposes_each_table_once(self, capsys, data_dir,
                                                  tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "decompose_binary")
        source = data_dir / "quadratic.scsp"
        code, _, _ = run(capsys, "solve", str(source),
                         "--emit-graph", str(tmp_path / "network.edges"))
        assert code == 0
        # quadratic.scsp repeats one table three times: one decomposition
        # per distinct table, and a second compile would make it two
        assert len(distinct_tables(source)) == 1 and len(calls) == 1

    def test_emit_graph_unwritable(self, capsys, chain_file, tmp_path):
        target = tmp_path / "missing" / "network.edges"
        code, out, err = run(capsys, "solve", str(chain_file),
                             "--emit-graph", str(target))
        assert code == 1 and "evaluation = 5" in out
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

    def test_non_submodular_input(self, capsys, data_dir):
        code, out, _ = run(capsys, "solve", str(data_dir / "xor.scsp"))
        assert code == 2
        assert out.strip() == \
            "not submodular: constraint 0 witness u=1 v=1 x=2 y=2"


class TestCheck:
    def test_accepts_submodular_instance(self, capsys, data_dir):
        code, out, _ = run(capsys, "check", str(data_dir / "quadratic.scsp"))
        assert code == 0 and out.strip() == "submodular"

    def test_rejects_xor(self, capsys, data_dir):
        code, out, _ = run(capsys, "check", str(data_dir / "xor.scsp"))
        assert code == 2 and "witness u=1 v=1 x=2 y=2" in out

    def test_repeated_scope_is_exempt(self, capsys, tmp_path):
        # a table on a repeated scope only contributes its diagonal
        path = tmp_path / "diag.scsp"
        path.write_text("scsp 1\ndomain 2\nvar p\nbinary p p 1 0 / 0 1\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and out.strip() == "submodular"

    def test_checks_each_table_once(self, capsys, data_dir, monkeypatch):
        calls = count_calls(monkeypatch, "find_violation")
        source = data_dir / "quadratic.scsp"
        code, out, _ = run(capsys, "check", str(source))
        assert code == 0 and out.strip() == "submodular"
        # quadratic.scsp repeats one table three times
        assert len(distinct_tables(source)) == 1 and len(calls) == 1

    def test_repeated_table_reports_first_distinct_scope(self, capsys,
                                                         tmp_path):
        # the xor table on (p, p) is exempt; its copy on (p, q) is not
        path = tmp_path / "xor2.scsp"
        path.write_text("scsp 1\ndomain 2\nvar p\nvar q\n"
                        "binary p p 1 0 / 0 1\n"
                        "binary p q 1 0 / 0 1\n"
                        "binary q p 1 0 / 0 1\n")
        for command in ("check", "decompose", "solve"):
            code, out, _ = run(capsys, command, str(path))
            assert code == 2 and out.splitlines()[-1] == \
                "not submodular: constraint 1 witness u=1 v=1 x=2 y=2"


class TestDecompose:
    def test_chain_has_no_tables(self, capsys, chain_file):
        code, out, _ = run(capsys, "decompose", str(chain_file))
        assert code == 0 and out == ""

    def test_decomposes_each_table_once(self, capsys, data_dir, monkeypatch):
        calls = count_calls(monkeypatch, "decompose_binary")
        source = data_dir / "quadratic.scsp"
        code, out, _ = run(capsys, "decompose", str(source))
        assert code == 0 and out
        # quadratic.scsp repeats one table three times
        assert len(distinct_tables(source)) == 1 and len(calls) == 1

    def test_terms_reparse_to_equivalent_instance(self, capsys, data_dir,
                                                  tmp_path):
        source = data_dir / "quadratic.scsp"
        code, out, _ = run(capsys, "decompose", str(source))
        assert code == 0
        assert all(line.startswith("gi ") for line in out.splitlines())
        # splice the terms into a copy of the instance without its tables
        head = [line for line in source.read_text().splitlines()
                if line.split()[:1] in (["scsp"], ["domain"], ["var"])]
        spliced = "\n".join(head) + "\n" + out
        original = parse_instance(source.read_text())
        rebuilt = parse_instance(spliced)
        from scsp import brute_force
        assert brute_force(rebuilt).evaluation == \
            brute_force(original).evaluation


class TestOracle:
    def test_agrees_with_solve(self, capsys, chain_file):
        code_s, out_s, _ = run(capsys, "solve", str(chain_file))
        code_o, out_o, _ = run(capsys, "oracle", str(chain_file))
        assert code_s == code_o == 0
        assert out_s.splitlines()[-1] == out_o.splitlines()[-1]

    def test_too_large(self, capsys, tmp_path):
        lines = ["scsp 1", "domain 4"]
        lines += [f"var v{i}" for i in range(13)]  # 4**13 > 10**7
        path = tmp_path / "big.scsp"
        path.write_text("".join(line + "\n" for line in lines))
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 3 and out.strip() == "too large"


@pytest.mark.parametrize("command", ["solve", "graph"])
def test_network_guard_exit_code(capsys, tmp_path, command):
    path = tmp_path / "wide.scsp"
    path.write_text(f"scsp 1\ndomain {NETWORK_GUARD}\nvar v\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 3 and out.strip() == "too large" and err == ""


def test_terms_guard_exit_code(capsys, data_dir, monkeypatch):
    # quadratic.scsp compiles to more than one interval constraint
    monkeypatch.setattr("scsp.cutgraph.TERMS_GUARD", 1)
    source = str(data_dir / "quadratic.scsp")
    for command in ("solve", "graph"):
        code, out, err = run(capsys, command, source)
        assert code == 3 and out.strip() == "too large" and err == ""
    # decompose prints the terms routed before the refusal
    code, out, _ = run(capsys, "decompose", source)
    assert code == 3 and out.splitlines()[-1] == "too large"
    code, out, _ = run(capsys, "check", source)
    assert code == 0 and out.strip() == "submodular"


class TestGraph:
    def test_chain_edge_list(self, capsys, chain_file):
        code, out, _ = run(capsys, "graph", str(chain_file))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 22
        assert lines[-4:] == [
            "x_4 y_2 3 constraint:0",
            "z_3 y_3 2 constraint:1",
            "y_3 z_0 7 constraint:2",
            "z_4 z_1 inf constraint:3",
        ]

    def test_tables_are_compiled_first(self, capsys, data_dir):
        code, out, _ = run(capsys, "graph", str(data_dir / "quadratic.scsp"))
        assert code == 0
        assert all(line.split()[3].startswith(("structural", "constraint:"))
                   for line in out.splitlines())


class TestErrors:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_text("scsp 2\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert err.strip() == "error: line 1: expected header 'scsp 1'"

    def test_superscript_domain(self, capsys, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_text("scsp 1\ndomain \u00b2\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert err.strip() == \
            "error: line 2: domain takes one positive integer"

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.scsp"
        path.write_bytes(b"scsp 1\ndomain 2\nvar caf\xe9\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "utf-8" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "absent.scsp"))
        assert code == 1 and "error:" in err

    def test_unknown_command(self, capsys, chain_file):
        with pytest.raises(SystemExit) as info:
            run(capsys, "minimize", str(chain_file))
        assert info.value.code == 2


class TestConsoleScript:
    def test_entry_point_runs(self, chain_file):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "scsp.cli", "solve", str(chain_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "evaluation = 5"
