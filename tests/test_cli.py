"""CLI behavior: output formats, exit codes, verification sweeps."""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import chromsym
from chromsym.cli import PARAM_FLAGS, main, parse_args
from chromsym.families import FAMILIES, Family
from chromsym.formulas import x_kpkp
from chromsym.graphs import (complete, format_edge_list, graph_from_edges, kpk, path,
                             tadpole, twin)
from chromsym.oracle import csf_bruteforce
from chromsym.symfunc import ESymFunc, e_term


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_tw_cycle_constant(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "tw-cycle", "--n", "4")
        assert code == 0
        assert out.strip() == "50*e[5] + 6*e[4,1] + 4*e[3,2]"

    def test_bare_clique_lollipop(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "lollipop",
                           "--a", "3", "--l", "0")
        assert code == 0
        assert out.strip() == "6*e[3]"

    def test_structured_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "kpkp", "--a", "3",
                           "--g", "1", "--b", "3", "--h", "1",
                           "--format", "structured")
        assert code == 0
        parsed = ESymFunc.from_records(json.loads(out))
        assert parsed == x_kpkp(3, 1, 3, 1)
        from chromsym.graphs import kpkp
        assert parsed == csf_bruteforce(kpkp(3, 1, 3, 1))

    def test_tadpole_reads_c2_as_one_edge(self, capsys):
        # expand reads C_2 as a doubled edge, which colours like one edge, so
        # the tadpole on C_2 with one pendant edge is the path on 3 vertices;
        # oracle builds a simple graph and refuses c = 2
        code, out, _ = run(capsys, "expand", "--family", "tadpole", "--c", "2", "--l", "1")
        assert code == 0
        assert (code, out) == run(capsys, "expand", "--family", "path", "--n", "3")[:2]
        assert run(capsys, "oracle", "--family", "tadpole", "--c", "2", "--l", "1")[0] == 2

    def test_kchain_parts_flag(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "kchain",
                           "--parts", "3,3")
        assert code == 0 and "e[" in out

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "mystery", "--n", "4")
        assert code == 2 and "unknown family" in err

    def test_term_cap_exit_code(self, capsys):
        # path(200) would grow without bound; the kernel refuses it past
        # MAX_TERMS terms, as an input too large rather than a usage error
        code, out, err = run(capsys, "expand", "--family", "path", "--n", "200")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "terms" in err

    def test_move_cap_exit_code(self, capsys):
        # K_2 + ... + K_2 with 10000 parts: the steps of the first state alone
        # return more than MAX_TERMS moves, and the kernel refuses it there
        parts = ",".join(["2"] * 10000)
        code, out, err = run(capsys, "expand", "--family", "kchain", "--parts", parts)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "kernel moves by offset 0" in err

    def test_coefficient_past_digit_limit_exit_code(self, capsys):
        # X(K_1600) = 1600! e_1600, and 1600! has 4434 digits: past Python's
        # default limit for int-to-text conversion, an input too large
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python converts integers of any length to text")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for command in ("expand", "positivity"):
                code, out, err = run(capsys, command, "--family", "kchain", "--parts", "1600")
                assert code == 3 and out == ""
                assert err == ("error: a coefficient has more than 4300 digits, past Python's "
                               "limit for converting an integer to text\n")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "path", "--n", "0")
        assert code == 2 and "error" in err

    def test_internal_value_error_is_not_usage_error(self, capsys, monkeypatch, fresh_memos):
        # kkp is evaluated by the KPKP composition sum: a ValueError raised
        # there is a fault, while a parameter out of range stays a usage error;
        # the memos start empty, as a stored kpkp(2, 0, 3, 1) skips the sum
        from chromsym import formulas

        def broken(*args):
            raise ValueError("bad state")

        monkeypatch.setattr(formulas, "composition_sum", broken)
        code, out, err = run(capsys, "expand", "--family", "kkp", "--a", "2", "--b", "3", "--h", "1")
        assert code == 4 and out == "" and err == "internal error: ValueError: bad state\n"
        code, out, err = run(capsys, "expand", "--family", "kkp", "--a", "0", "--b", "3", "--h", "1")
        assert code == 2 and out == ""
        assert err == "error: needs a >= 1, b >= 2, h >= 0, got (0, 3, 1)\n"

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "kpk", "--a", "2")
        assert code == 2 and "--b" in err

    def test_extraneous_parameter(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "path",
                           "--n", "4", "--a", "1")
        assert code == 2 and "no parameter" in err


class TestOracleCmd:
    def test_triangle_file(self, capsys, tmp_path):
        f = tmp_path / "triangle.txt"
        f.write_text("3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "oracle", "--graph", str(f))
        assert code == 0 and out.strip() == "6*e[3]"

    def test_twinned_tadpole_counterexample(self, capsys, tmp_path):
        g = twin(tadpole(4, 1), 2)  # twin at cycle distance 1 from the center
        f = tmp_path / "c411.txt"
        f.write_text(format_edge_list(g))
        code, out, _ = run(capsys, "oracle", "--graph", str(f))
        assert code == 0
        assert "- 4*e[4,2]" in out

    def test_family_input(self, capsys):
        code, out, _ = run(capsys, "oracle", "--family", "cycle", "--n", "5")
        assert code == 0
        from chromsym.formulas import x_cycle
        assert out.strip() == x_cycle(5).to_text()

    def test_relabelled_file_matches_family(self, capsys, tmp_path):
        # X does not depend on the labels: a kpk with shuffled labels, which
        # the oracle walks in its own vertex order, prints the family's bytes
        g = kpk(6, 4, 3)
        label = list(range(g.n_vertices))
        random.Random(3).shuffle(label)
        f = tmp_path / "kpk.txt"
        f.write_text(format_edge_list(
            graph_from_edges(g.n_vertices, [(label[u], label[v]) for u, v in g.edges])))
        code, out, _ = run(capsys, "oracle", "--graph", str(f), "--format", "structured")
        assert code == 0
        code, want, _ = run(capsys, "oracle", "--family", "kpk", "--a", "6", "--b", "4",
                            "--l", "3", "--format", "structured")
        assert code == 0 and out == want

    def test_budget_exit_code(self, capsys, tmp_path):
        f = tmp_path / "k8.txt"
        f.write_text(format_edge_list(complete(8)))
        code, _, err = run(capsys, "oracle", "--graph", str(f))
        assert code == 3 and "budget" in err

    def test_budget_override(self, capsys, tmp_path):
        f = tmp_path / "k8.txt"
        f.write_text(format_edge_list(complete(8)))
        code, out, _ = run(capsys, "oracle", "--graph", str(f),
                           "--edge-budget", "28")
        assert code == 0 and out.strip() == "40320*e[8]"

    def test_negative_budget_usage_error(self, capsys):
        for command in ("oracle", "positivity"):
            code, out, err = run(capsys, command, "--family", "path", "--n", "4",
                                 "--edge-budget", "-1")
            assert code == 2 and out == ""
            assert "--edge-budget: must be at least 0, got -1" in err

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 9\n")
        code, _, err = run(capsys, "oracle", "--graph", str(f))
        assert code == 2 and "line 2" in err

    def test_order_limit_exit_code(self, capsys):
        # a 1200-vertex component is past the 8-bit digit of packed keys, so
        # the oracle refuses it before any work: an input too large, like one
        # over the edge budget, not an internal error
        code, _, err = run(capsys, "oracle", "--family", "path", "--n", "1200",
                           "--edge-budget", "5000")
        assert code == 3
        assert err.startswith("error: order 1200 ")
        assert "up to 255" in err

    def test_vertex_limit_exit_code(self, capsys, tmp_path):
        # a vertex count alone is refused before one list per vertex is
        # built: 10^12 raised MemoryError, and 3*10^6 took about 1 GB
        for n in (10 ** 12, 3 * 10 ** 6, 2 ** 16 + 1):
            f = tmp_path / "huge.txt"
            f.write_text(f"{n}\n")
            for command in ("oracle", "positivity"):
                code, out, err = run(capsys, command, "--graph", str(f))
                assert code == 3 and out == ""
                assert err == f"error: graph has {n} vertices, past the oracle's limit of 65536\n"
        f.write_text(f"{2 ** 16}\n0 1\n")
        code, out, _ = run(capsys, "oracle", "--graph", str(f))
        assert code == 0 and out.strip() == "2*e[2" + ",1" * (2 ** 16 - 2) + "]"

    def test_long_path_refused_before_any_mask(self, capsys, tmp_path):
        # masks of the whole 65,536-vertex path would hold about 268 MB; its
        # one component is refused by its order after union-find, in a few MB
        n = 2 ** 16
        f = tmp_path / "path.txt"
        f.write_text(f"{n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "oracle", "--graph", str(f), "--edge-budget", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err.startswith(f"error: order {n} ") and "up to 255" in err
        assert peak < 64 * 2 ** 20, peak

    def test_internal_key_error_is_not_usage_error(self, capsys, monkeypatch):
        # a KeyError raised inside the oracle is a fault, not a bad argument
        from chromsym import oracle

        def broken(k, edges):
            raise KeyError((3, 2))

        monkeypatch.setattr(oracle, "_e_coefficients", broken)
        oracle.csf_bruteforce.cache_clear()
        code, _, err = run(capsys, "oracle", "--family", "path", "--n", "5")
        assert code == 4
        assert err.startswith("internal error: KeyError: ")

    def test_internal_value_error_is_not_usage_error(self, capsys, monkeypatch):
        # only parameter and input checks are usage errors, not a ValueError
        # raised while the oracle computes
        from chromsym import oracle

        def broken(k, edges):
            raise ValueError("bad partition")

        monkeypatch.setattr(oracle, "_e_coefficients", broken)
        oracle.csf_bruteforce.cache_clear()
        code, _, err = run(capsys, "oracle", "--family", "path", "--n", "5")
        assert code == 4
        assert err.startswith("internal error: ValueError: ")

    def test_internal_graph_error_is_not_usage_error(self, capsys, monkeypatch, fresh_memos):
        # a ValueError from gluing the pieces is a fault, not a bad parameter;
        # the memos start empty, as a stored kpkp(2, 0, 3, 1) skips the gluing
        from chromsym import graphs

        def broken(*pieces):
            raise ValueError("bad piece")

        monkeypatch.setattr(graphs, "chain", broken)
        code, _, err = run(capsys, "oracle", "--family", "kkp", "--a", "2", "--b", "3", "--h", "1")
        assert code == 4 and err == "internal error: ValueError: bad piece\n"

    def test_bad_graph_parameter(self, capsys):
        code, _, err = run(capsys, "oracle", "--family", "cycle", "--n", "2")
        assert code == 2 and "cycle needs n >= 3" in err

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--family", "mystery", "--n", "4")
        assert code == 2 and "unknown family" in err

    @pytest.mark.parametrize("argv, message", [
        (("oracle", "--family", "tadpole", "--c", "2", "--l", "1"),
         "tadpole needs c >= 3 and l >= 0, got (2, 1)"),
        (("expand", "--family", "tadpole", "--c", "1", "--l", "1"),
         "needs c >= 2 and l >= 0, got (1, 1)"),
        (("oracle", "--family", "kpk-b3", "--a", "0", "--l", "1"),
         "kpk_b3 needs a >= 3 and l >= 0, got (0, 1)"),
        (("oracle", "--family", "kpk-b3", "--a", "2", "--l", "1"),
         "kpk_b3 needs a >= 3 and l >= 0, got (2, 1)"),
        (("expand", "--family", "kpk-b3", "--a", "2", "--l", "1"),
         "needs a >= 3 and l >= 0, got (2, 1)"),
        (("oracle", "--family", "kpkp-b3", "--a", "0", "--g", "1", "--h", "1"),
         "kpkp_b3 needs a >= 1 and g, h >= 0, got (0, 1, 1)"),
        (("expand", "--family", "kpkp-b3", "--a", "1", "--g", "-1", "--h", "1"),
         "needs a >= 1 and g, h >= 0, got (1, -1, 1)"),
        (("oracle", "--family", "pkp", "--g", "0", "--a", "1", "--h", "0"),
         "pkp needs g, h >= 0 and a >= 2, got (0, 1, 0)"),
        (("oracle", "--family", "kkp", "--a", "1", "--b", "1", "--h", "0"),
         "kkp needs a >= 1, b >= 2, h >= 0, got (1, 1, 0)"),
    ])
    def test_aliases_name_their_own_parameters(self, capsys, argv, message):
        # a family built as a special case of another reports its own
        # parameters, in its own order, not the general chain's
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"


class TestPositivity:
    def test_counterexample_reported(self, capsys, tmp_path):
        g = twin(tadpole(4, 1), 2)
        f = tmp_path / "c411.txt"
        f.write_text(format_edge_list(g))
        code, out, _ = run(capsys, "positivity", "--graph", str(f))
        assert code == 0
        assert "NOT e-positive" in out
        assert "min coeff -4 at e[4,2]" in out

    def test_positive_twin(self, capsys, tmp_path):
        g = twin(tadpole(4, 1), 3)  # distance 2 from the center
        f = tmp_path / "c421.txt"
        f.write_text(format_edge_list(g))
        code, out, _ = run(capsys, "positivity", "--graph", str(f))
        assert code == 0
        assert out.startswith("e-positive")

    def test_family_positivity(self, capsys):
        code, out, _ = run(capsys, "positivity", "--family", "lollipop",
                           "--a", "4", "--l", "2")
        assert code == 0 and out.startswith("e-positive")


class TestVerify:
    def test_path_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "path", "--max-n", "8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_tw_cycle_sweep_covers_known_constants(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "tw-cycle",
                           "--max-n", "6")
        assert code == 0
        for n in (4, 5, 6):
            assert f"PASS tw-cycle n={n}" in out

    def test_kpkp_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kpkp", "--max-n", "9")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "mystery", "--max-n", "4")
        assert code == 2 and "unknown family" in err

    def test_bounds_usage_error(self, capsys):
        for flags, want in ((("--max-n", "0"), "--max-n: must be at least 1, got 0"),
                            (("--max-n", "3", "--edge-budget", "-1"),
                             "--edge-budget: must be at least 0, got -1")):
            code, out, err = run(capsys, "verify", "--family", "path", *flags)
            assert code == 2 and out == "" and want in err

    def test_skips_reported_not_fatal(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kchain",
                           "--max-n", "9")
        assert code == 0
        assert "SKIP kchain parts=(9,)" in out

    def test_mismatch_exit_code(self, capsys):
        broken = Family(
            tag="broken-test-family",
            params=("n",),
            summary="deliberately wrong evaluator",
            evaluate=lambda n: e_term((n,), 999),
            build_graph=path,
            grid=lambda max_n: iter([{"n": 3}]),
        )
        FAMILIES[broken.tag] = broken
        try:
            code, out, _ = run(capsys, "verify", "--family", broken.tag,
                               "--max-n", "3")
            assert code == 1
            assert "FAIL" in out
        finally:
            del FAMILIES[broken.tag]


class TestListFamilies:
    def test_lists_all_tags(self, capsys):
        code, out, _ = run(capsys, "list-families")
        assert code == 0
        for tag in ("path", "kayak", "kpkp", "tw-lollipop", "melting-lollipop"):
            assert tag in out

    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2


# the flags each command takes, and a value each accepts
ACCEPTED = {
    "expand": ("family", *PARAM_FLAGS, "parts", "format"),
    "oracle": ("graph", "family", *PARAM_FLAGS, "parts", "format", "edge-budget"),
    "positivity": ("graph", "family", *PARAM_FLAGS, "parts", "edge-budget"),
    "verify": ("family", "max-n", "edge-budget"),
    "list-families": (),
}
VALUES = {"graph": "g.txt", "family": "kpkp", "parts": "3,2", "format": "structured",
          "edge-budget": 30, "max-n": 5, **{p: i for i, p in enumerate(PARAM_FLAGS)}}


class TestParser:
    def test_every_flag_of_every_command(self):
        for command, flags in ACCEPTED.items():
            spaced, joined = [command], [command]
            for flag in flags:
                spaced += [f"--{flag}", str(VALUES[flag])]
                joined.append(f"--{flag}={VALUES[flag]}")
            want = {flag.replace("-", "_"): VALUES[flag] for flag in flags}
            for argv in (spaced, joined):
                args = vars(parse_args(argv))
                assert args.pop("func").__name__ == "cmd_" + command.replace("-", "_")
                assert args == want

    def test_defaults(self):
        args = vars(parse_args(["oracle"]))
        del args["func"]
        assert args == {"graph": None, "family": None, **{p: None for p in PARAM_FLAGS},
                        "parts": None, "format": "text", "edge_budget": 24}
        args = parse_args(["verify", "--max-n", "3"])
        assert (args.family, args.max_n, args.edge_budget) == (None, 3, 24)

    def test_refusals_exit_2(self, capsys):
        for argv, want in (
                (("positivity", "--graph", "g.txt", "--format", "text"),
                 "positivity takes no argument '--format'"),
                (("expand", "--graph=g.txt"), "expand takes no argument '--graph'"),
                (("expand", "--fam", "path", "--n", "4"), "expand takes no argument '--fam'"),
                (("expand", "--family", "path", "4"), "expand takes no argument '4'"),
                (("list-families", "--family", "path"), "takes no argument '--family'"),
                (("mystery",), "expected a command"),
                (("--family", "path"), "expected a command"),
                (("expand", "--family", "path", "--n"), "--n needs a value"),
                (("expand", "--family", "--n", "4"), "--family needs a value"),
                (("expand", "--family", "path", "--n", "four"), "--n: not an integer: 'four'"),
                (("oracle", "--family", "path", "--n", "4", "--edge-budget=1.5"),
                 "--edge-budget: not an integer"),
                (("expand", "--family", "path", "--n", "4", "--format", "xml"),
                 "--format: must be one of text, structured, got 'xml'"),
                (("verify", "--family", "path"), "verify needs --max-n"),
                (("verify", "--max-n=0"), "--max-n: must be at least 1, got 0")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and want in err, (argv, err)

    def test_help_lists_commands_and_flags(self, capsys):
        for flag in ("-h", "--help"):
            code, out, err = run(capsys, flag)
            assert (code, err) == (0, "")
            assert out.startswith("usage: chromsym COMMAND")
            for command in ACCEPTED:
                assert f"\n  {command} " in out
            for command, flags in ACCEPTED.items():
                # help is printed before the family would be looked up
                code, out, err = run(capsys, command, flag, "--family", "mystery")
                assert (code, err) == (0, "")
                assert out.startswith(f"usage: chromsym {command} ")
                listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
                assert listed == {f"--{f}" for f in flags}

    def test_import_and_call_load_no_argparse(self):
        code = ("import sys, chromsym.cli\n"
                "assert chromsym.cli.main(['oracle', '--family', 'path', '--n', '5']) == 0\n"
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(chromsym.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.splitlines()[-1] == "[]"

    def test_import_loads_no_fractions(self):
        # exactness is checked against numbers.Rational, and fractions loads decimal too
        code = ("import sys, chromsym.cli\n"
                "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(chromsym.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out == "[]\n"

    def test_import_and_structured_output_load_no_json(self):
        code = ("import sys, chromsym.cli\n"
                "print('json' in sys.modules)\n"
                "assert chromsym.cli.main(['expand', '--family', 'kpkp', '--a', '3', '--g',\n"
                "                          '1', '--b', '3', '--h', '1', '--format',\n"
                "                          'structured']) == 0\n"
                "print('json' in sys.modules)\n"
                "from chromsym.formulas import x_kpkp\n"
                "from chromsym.symfunc import ESymFunc\n"
                "f = x_kpkp(3, 1, 3, 1)\n"
                "assert ESymFunc.from_json(f.to_json()) == f\n"
                "print('json' in sys.modules)")
        src = os.path.dirname(os.path.dirname(chromsym.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        lines = out.splitlines()
        assert json.loads(lines[1]) == x_kpkp(3, 1, 3, 1).to_records()
        assert (lines[0], lines[2], lines[3]) == ("False", "False", "True")
