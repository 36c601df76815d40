import argparse
import ast
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from meyersig import cli, cocycle, exact, fibered, matrix, presentations, selftest, symplectic
from meyersig.cli import main
from meyersig.exact import kernel_basis
from meyersig.fibered import load_fibration
from meyersig.presentations import UNBOUNDED, SynthesizedMeyerFunction, Word, cochain_c, format_word
from meyersig.matrix import _identity_rows, format_matrix
from meyersig.symplectic import MAX_GENUS, SymplecticMatrix, transvection


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi1(capsys):
    code, out, _ = run_cli(capsys, "phi1", "1,1;0,1")
    assert (code, out) == (0, "2/3\n")


def test_phi1_json_matrix(capsys):
    code, out, _ = run_cli(capsys, "phi1", "[[1, 1], [0, 1]]")
    assert (code, out) == (0, "2/3\n")


def _timed_cli(capsys, *argv):
    t0 = time.perf_counter()
    result = run_cli(capsys, *argv)
    return result, time.perf_counter() - t0


def test_dedekind_of_a_30_digit_modulus_answers_at_once(capsys):
    c = 10**29 + 7
    (code, out, _), seconds = _timed_cli(capsys, "dedekind", "1", str(c))
    # s(1, c) = (c - 1)(c - 2) / (12 c)
    assert (code, out) == (0, f"{Fraction((c - 1) * (c - 2), 12 * c)}\n")
    assert seconds < 0.5


def test_phi1_of_a_large_lower_unipotent_answers_at_once(capsys):
    # phi1([[1, 0], [c, 1]]) = c/3 - 1 for c > 0
    (code, out, _), seconds = _timed_cli(capsys, "phi1", "1,0;100000001,1")
    assert (code, out) == (0, "99999998/3\n")
    assert seconds < 0.5


def test_tau(capsys):
    code, out, _ = run_cli(capsys, "tau", "-g", "1", "1,0;0,1", "0,1;-1,0")
    assert (code, out) == (0, "0\n")


def test_tau_genus_mismatch_is_domain_error(capsys):
    assert run_cli(capsys, "tau", "-g", "2", "1,1;0,1", "1,0;0,1") == (
        1, "", "error: matrix has genus 1, but -g 2 was given\n"
    )


@pytest.mark.parametrize("command", ["phi1", "rademacher"])
def test_genus_1_commands_refuse_other_genera_without_naming_an_option(capsys, command):
    # neither subcommand has -g: the refusal is the genus-1 layer's own
    identity4 = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    assert run_cli(capsys, command, identity4) == (
        1, "", "error: expected genus 1, got genus 2\n"
    )


def test_back_to_back_calls_share_one_parser_and_no_option_values(capsys):
    """Each command's parser is built once and reused, the full parser is
    never built, and no option value carries over from one call to the next."""
    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()
    identity4 = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    calls = [
        (("tau", "-g", "1", "1,1;0,1", "1,1;0,1"), (0, "1\n")),
        # a -g 1 left over from the last call would refuse these genus-2 matrices
        (("tau", identity4, identity4), (0, "0\n")),
        (("euler", "-g", "1", "-b", "0", "--eps", "5", "7"), (0, "12\n")),
        # an --eps left over from the last call would clash with --chi and exit 1
        (("euler", "-g", "1", "-b", "0", "--chi", "1", "1"), (0, "2\n")),
        (("euler", "-g", "2", "-b", "2"), (0, "4\n")),
    ]
    for argv, expected in calls:
        assert run_cli(capsys, *argv)[:2] == expected, argv
    names = {argv[0] for argv, _ in calls}
    info = cli._command_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(names), len(calls) - len(names), len(names))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (0, 0)


def _args_read(source: str) -> dict[str, set[str]]:
    """For each top-level function of source, the attributes it reads off ``args``."""
    return {
        node.name: {
            n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def _dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dests of parser's arguments, its help and subcommand actions aside."""
    skip = (argparse._HelpAction, argparse._SubParsersAction)
    return {action.dest for action in parser._actions if not isinstance(action, skip)}


def test_every_option_is_read_by_its_command():
    """An option that nothing reads is accepted and then ignored: each
    command's handler reads every argument its entry in the one command
    table defines, and ``main`` and ``_parse`` read every top-level option."""
    read = _args_read(Path(cli.__file__).read_text(encoding="utf-8"))
    unread = {("main", dest) for dest in _dests(cli.build_parser()) - read["main"] - read["_parse"]}
    for name, (_, handler, _) in cli._COMMANDS.items():
        unread |= {(handler.__name__, dest) for dest in _dests(cli._command_parser(name)) - read[handler.__name__]}
    assert unread == set()


def test_each_command_parser_is_the_full_parsers_subparser():
    """A command's own parser prints the same usage and help as the
    subparser the full parser nests for it, and the top-level long options
    that route an argv to the full parser are the full parser's own."""
    parser = cli.build_parser()
    nested = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(nested) == list(cli._COMMANDS)
    for name, subparser in nested.items():
        own = cli._command_parser(name)
        assert (own.prog, own.format_usage(), own.format_help()) == (
            subparser.prog, subparser.format_usage(), subparser.format_help()
        ), name
    long_options = {o for o in parser._option_string_actions if o.startswith("--")}
    assert long_options == set(cli._TOP_LEVEL_LONG_OPTIONS)


_PARITY_ARGVS = [
    [], ["-h"], ["--help"],
    *([name, flag] for name in cli._COMMANDS for flag in ("-h", "--help")),
    ["tau", "-g", "1", "1,1;0,1"], ["twist-value", "-g", "2", "--sep"], ["order"], ["dedekind"],
    ["dedekind", "--frob", "1", "3"], ["dedekind", "1", "3", "extra"], ["dedekind", "1", "3", "--seed", "5"],
    ["--seed", "5", "dedekind", "1", "3"], ["dedekind", "--", "1", "3"], ["frobnicate", "1"],
    ["geo", "--ksq", "-3/4", "--chi-struct", "1"], ["geo", "--ks=1", "--chi-struct", "1"],
    # the full parser refuses an ambiguous abbreviation of its own options,
    # even after the command name, where the command's parser would take it
    ["twist-value", "-g", "2", "--se", "1"], ["twist-value", "-g", "2", "--s=1"],
    ["geo", "--s=1", "--chi-top", "2"], ["dedekind", "--=1", "1", "3"], ["dedekind", "1", "3", "--sel"],
    ["dedekind", "1", "3", "--he"], ["dedekind", "-h5"],
    ["dedekind", "1", "3"], ["dedekind", "x", "3"], ["euler", "-g1", "-b0", "--chi", "1"],
    ["twist-value", "-g", "2", "--sep", "5"], ["--seed", "x", "--selftest"],
]


def _full_parser_main(monkeypatch, argv):
    """main(argv) with every argv read by the full parser's parse_args."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_could_name_a_top_level_option", lambda token: True)
        return main(argv)


@pytest.mark.parametrize("argv", _PARITY_ARGVS, ids=" ".join)
def test_command_parser_output_matches_the_full_parser(capsys, monkeypatch, argv):
    full = _full_parser_main(monkeypatch, list(argv)), *capsys.readouterr()
    assert (main(list(argv)), *capsys.readouterr()) == full


def test_a_fresh_process_builds_one_parser_for_a_command():
    """In a fresh interpreter with no site packages, a command builds one
    argparse parser, its own, and prints the same result."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from meyersig import cli\n"
        "status = cli.main(['dedekind', '1', '3'])\n"
        "print(status, built)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "1/18\n0 ['meyersig dedekind']\n")


def test_dedekind(capsys):
    assert run_cli(capsys, "dedekind", "1", "3")[:2] == (0, "1/18\n")
    assert run_cli(capsys, "dedekind", "0", "7")[:2] == (0, "0\n")


def test_rademacher(capsys):
    assert run_cli(capsys, "rademacher", "1,1;0,1")[:2] == (0, "1\n")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("data")
    for name in ("sl2z.json", "genus2.json"):
        text = resources.files("meyersig.data").joinpath(name).read_text()
        (target / name).write_text(text)
    return target


def test_order(capsys, data_dir):
    assert run_cli(capsys, "order", "-p", str(data_dir / "sl2z.json"))[:2] == (0, "3\n")
    assert run_cli(capsys, "order", "-p", str(data_dir / "genus2.json"))[:2] == (0, "5\n")


def test_order_prints_infinite_for_unbounded(capsys, monkeypatch, data_dir):
    monkeypatch.setattr(cli, "class_order", lambda p: UNBOUNDED)
    assert run_cli(capsys, "order", "-p", str(data_dir / "sl2z.json"))[:2] == (0, "infinite\n")


def test_order_ignores_old_artin_key(capsys, tmp_path):
    # a -> S, b -> U with relators a^4 and (ab)^6: order 3 with
    # coefficients (-3, 2), although no single coefficient fits
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({
        "genus": 1,
        "generators": ["a", "b"],
        "matrices": {"a": "0,-1;1,0", "b": "1,1;0,1"},
        "relators": ["a a a a", " ".join(["a b"] * 6)],
        "artin": True,
    }))
    assert run_cli(capsys, "order", "-p", str(path))[:2] == (0, "3\n")


def test_order_missing_file(capsys, data_dir):
    code, _, err = run_cli(capsys, "order", "-p", str(data_dir / "nope.json"))
    assert code == 1


def test_phi_word(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "phi", "-p", str(data_dir / "genus2.json"), " ".join(["c1 c2"] * 6)
    )
    assert (code, out) == (0, "-4/5\n")


def _count_syntheses(monkeypatch):
    synthesize = mock.Mock(wraps=cli.synthesize_meyer)
    monkeypatch.setattr(cli, "synthesize_meyer", synthesize)
    return synthesize


def test_phi_bad_word_is_parse_error(capsys, monkeypatch, data_dir):
    synthesize = _count_syntheses(monkeypatch)
    code, _, err = run_cli(capsys, "phi", "-p", str(data_dir / "genus2.json"), "c1 zz")
    assert (code, err) == (2, "parse error: unknown generator 'zz' in token 1\n")
    assert synthesize.call_count == 0


def test_phi_word_length_cap(capsys, monkeypatch, data_dir):
    synthesize = _count_syntheses(monkeypatch)
    word = " ".join(["a"] * 10_001)
    code, _, err = run_cli(capsys, "phi", "-p", str(data_dir / "sl2z.json"), word)
    assert (code, err) == (1, "error: word is too long: meyersig caps words at 10000 letters\n")
    assert synthesize.call_count == 0


# 20 relators or germs of 10 000 letters each: only the total is over the cap
LONG_WORDS = ["a^5000 A^5000"] * 20
TOO_LONG = "error: word is too long: meyersig caps words at 10000 letters\n"


def test_order_caps_the_letters_of_all_relators(capsys, count_calls, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "genus": 1,
        "generators": ["a", "b"],
        "matrices": {"a": "1,1;0,1", "b": "1,0;-1,1"},
        "relators": LONG_WORDS,
    }))
    walk = count_calls(presentations, "_walk")
    assert run_cli(capsys, "order", "-p", str(path)) == (1, "", TOO_LONG)
    assert walk.call_count == 0


def test_local_sig_caps_the_letters_of_all_germs(capsys, count_calls, tmp_path):
    path = _write_fibration(tmp_path / "long.json", 1, [{"monodromy": w} for w in LONG_WORDS])
    presentations.shipped_presentation(1)  # built, and its relators walked, once per process
    walk = count_calls(presentations, "_walk")
    evaluate = count_calls(presentations, "evaluate_word")
    assert run_cli(capsys, "local-sig", "-f", path) == (1, "", TOO_LONG)
    assert (walk.call_count, evaluate.call_count) == (0, 0)


@pytest.mark.parametrize("genus", [1, 2])
def test_local_sig_counts_an_empty_germ_as_one_letter(capsys, count_calls, tmp_path, genus):
    """10 001 germs with the empty word are past the letter cap: the file
    exits with code 1 before any walk or phi1 runs.  10 000 of them pass,
    each with local signature 0."""
    presentations.shipped_presentation(genus)  # built, and its relators walked, once per process
    walk = count_calls(presentations, "_walk")
    phi1 = count_calls(fibered, "phi1")
    path = _write_fibration(tmp_path / "empty.json", genus, [{"monodromy": ""}] * 10_001)
    assert run_cli(capsys, "local-sig", "-f", path) == (1, "", TOO_LONG)
    assert (walk.call_count, phi1.call_count) == (0, 0)
    path = _write_fibration(tmp_path / "empty.json", genus, [{"monodromy": ""}] * 10_000)
    out = "".join(f"germ {i}: 0\n" for i in range(10_000)) + "total: 0\n"
    assert run_cli(capsys, "local-sig", "-f", path) == (0, out, "")


def test_local_sig(capsys, tmp_path):
    germs = []
    for k in range(6):
        germs.append({"monodromy": "kodaira:I_1", "label": f"u{k}"})
        germs.append({"monodromy": "b^-1", "label": f"v{k}"})
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps({"genus": 1, "base_genus": 0, "germs": germs}))
    code, out, _ = run_cli(capsys, "local-sig", "-f", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.endswith("-2/3") for line in lines[:-1])
    assert lines[-1] == "total: -8"


def test_cochain_on_twist_letters_calls_no_tau_sp_and_no_inverse(
    monkeypatch, genus2, count_calls
):
    word = genus2.word("c1 c2^-1 c3^2 c4 c5^-3 c1^-1 c2 c4^-2 c3 c5")
    prefix, expected = SymplecticMatrix.identity(2), 0
    for i, s in word.letters:
        step = genus2.matrices[i] if s > 0 else genus2.matrices[i].inverse()
        expected += cocycle.tau_sp(prefix, step)
        prefix = prefix * step
    genus2._inverses  # computed once per presentation, not per letter
    tau = count_calls(cocycle, "tau_sp")
    inverse = mock.Mock(wraps=SymplecticMatrix.inverse)
    monkeypatch.setattr(SymplecticMatrix, "inverse", inverse)
    assert cochain_c(word, genus2) == expected
    assert (tau.call_count, inverse.call_count) == (0, 0)


def count_reads(monkeypatch):
    """The names of the files read through Path.read_text, in order."""
    reads = []
    read_text = Path.read_text

    def counted_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted_read_text)
    return reads


def _write_fibration(path, genus, germs):
    path.write_text(json.dumps({"genus": genus, "base_genus": 0, "germs": germs}))
    return str(path)


# the genus-2 chain relation: 30 germs c_i^-1 around (c1 c2 c3 c4 c5)^6 = 1
CHAIN_GERMS = [{"monodromy": f"c{5 - i % 5}^-1"} for i in range(30)]
CHAIN_OUT = "".join(f"germ {i}: -3/5\n" for i in range(30)) + "total: -18\n"
# E(2): 24 nodal germs, half of them named by their Kodaira type
E2_GERMS = [
    {"monodromy": monodromy, "label": f"{label}{k}"}
    for k in range(12)
    for monodromy, label in (("kodaira:I_1", "u"), ("b^-1", "v"))
]
E2_OUT = "".join(f"{label}{k}: -2/3\n" for k in range(12) for label in "uv") + "total: -16\n"


def test_local_sig_synthesizes_once_and_evaluates_each_distinct_germ_once(
    capsys, count_calls, data_dir, tmp_path
):
    # 30 germs over 5 distinct words: one parse and one phi per word
    path = _write_fibration(tmp_path / "chain.json", 2, CHAIN_GERMS)
    presentations._load_text.cache_clear()  # a fresh load
    load = count_calls(presentations, "load_presentation")
    synthesize = count_calls(presentations, "synthesize_meyer")
    parse = count_calls(presentations, "parse_word")
    method = SynthesizedMeyerFunction.__call__
    with mock.patch.object(SynthesizedMeyerFunction, "__call__", autospec=True, side_effect=method) as evaluate:
        code, out, _ = run_cli(capsys, "local-sig", "-f", path, "-p", str(data_dir / "genus2.json"))
    assert (code, out) == (0, CHAIN_OUT)
    assert (synthesize.call_count, evaluate.call_count) == (1, 5)
    assert load.call_count == 1
    assert parse.call_count == 13 + 5  # the relators of genus2.json, then the germ words


@pytest.mark.parametrize("seed", range(4))
def test_local_sig_checks_the_chain_relation_by_one_short_product(capsys, count_calls, tmp_path, seed):
    """The genus-2 chain relation as 30 germs x c_i^-1 x^-1, |x| <= 2 (the
    files of the cli_session workload): the sphere closedness check makes
    one evaluate_word call, on the germ letters freely reduced, at most
    30 + 2|x| of the 30 + 60|x|.  Genus-2 products take the general walk
    on rows, which stays cheap only on such short words."""
    p = presentations.shipped_presentation(2)  # built, and its relators walked, once per process
    rng = random.Random(seed)
    x = Word([(rng.randrange(5), rng.choice((1, -1))) for _ in range(seed % 3)])
    germs = [
        {"monodromy": format_word(x * Word([(4 - k % 5, -1)]) * x.inverse(), p.generator_names)}
        for k in range(30)
    ]
    path = _write_fibration(tmp_path / "chain.json", 2, germs)
    evaluate = count_calls(presentations, "evaluate_word")
    assert run_cli(capsys, "local-sig", "-f", path) == (0, CHAIN_OUT, "")
    assert evaluate.call_count == 1
    assert len(evaluate.call_args.args[0]) <= 30 + 2 * len(x)


def test_local_sig_reads_each_data_file_once(
    capsys, monkeypatch, count_calls, data_dir, tmp_path
):
    path = _write_fibration(tmp_path / "e2.json", 1, E2_GERMS)
    load = count_calls(presentations, "load_presentation")
    shipped = count_calls(presentations, "shipped_presentation")
    reads = count_reads(monkeypatch)
    code, out, _ = run_cli(capsys, "local-sig", "-f", path, "-p", str(data_dir / "sl2z.json"))
    assert (code, out) == (0, E2_OUT)
    assert load.call_count == 1
    assert reads.count("sl2z.json") == 1
    assert reads.count("kodaira.json") == 0
    assert shipped.call_count == 0


def test_local_sig_with_warm_shipped_data_loads_and_synthesizes_nothing(
    capsys, monkeypatch, count_calls, tmp_path
):
    commands = [
        (_write_fibration(tmp_path / "e2.json", 1, E2_GERMS), E2_OUT),
        (_write_fibration(tmp_path / "chain.json", 2, CHAIN_GERMS), CHAIN_OUT),
    ]
    for path, expected in commands:  # warm the shipped data
        assert run_cli(capsys, "local-sig", "-f", path)[:2] == (0, expected)
    load = count_calls(presentations, "load_presentation")
    synthesize = count_calls(presentations, "synthesize_meyer")
    reads = count_reads(monkeypatch)
    for path, expected in commands:
        assert run_cli(capsys, "local-sig", "-f", path)[:2] == (0, expected)
    assert (load.call_count, synthesize.call_count) == (0, 0)
    assert reads == ["e2.json", "chain.json"]


def test_local_sig_data_dir_without_kodaira_table(capsys, data_dir, tmp_path):
    sl2z = str(data_dir / "sl2z.json")
    germs = [{"monodromy": letter, "label": f"{letter}{k}"} for k in range(6) for letter in "AB"]
    path = _write_fibration(tmp_path / "e1.json", 1, germs)
    code, out, _ = run_cli(capsys, "local-sig", "-f", path, "-p", sl2z)
    lines = [f"{letter}{k}: -2/3\n" for k in range(6) for letter in "AB"]
    assert (code, out) == (0, "".join(lines) + "total: -8\n")
    # the Kodaira types are built in: -p replaces the presentation only
    path = _write_fibration(tmp_path / "e2.json", 1, E2_GERMS)
    assert run_cli(capsys, "local-sig", "-f", path, "-p", sl2z) == (0, E2_OUT, "")


def test_local_sig_presentation_of_another_genus_is_parse_error(capsys, data_dir, tmp_path):
    path = _write_fibration(tmp_path / "e2.json", 1, E2_GERMS)
    code, out, err = run_cli(capsys, "local-sig", "-f", path, "-p", str(data_dir / "genus2.json"))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and "genus-2 presentation, not genus 1" in err


def test_global_data_option_is_a_usage_error(capsys, data_dir, tmp_path):
    path = _write_fibration(tmp_path / "e2.json", 1, E2_GERMS)
    code, out, err = run_cli(capsys, "--data", str(data_dir), "local-sig", "-f", path)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")


def test_local_sig_presentation_beyond_the_shipped_genera(capsys, tmp_path):
    """-p reaches genus 3: over the hyperelliptic presentation Delta_3, with
    its iota^2 and [iota, c1] relators, the 56 germs c_i^-1 around
    (c1 ... c7)^8 = 1 each take -4/7, and the total is -2(g + 1)^2 = -32
    (Endo 2000)."""
    presentation = tmp_path / "delta3.json"
    delta3 = presentations.load_presentation(presentations.hyperelliptic(3))
    presentation.write_text(presentations.dump_presentation(delta3))
    germs = [{"monodromy": f"c{7 - i % 7}^-1"} for i in range(56)]
    path = _write_fibration(tmp_path / "chain3.json", 3, germs)
    out = "".join(f"germ {i}: -4/7\n" for i in range(56)) + "total: -32\n"
    assert run_cli(capsys, "local-sig", "-f", path, "-p", str(presentation)) == (0, out, "")
    assert run_cli(capsys, "local-sig", "-f", path) == (
        1, "", "error: no Meyer function exists at genus 3: the signature class "
        "has infinite order for genus >= 3\n"
    )


@pytest.mark.parametrize(
    "command, data",
    [
        ("order", {"genus": True, "generators": [], "matrices": {}, "relators": []}),
        ("order", {"genus": 1, "generators": ["a"], "matrices": {"a": "1,1;0,1"}, "relators": [5]}),
        ("local-sig", {"genus": 1, "base_genus": 0, "germs": 5}),
        ("local-sig", {"genus": 1, "base_genus": 0, "germs": [{"monodromy": ["a"]}]}),
        # duplicate, spaced, ^-bearing and empty generator names
        *(
            ("order", {"genus": 1, "generators": names, "matrices": {names[0]: "1,1;0,1"}, "relators": []})
            for names in (["a", "a"], ["a b"], ["a^"], [""])
        ),
        # a "genus" that disagrees with the size of the matrices
        ("order", {"genus": 2, "generators": ["a"], "matrices": {"a": "1,1;0,1"}, "relators": []}),
    ],
)
def test_malformed_data_file_is_parse_error(capsys, tmp_path, command, data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    flag = "-p" if command == "order" else "-f"
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize(
    "command, what", [("order", "presentation"), ("local-sig", "fibration"), ("phi", "presentation")]
)
def test_data_file_that_is_not_an_object_is_parse_error(capsys, tmp_path, command, what):
    path = tmp_path / "data.json"
    path.write_text("[1, 2]")
    argv = [command, "-f" if command == "local-sig" else "-p", str(path)]
    code, out, err = run_cli(capsys, *argv + (["c1"] if command == "phi" else []))
    assert (code, out, err) == (2, "", f"parse error: {what} JSON must be an object, got list\n")


DEEP = "[" * 3000 + "]" * 3000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize("source", ["tau", "presentation", "fibration"])
def test_deeply_nested_json_is_parse_error(capsys, tmp_path, source):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    argv = {
        "tau": ["tau", DEEP, "1,0;0,1"],
        "presentation": ["order", "-p", str(path)],
        "fibration": ["local-sig", "-f", str(path)],
    }[source]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


UNDECODABLE = {
    "not UTF-8": b"[[\xff, 1], [0, 1]]",
    "huge integer": b"[[1, " + b"9" * 5000 + b"], [0, 1]]",  # past int()'s 4300-digit limit
}


@pytest.mark.parametrize("fault", list(UNDECODABLE))
@pytest.mark.parametrize("source", ["tau", "presentation", "fibration"])
def test_undecodable_json_is_parse_error(capsys, tmp_path, source, fault):
    raw = UNDECODABLE[fault]
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    argv = {
        # argv reaches main as str, undecodable bytes escaped as Python escapes them
        "tau": ["tau", raw.decode("utf-8", "surrogateescape"), "1,0;0,1"],
        "presentation": ["order", "-p", str(path)],
        "fibration": ["local-sig", "-f", str(path)],
    }[source]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("genus", [100_000, 0])
def test_presentation_without_generators_is_refused_at_once(capsys, tmp_path, genus):
    # no matrix pins the genus, so nothing may be sized by it
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"genus": genus, "generators": [], "matrices": {}, "relators": []}))
    (result, seconds) = _timed_cli(capsys, "order", "-p", str(path))
    assert result == (2, "", "parse error: a presentation needs at least one generator\n")
    assert seconds < 2


@pytest.mark.parametrize("genus", [MAX_GENUS + 1, MAX_GENUS])
def test_genus_cap_refuses_large_matrices_at_once(capsys, tmp_path, genus):
    # a product costs O(g^3), so a matrix above the cap is refused before
    # its symplectic check; `a` = I and `b` = [[I, S], [0, I]] for a random
    # symmetric S, in the relators `a A` and `b B`
    rng, n = random.Random(genus), 2 * genus
    upper = [[rng.randint(-3, 3) for _ in range(genus)] for _ in range(genus)]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(genus):
        for j in range(genus):
            rows[i][genus + j] = upper[min(i, j)][max(i, j)]
    ident = format_matrix(_identity_rows(n))
    b = format_matrix(rows)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "genus": genus, "generators": ["a", "b"], "matrices": {"a": ident, "b": b},
        "relators": ["a A", "b B"],
    }))
    tau, tau_seconds = _timed_cli(capsys, "tau", ident, b)
    order, order_seconds = _timed_cli(capsys, "order", "-p", str(path))
    if genus > MAX_GENUS:
        message = f"genus {genus} is too large: meyersig caps the genus at {MAX_GENUS}\n"
        assert tau == (1, "", "error: " + message)
        assert order == (2, "", "parse error: matrix for 'a': " + message)
        assert tau_seconds < 1 and order_seconds < 1
    else:
        assert (tau, order) == ((0, "0\n", ""), (0, "1\n", ""))


@pytest.mark.parametrize("rows", ["2,0;0,1", "3,-2;0,1", "1,0,0,0;0,1,0,0;0,0,1,0;1,0,0,1"])
def test_rank_1_generator_that_is_not_symplectic_is_parse_error(capsys, tmp_path, rows):
    # A - I has rank 1 in each, but is no lam v (v^T J): the symplectic
    # check still runs and refuses it
    genus = 1 if rows.count(";") == 1 else 2
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({"genus": genus, "generators": ["x"], "matrices": {"x": rows}, "relators": []}))
    assert run_cli(capsys, "order", "-p", str(path)) == (
        2, "", "parse error: matrix for 'x': not symplectic: A^T J A != J\n"
    )


def _generators_file(path, count, relators=()):
    names = [f"x{i}" for i in range(count)]
    path.write_text(json.dumps({
        "genus": 1, "generators": names, "matrices": dict.fromkeys(names, "1,1;0,1"), "relators": list(relators),
    }))
    return str(path)


def test_generator_cap_refuses_before_any_matrix_is_read(capsys, count_calls, tmp_path):
    """MAX_GENERATORS generators load (with relators at the word cap), one
    more is refused with exit 1 before any matrix is parsed, in a file and
    in a Presentation built in code."""
    cap = presentations.MAX_GENERATORS
    parse = count_calls(cli, "parse_matrix")
    relators = [f"x{i % cap} x{(i + 1) % cap}^-1" for i in range(5000)]
    inside = _generators_file(tmp_path / "inside.json", cap, relators)
    assert run_cli(capsys, "order", "-p", inside) == (0, "1\n", "")
    code, out, err = run_cli(capsys, "phi", "-p", inside, "x0 x1")
    assert (code, err, out.count("\n")) == (0, "", 1)
    # phi reads the text order read, so the loader returns the presentation
    # it built from that text and parses no matrix again
    assert parse.call_count == cap
    message = f"presentation has too many generators: meyersig caps presentations at {cap} generators"
    outside = _generators_file(tmp_path / "outside.json", cap + 1)
    for argv in (["order", "-p", outside], ["phi", "-p", outside, "x0"]):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    assert parse.call_count == cap
    matrices = (transvection((1, 0)),) * (cap + 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        presentations.Presentation(1, tuple(f"x{i}" for i in range(cap + 1)), matrices, ())


# Run in a child whose address space is capped at 256 MiB.  Before the
# generator cap, the class-order solve of 10**5 generators allocated
# 10**10 entries; before the relators were reduced to a lattice basis, the
# closedness check over a positive-genus base allocated one entry per
# relator on each of 10**4 relator columns; and before empty relators
# were left out, 3 * 10**5 of them took 64 entries each.  Each of the
# three fails with MemoryError in that space without its bound.
_CAPPED_SOLVE_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))
from meyersig.cli import main
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    code = main(argv)
    print(code, time.perf_counter() - start < 10, file=sys.stderr)
"""


def test_presentation_solves_stay_small(tmp_path):
    """Within a 256 MiB address space: 10**5 generators are refused at
    once; 64 generators with 10 000 one-letter relators pass the
    closedness check over a torus base; 64 generators with 10 000 empty
    relators give their class order, and with 3 * 10**5 are refused by
    the word cap, which counts an empty relator as one letter."""
    many = _generators_file(tmp_path / "many.json", 100_000)
    names = [f"x{i}" for i in range(64)]
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({
        "genus": 1, "generators": names, "matrices": dict.fromkeys(names, "1,0;0,1"),
        "relators": [names[i % 64] for i in range(10_000)],
    }))
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"genus": 1, "base_genus": 1, "germs": [{"monodromy": "x0 x1^-1"}]}))
    empty = _generators_file(tmp_path / "empty.json", 64, [""] * 10_000)
    too_many = _generators_file(tmp_path / "too_many.json", 64, [""] * 300_000)
    argvs = [
        ["order", "-p", many], ["local-sig", "-f", str(torus), "-p", str(ones)],
        ["order", "-p", empty], ["order", "-p", too_many],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_SOLVE_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    cap = presentations.MAX_GENERATORS
    assert done.returncode == 0, done.stderr
    assert done.stdout == "germ 0: 0\ntotal: 0\n1\n"
    assert done.stderr == (
        f"error: presentation has too many generators: meyersig caps presentations at {cap} generators\n"
        "1 True\n0 True\n0 True\n"
        f"error: word is too long: meyersig caps words at {presentations.MAX_WORD_LETTERS} letters\n1 True\n"
    )


def test_matrix_arguments_are_checked_once(capsys, count_calls):
    """tau, phi1 and rademacher check the rows of each matrix argument
    once, run the symplectic product on it and no twist recognizer."""
    check_rows = count_calls(matrix, "check_rows")
    product = count_calls(symplectic, "_is_symplectic")
    recognize = count_calls(symplectic, "_recognize_twist")
    for argv, args in ((["tau", "1,1;0,1", "0,-1;1,0"], 2), (["phi1", "2,1;1,1"], 1), (["rademacher", "[[1,1],[0,1]]"], 1)):
        before = check_rows.call_count, product.call_count
        assert run_cli(capsys, *argv)[0] == 0
        assert (check_rows.call_count - before[0], product.call_count - before[1]) == (args, args)
    assert recognize.call_count == 0


@pytest.mark.parametrize(
    "command, expected",
    [("order", "3\n"), ("phi", "4/3\n"), ("local-sig", CHAIN_OUT)],
    ids=["order", "phi", "local-sig"],
)
def test_file_name_that_looks_like_json_is_read_as_a_file(
    capsys, monkeypatch, data_dir, tmp_path, command, expected
):
    monkeypatch.chdir(tmp_path)  # a relative name starts with the bracket
    if command == "local-sig":
        _write_fibration(tmp_path / "{b}.json", 2, CHAIN_GERMS)
        argv = ["-f", "{b}.json"]
    else:
        (tmp_path / "[a].json").write_text((data_dir / "sl2z.json").read_text())
        argv = ["-p", "[a].json"] + (["a b"] if command == "phi" else [])
    assert run_cli(capsys, command, *argv) == (0, expected, "")


def test_str_given_to_a_loader_is_a_file_name(data_dir, tmp_path):
    path = tmp_path / "[a].json"
    path.write_text((data_dir / "sl2z.json").read_text())
    assert presentations.load_presentation(str(path)) == presentations.shipped_presentation(1)
    path = _write_fibration(tmp_path / "{b}.json", 2, CHAIN_GERMS)
    assert len(load_fibration(path).germs) == 30


@pytest.mark.parametrize("label", [None, 5, ["u"]])
def test_local_sig_non_string_label_is_parse_error(capsys, tmp_path, label):
    path = _write_fibration(tmp_path / "fib.json", 1, [{"monodromy": "a", "label": label}])
    code, out, err = run_cli(capsys, "local-sig", "-f", path)
    assert (code, out) == (2, "")
    assert err == f"parse error: field 'label' must be a string, got {label!r}\n"


def test_local_sig_kodaira_word_length_cap(capsys, tmp_path):
    path = tmp_path / "fib.json"
    germ = {"monodromy": "kodaira:I_1000000000"}
    path.write_text(json.dumps({"genus": 1, "base_genus": 0, "germs": [germ]}))
    code, out, err = run_cli(capsys, "local-sig", "-f", str(path))
    assert (code, out) == (1, "")
    assert "caps words" in err


def test_local_sig_unlabeled_germ_gets_index(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"genus": 2, "base_genus": 1, "germs": [{"monodromy": ""}]}))
    code, out, _ = run_cli(capsys, "local-sig", "-f", str(path))
    assert code == 0
    assert out.splitlines()[0] == "germ 0: 0"


def test_local_sig_positive_base_closedness_is_checked_in_h1(capsys, tmp_path):
    # c1^2 is even, so it lies in the commutator subgroup of Sp(4;Z), but
    # not in that of the presented group, whose H_1 is Z/10
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"genus": 2, "base_genus": 1, "germs": [{"monodromy": "c1 c1"}]}))
    code, out, err = run_cli(capsys, "local-sig", "-f", str(path))
    assert (code, out) == (1, "")
    assert "closedness check failed" in err
    assert "not a product of commutators in the presented group" in err


def test_local_sig_sphere_base_closedness_failure_prints_nothing(capsys, tmp_path):
    # a b is not the identity in SL(2, Z), so the germs do not close up
    path = _write_fibration(tmp_path / "open.json", 1, [{"monodromy": "a"}, {"monodromy": "b"}])
    code, out, err = run_cli(capsys, "local-sig", "-f", path)
    assert (code, out) == (1, "")
    assert "closedness check failed" in err
    assert "do not multiply to the identity over a sphere base" in err


def test_local_sig_non_integer_field_is_parse_error(capsys, tmp_path):
    path = tmp_path / "fib.json"
    germ = {"monodromy": "a", "neighborhood_signature": 0.5}
    path.write_text(json.dumps({"genus": 1, "base_genus": 0, "germs": [germ]}))
    code, out, err = run_cli(capsys, "local-sig", "-f", str(path))
    assert (code, out) == (2, "")
    assert "must be an integer" in err


def test_euler(capsys):
    args = ["euler", "-g", "1", "-b", "0", "--eps"] + ["1"] * 12
    assert run_cli(capsys, *args)[:2] == (0, "12\n")
    assert run_cli(capsys, "euler", "-g", "2", "-b", "2")[:2] == (0, "4\n")
    assert run_cli(capsys, "euler", "-g", "1", "-b", "0", "--chi", "1", "1")[:2] == (0, "2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-g", "-1", "-b", "0"), "fiber genus must be >= 0"),
        (("-g", "1", "-b", "-2"), "base genus must be >= 0"),
        (("-g", "-1", "-b", "0", "--chi", "1"), "fiber genus must be >= 0"),
    ],
)
def test_euler_refuses_negative_genera(capsys, argv, message):
    assert run_cli(capsys, "euler", *argv) == (1, "", f"error: {message}\n")


def test_euler_flag_conflict(capsys):
    code, _, err = run_cli(capsys, "euler", "-g", "1", "-b", "0", "--eps", "1", "--chi", "1")
    assert code == 1


def test_geo_both_directions(capsys):
    assert run_cli(capsys, "geo", "--ksq", "0", "--chi-struct", "1")[:2] == (
        0,
        "sign=-8 chi_top=12\n",
    )
    assert run_cli(capsys, "geo", "--sign", "-8", "--chi-top", "12")[:2] == (
        0,
        "ksq=0 chi_struct=1\n",
    )
    code, out, _ = run_cli(capsys, "geo", "--sign", "1", "--chi-top", "1")
    assert (code, out) == (0, "ksq=5 chi_struct=1/2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("geo", "--ksq", "1"), "--ksq and --chi-struct go together"),
        (("geo", "--sign", "1"), "--sign and --chi-top go together"),
        (("twist-value", "-g", "2", "--nonsep", "--sep", "1"), "give either --nonsep or --sep h, not both"),
    ],
    ids=["geo --ksq alone", "geo --sign alone", "twist-value --nonsep --sep"],
)
def test_options_that_need_a_partner_or_exclude_one(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_geo_argument_validation(capsys):
    assert run_cli(capsys, "geo")[0] == 1
    assert run_cli(capsys, "geo", "--ksq", "1", "--sign", "0")[0] == 1
    assert run_cli(capsys, "geo", "--ksq", "x", "--chi-struct", "1")[0] == 2


GEO_PARTNER = {"--ksq": "--chi-struct", "--chi-struct": "--ksq", "--sign": "--chi-top",
               "--chi-top": "--sign"}


@pytest.mark.parametrize(
    "text", ["1_0", "\uff11", "1/0", "1/-2", "1e2", "1.5", ".5", "nan", "inf", "1/2/3", "/2", "2/", ""]
)
@pytest.mark.parametrize("option", list(GEO_PARTNER))
def test_geo_rationals_are_integers_or_p_over_q(capsys, option, text):
    argv = ["geo", f"{option}={text}", f"{GEO_PARTNER[option]}=1"]
    assert run_cli(capsys, *argv) == (2, "", f"parse error: bad rational number {text!r}\n")


@pytest.mark.parametrize("value", ["-3/4", "-7/2", "-3"])
@pytest.mark.parametrize("option", list(GEO_PARTNER))
def test_geo_negative_value_as_a_separate_argument(capsys, monkeypatch, option, value):
    joined = run_cli(capsys, "geo", f"{option}={value}", f"{GEO_PARTNER[option]}=1")
    assert joined[0] == 0
    assert run_cli(capsys, "geo", option, value, GEO_PARTNER[option], "1") == joined
    # main() with no argument list reads sys.argv
    monkeypatch.setattr(sys, "argv", ["meyersig", "geo", GEO_PARTNER[option], "1", option, value])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == joined


@pytest.mark.parametrize("value", ["-x", "-", "-3/x", "-1_0/3"])
def test_geo_non_number_after_an_option_still_fails(capsys, value):
    code, out, err = run_cli(capsys, "geo", "--ksq", value, "--chi-struct", "1")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") or err.startswith("usage:"), err


def test_geo_signed_and_padded_rationals_still_parse(capsys):
    assert run_cli(capsys, "geo", "--ksq=+3/4", "--chi-struct", " 1 ")[:2] == (
        0,
        "sign=-29/4 chi_top=45/4\n",
    )
    assert run_cli(capsys, "geo", "--sign=-3/6", "--chi-top=07")[:2] == (
        0,
        "ksq=25/2 chi_struct=13/8\n",
    )


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "meyersig", "dedekind", "1", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "1/18\n", "")


def test_selftest_is_imported_only_for_the_flag():
    """In a fresh interpreter, importing the CLI leaves meyersig.selftest
    unimported; --selftest still imports it and prints its 9 lines."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, meyersig.cli\n"
        "assert 'meyersig.selftest' not in sys.modules\n"
        "status = meyersig.cli.main(['--selftest', '--seed', '1'])\n"
        "assert 'meyersig.selftest' in sys.modules\n"
        "sys.exit(status)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS  ") for line in lines)


def test_library_import_leaves_heavy_modules_out():
    """``import meyersig`` and building both shipped Meyer functions load
    neither the stdlib class generator nor the resource loader nor
    ``json`` nor the command line: every ``meyersig`` command pays for its
    import and set-up.  Checked without site packages (``-S``, so no
    ``.pth`` file imports anything first) and with them, where a module a
    site hook loaded before the import does not count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    heavy = [
        "dataclasses", "inspect", "importlib.resources", "json", "argparse", "meyersig.cli", "meyersig.selftest"
    ]
    code = (
        "import sys\nbefore = set(sys.modules)\nimport meyersig\n"
        "meyersig.shipped_meyer_function(1)\nmeyersig.shipped_meyer_function(2)\n"
        f"print([m for m in {heavy!r} if m in sys.modules and m not in before])\n"
    )
    for flags in (["-S"], []):
        done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (flags, done.returncode, done.stderr, done.stdout) == (flags, 0, "", "[]\n")


def test_twist_value(capsys):
    assert run_cli(capsys, "twist-value", "-g", "2", "--nonsep")[:2] == (0, "3/5\n")
    assert run_cli(capsys, "twist-value", "-g", "2", "--sep", "1")[:2] == (0, "-4/5\n")
    assert run_cli(capsys, "twist-value", "-g", "1")[:2] == (0, "2/3\n")
    assert run_cli(capsys, "twist-value", "-g", "2", "--sep", "5") == (
        1, "", "error: separating genus h=5 must satisfy 1 <= h <= 1\n"
    )


@pytest.mark.parametrize("h", ["0", "1", "2"])
def test_twist_value_separating_at_genus_1(capsys, h):
    """Genus 1 has no separating curve of genus 1 <= h <= g - 1; the error
    says so instead of naming the empty range 1 <= h <= 0."""
    assert run_cli(capsys, "twist-value", "-g", "1", "--sep", h) == (
        1, "", "error: genus 1 has no separating curve: h must satisfy 1 <= h <= g - 1\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("euler", "-g", "9" * 4200, "-b", "9" * 4200),
        ("twist-value", "-g", "9" * 4200, "--sep", "4" * 4200),
    ],
    ids=["euler", "twist-value"],
)
def test_result_past_the_digit_limit_is_a_domain_error(capsys, argv):
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, *argv) == (
        1, "", f"error: the result has more than {limit} digits, the most meyersig prints\n"
    )
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "germs, printed",
    [
        ([("", 10**4300 - 1), ("", 10**4300 - 1)], 1),
        ([("", 5), ("a b", 10**4300 - 1), ("B A", 0)], 0),
    ],
    ids=["total", "germ"],
)
def test_local_sig_prints_the_lines_before_a_value_past_the_digit_limit(
    capsys, monkeypatch, tmp_path, germs, printed
):
    """local-sig prints its lines with one print call; a value past the
    digit limit (the total of two 4300-digit signatures, or 4300 nines
    plus phi(a b) = 4/3 at a germ) still follows the lines before it, as
    when each line had its own call."""
    germs = [{"monodromy": word, "neighborhood_signature": signature} for word, signature in germs]
    path = _write_fibration(tmp_path / "f.json", 1, germs)
    calls = []
    monkeypatch.setattr(cli, "print", lambda *a, **k: (calls.append(a), print(*a, **k)), raising=False)
    limit = sys.get_int_max_str_digits()
    lines = "".join(f"germ {k}: {germs[k]['neighborhood_signature']}\n" for k in range(printed + 1))
    assert run_cli(capsys, "local-sig", "-f", path) == (
        1, lines, f"error: the result has more than {limit} digits, the most meyersig prints\n"
    )
    assert len(calls) == 2  # the lines, then the error
    calls.clear()
    path = _write_fibration(tmp_path / "chain.json", 2, CHAIN_GERMS)
    assert run_cli(capsys, "local-sig", "-f", path) == (0, CHAIN_OUT, "")
    assert len(calls) == 1


def test_non_symplectic_input_names_identity(capsys):
    code, _, err = run_cli(capsys, "phi1", "2,0;0,2")
    assert code == 1
    assert "A^T J A != J" in err


def test_malformed_matrix_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "phi1", "1,x;0,1")
    assert code == 2
    assert "row 0, column 1" in err


# Integer spellings int() would take but that are not ASCII [+-]?[0-9]+:
# each entry point refuses them as a parse error instead of reading 10 or 1.
NOT_INTEGERS = {
    "phi1 entry": (("phi1", "1,1_0;0,1"), "bad integer '1_0' at row 0, column 1"),
    "tau -g": (("tau", "-g", "1_0", "1,0;0,1", "1,0;0,1"), "bad integer '1_0'"),
    "dedekind underscore": (("dedekind", "1_0", "7"), "bad integer '1_0'"),
    "dedekind full-width": (("dedekind", "\uff11", "7"), "bad integer '\uff11'"),
    "dedekind word": (("dedekind", "1", "x"), "bad integer 'x'"),
    "euler -b": (("euler", "-g", "1", "-b", "1_0"), "bad integer '1_0'"),
    "euler --chi": (("euler", "-g", "1", "-b", "0", "--chi", "1", "1_0"), "bad integer '1_0'"),
    "twist-value --sep": (("twist-value", "-g", "2", "--sep", "\u0661"), "bad integer '\u0661'"),
    "--seed": (("--seed", "1_0", "--selftest"), "bad integer '1_0'"),
    "phi exponent": (("phi", "-p", "SL2Z", "a^1_0"), "bad exponent '1_0' in token 0: 'a^1_0'"),
    "phi empty exponent": (("phi", "-p", "SL2Z", "a^ b"), "bad exponent '' in token 0: 'a^'"),
}


@pytest.mark.parametrize("argv, message", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_non_ascii_integer_spellings_are_parse_errors(capsys, data_dir, argv, message):
    argv = [str(data_dir / "sl2z.json") if a == "SL2Z" else a for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"parse error: {message}\n")


def test_seed_is_read_only_under_selftest(capsys):
    assert run_cli(capsys, "--seed", "x", "phi1", "1,1;0,1") == (0, "2/3\n", "")


def test_signed_and_padded_integers_still_parse(capsys):
    assert run_cli(capsys, "dedekind", "+1", "07")[:2] == (0, "5/14\n")
    assert run_cli(capsys, "phi1", " +1 , 1 ; 0 , 1 ")[:2] == (0, "2/3\n")


@pytest.mark.parametrize("fiber", ["I_1_0", "I_\uff11"])
def test_local_sig_kodaira_stem_must_be_ascii_digits(capsys, tmp_path, fiber):
    path = _write_fibration(tmp_path / "fib.json", 1, [{"monodromy": f"kodaira:{fiber}"}])
    code, out, err = run_cli(capsys, "local-sig", "-f", path)
    assert (code, out, err) == (2, "", f"parse error: unknown Kodaira type {fiber!r}\n")


# E(1): 12 nodal germs, half of them named by their Kodaira type
E1_GERMS = [
    {"monodromy": monodromy, "label": f"{label}{k}"}
    for k in range(6)
    for monodromy, label in (("kodaira:I_1", "u"), ("b^-1", "v"))
]


def _sl2z_file(tmp_path, sl2z):
    """A genus-1 presentation file with this content."""
    path = tmp_path / "sl2z.json"
    path.write_text(json.dumps({"genus": 1, **sl2z}))
    return str(path)


def test_local_sig_kodaira_words_over_renamed_generators(capsys, data_dir, tmp_path):
    # Kodaira references take the letters whose matrices are T and L,
    # whatever the generators are called
    shipped = json.loads((data_dir / "sl2z.json").read_text())
    sl2z = _sl2z_file(tmp_path, {
        "generators": ["x", "y"],
        "matrices": {"x": shipped["matrices"]["a"], "y": shipped["matrices"]["b"]},
        "relators": [r.replace("a", "x").replace("b", "y") for r in shipped["relators"]],
    })
    for name, germs in (("e1", E1_GERMS), ("e2", E2_GERMS)):
        path = _write_fibration(tmp_path / f"{name}.json", 1, germs)
        expected = run_cli(capsys, "local-sig", "-f", path)
        assert expected[0] == 0
        renamed = [{**germ, "monodromy": germ["monodromy"].replace("b^", "y^")} for germ in germs]
        path = _write_fibration(tmp_path / f"{name}-xy.json", 1, renamed)
        assert run_cli(capsys, "local-sig", "-f", path, "-p", sl2z) == expected
    assert expected[1] == E2_OUT


def test_local_sig_kodaira_needs_the_letters_t_and_l(capsys, tmp_path):
    sl2z = _sl2z_file(tmp_path, {
        "generators": ["a", "b"], "matrices": {"a": "1,2;0,1", "b": "1,0;-1,1"}, "relators": [],
    })
    path = _write_fibration(tmp_path / "fib.json", 1, [{"monodromy": "kodaira:I_1"}])
    assert run_cli(capsys, "local-sig", "-f", path, "-p", sl2z) == (
        1, "",
        "error: SL(2;Z) words need letters for T = [[1,1],[0,1]] and L = [[1,0],[-1,1]]\n",
    )


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, expected stdout) for each ``meyersig ... # ... -> X`` line of
    the README's sh blocks; X is cut before " (or"."""
    examples, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("meyersig ") and "->" in line:
            command, _, comment = line.partition("#")
            expected = comment.partition("->")[2].strip().partition(" (or")[0]
            examples.append((shlex.split(command)[1:], expected + "\n"))
    return examples


def test_readme_cli_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 9
    data = resources.files("meyersig.data")
    for argv, expected in examples:
        argv = [str(data / a) if a in ("sl2z.json", "genus2.json") else a for a in argv]
        assert run_cli(capsys, *argv)[:2] == (0, expected), argv


@pytest.mark.parametrize("types", [["I_0*", "I_0*"], ["II*", "II"]])
def test_local_sig_kodaira_germs_total_the_signature_of_e1(capsys, tmp_path, types):
    """E(1) as two I_0* fibres or as II* and II: each germ prints phi1 plus
    its Sign(N) = -(c - 1), and the total is -8."""
    germs = [{"monodromy": f"kodaira:{name}", "label": name} for name in types]
    path = _write_fibration(tmp_path / "e1.json", 1, germs)
    code, out, err = run_cli(capsys, "local-sig", "-f", path)
    expected = {"I_0*": "-4", "II*": "-20/3", "II": "-4/3"}
    assert (code, err) == (0, "")
    assert out == "".join(f"{name}: {expected[name]}\n" for name in types) + "total: -8\n"


def test_local_sig_kodaira_signature_that_disagrees_exits_2(capsys, tmp_path):
    germs = [{"monodromy": "kodaira:I_0*", "neighborhood_signature": 0}] * 2
    code, out, err = run_cli(capsys, "local-sig", "-f", _write_fibration(tmp_path / "f.json", 1, germs))
    assert (code, out) == (2, "")
    assert "neighborhood_signature 0 disagrees with 'kodaira:I_0*'" in err


# (good, bad, its error): a bad germ after a repeated good one, whose word
# is read once, fails as it does alone.
BAD_AFTER_REPEATED = [
    ("a b^-1", "a zz", "parse error: unknown generator 'zz' in token 1\n"),
    ("kodaira:I_1", "kodaira:I_x", "parse error: unknown Kodaira type 'I_x'\n"),
]


@pytest.mark.parametrize("good, bad, error", BAD_AFTER_REPEATED)
def test_local_sig_bad_germ_after_a_repeated_good_one(capsys, tmp_path, good, bad, error):
    for words in ([good, good, bad], [bad]):
        path = _write_fibration(tmp_path / "f.json", 1, [{"monodromy": w} for w in words])
        assert run_cli(capsys, "local-sig", "-f", path) == (2, "", error)


def test_local_sig_checks_the_neighborhood_signature_of_each_repeated_kodaira_germ(capsys, tmp_path):
    germs = [{"monodromy": "kodaira:I_2"}, {"monodromy": "kodaira:I_2", "neighborhood_signature": -1}]
    germs.append({"monodromy": "kodaira:I_2", "neighborhood_signature": 0})
    code, out, err = run_cli(capsys, "local-sig", "-f", _write_fibration(tmp_path / "f.json", 1, germs))
    assert (code, out) == (2, "")
    assert err == (
        "parse error: neighborhood_signature 0 disagrees with 'kodaira:I_2', "
        "whose neighborhood has signature -1\n"
    )


@pytest.mark.parametrize("word", ["a^5001", "kodaira:I_5001"])
def test_local_sig_counts_a_repeated_germ_toward_the_cap(capsys, count_calls, tmp_path, word):
    # one germ of 5 001 letters loads; its word twice is over the cap, and
    # refused before any Meyer function or closedness walk
    presentations.shipped_presentation(1)  # built, and its relators walked, once per process
    path = _write_fibration(tmp_path / "long.json", 1, [{"monodromy": word}] * 2)
    walk = count_calls(presentations, "_walk")
    evaluate = count_calls(presentations, "evaluate_word")
    phi1 = count_calls(fibered, "phi1")
    assert run_cli(capsys, "local-sig", "-f", path) == (1, "", TOO_LONG)
    # the one evaluation of a Kodaira word is sl2_word's check of I_5001
    checks = 1 if word.startswith("kodaira:") else 0
    assert (walk.call_count, evaluate.call_count, phi1.call_count) == (0, checks, 0)
    one = _write_fibration(tmp_path / "one.json", 1, [{"monodromy": word}])
    code, out, err = run_cli(capsys, "local-sig", "-f", one)  # loads, then fails closedness
    assert (code, out) == (1, "")
    assert "closedness check failed" in err


def test_data_dir_override(capsys, data_dir, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(
        json.dumps({"genus": 1, "base_genus": 0, "germs": [{"monodromy": "kodaira:I_0"}]})
    )
    code, out, _ = run_cli(capsys, "local-sig", "-f", str(path), "-p", str(data_dir / "sl2z.json"))
    assert code == 0
    assert out.splitlines()[-1] == "total: 0"


def test_output_bit_stable(capsys, data_dir):
    first = run_cli(capsys, "order", "-p", str(data_dir / "genus2.json"))
    second = run_cli(capsys, "order", "-p", str(data_dir / "genus2.json"))
    assert first == second


def test_no_subcommand_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_selftest_flag(capsys):
    assert run_cli(capsys, "--selftest", "--seed", "1")[:2] == (
        0,
        "PASS  class orders 3 and 5\n"
        "PASS  cocycle axioms\n"
        "PASS  coboundary of phi_1\n"
        "PASS  signature defect dual route\n"
        "PASS  synthesized Meyer functions\n"
        "PASS  Dedekind reciprocity\n"
        "PASS  free-reduction invariance\n"
        "PASS  cochain is the tau prefix sum\n"
        "PASS  local signature of a Kodaira fibre = -2e/3\n",
    )


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


# suite name -> (name its suite looks up in meyersig.selftest, fault planted there)
PLANTED_FAULTS = {
    "class orders 3 and 5": ("class_order", lambda fn: lambda p: UNBOUNDED),
    "cocycle axioms": ("tau_sp", _off_by_one),
    "coboundary of phi_1": ("phi1", _off_by_one),
    "signature defect dual route": ("sigma_defect_via_tau", _off_by_one),
    "synthesized Meyer functions": ("shipped_meyer_function", lambda fn: lambda g: _off_by_one(fn(g))),
    "Dedekind reciprocity": ("dedekind_sum", lambda fn: lambda a, c: -fn(a, c)),
    "free-reduction invariance": ("cochain_c", lambda fn: lambda w, p: fn(w, p) + len(w)),
    "cochain is the tau prefix sum": ("cochain_c", lambda fn: lambda w, p: fn(w, p) + len(w)),
    "local signature of a Kodaira fibre = -2e/3": ("local_signature", _off_by_one),
}


@pytest.mark.parametrize("entry", selftest.SUITES, ids=[name for name, _, _ in selftest.SUITES])
def test_selftest_reports_a_planted_fault(capsys, monkeypatch, entry):
    name = entry[0]
    target, fault = PLANTED_FAULTS[name]
    monkeypatch.setattr(selftest, target, fault(getattr(selftest, target)))
    monkeypatch.setattr(selftest, "SUITES", (entry,))
    code, out, err = run_cli(capsys, "--selftest")
    assert (code, out) == (1, f"FAIL  {name}\n")
    assert " != " in err  # the counterexample


def _inverse_record(twist):
    """The record of T_v^lam with w negated and lam kept: the step it
    takes is T_v^-lam's, so each prefix stays symplectic."""
    v, lam, w, v_terms, w_terms = twist
    return v, lam, tuple(-e for e in w), v_terms, tuple((j, -e) for j, e in w_terms)


def _doubled_record(twist):
    """The record of T_v^lam with w doubled and lam kept: the step it
    takes is T_v^2lam's, so the braid relators no longer map to I."""
    v, lam, w, v_terms, w_terms = twist
    return v, lam, tuple(2 * e for e in w), v_terms, tuple((j, 2 * e) for j, e in w_terms)


def _plant_in_records(monkeypatch, n, fault):
    """Plant ``fault`` in every twist record at 2g = n that a walk reads,
    the straight-line walks at 2g <= 4 and the general one above alike:
    the records of the shipped presentations, built already, and those
    of each presentation loaded from here on; every other size keeps its
    records."""

    def planted(twist):
        return fault(twist) if twist is not None and len(twist[0]) == n else twist

    for g in (1, 2):
        records = presentations.shipped_presentation(g)._twists
        for letter, twist in list(records.items()):
            monkeypatch.setitem(records, letter, planted(twist))
    classify, make = presentations._classify, presentations._twist

    def planted_classify(rows, genus):
        m, twist = classify(rows, genus)
        return m, planted(twist)

    monkeypatch.setattr(presentations, "_classify", planted_classify)
    monkeypatch.setattr(presentations, "_twist", lambda v, lam: planted(make(v, lam)))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_selftest_reaches_every_twist_step_path(capsys, monkeypatch, n):
    """A wrong step planted at one size (the straight-line walks at 2g = 2
    and 4, the general walk's sparse step at 2g = 6) is caught by the
    cochain suite of --selftest."""
    entry = next(entry for entry in selftest.SUITES if entry[0] == "cochain is the tau prefix sum")
    _plant_in_records(monkeypatch, n, _inverse_record)  # the shipped relators were walked before
    monkeypatch.setattr(selftest, "SUITES", (entry,))
    code, out, err = run_cli(capsys, "--selftest")
    assert (code, out) == (1, "FAIL  cochain is the tau prefix sum\n")
    assert " != " in err


def _negated_rule(rule, n, r):
    """The flat minor-sign rule of the straight-line walks with its value
    negated where 2g = n and rank(P - I) = r; every other step takes
    ``rule``."""

    def planted(m, new, twist, bound):
        tau, rank = rule(m, new, twist, bound)
        if len(twist[0]) == n and n - len(kernel_basis([m[i * n:(i + 1) * n] for i in range(n)])) == r:
            tau = -tau
        return tau, rank

    return planted


@pytest.mark.parametrize("n, r", [(2, 1), (4, 1), (4, 2), (4, 3)])
def test_selftest_reaches_every_rank_of_the_minor_sign_rule(capsys, monkeypatch, n, r):
    """The minor-sign rule negated at one size and rank alone is caught by
    the cochain suite of --selftest."""
    entry = next(entry for entry in selftest.SUITES if entry[0] == "cochain is the tau prefix sum")
    for g in (1, 2):
        presentations.shipped_presentation(g)  # relators walked before the fault
    monkeypatch.setattr(presentations, "_minor_sign", _negated_rule(presentations._minor_sign, n, r))
    monkeypatch.setattr(selftest, "SUITES", (entry,))
    code, out, err = run_cli(capsys, "--selftest")
    assert (code, out) == (1, "FAIL  cochain is the tau prefix sum\n")
    assert " != " in err


def _step_without_v(step, n):
    """The twist step at 2g = n with its + v_r term dropped, M + (M v) w in
    place of M + (M v + v) w, so the prefixes leave Sp(2g;Z); every other
    size takes ``step``."""

    def planted(m, twist):
        out = step(m, twist)
        v, _, w, _, _ = twist
        if len(v) != n:
            return out
        return tuple(tuple(e - vr * f for e, f in zip(row, w)) for row, vr in zip(out, v))

    return planted


@pytest.mark.parametrize("name, n", [("sl2z.json", 2), ("genus2.json", 4)])
def test_a_walk_fault_fails_a_load_once_the_memo_is_cleared(capsys, monkeypatch, data_dir, name, n):
    """The loader keeps what it walked, so a fault planted after a load
    goes unseen by the next load of the same file; on a cleared memo the
    relators are walked again and the fault fails the load, every time,
    since a load that fails keeps no key."""
    path = str(data_dir / name)
    expected = run_cli(capsys, "order", "-p", path)[:2]
    _plant_in_records(monkeypatch, n, _doubled_record)
    assert run_cli(capsys, "order", "-p", path)[:2] == expected
    presentations._load_text.cache_clear()
    for _ in range(2):
        code, out, err = run_cli(capsys, "order", "-p", path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: relator 0 (") and err.endswith(") does not map to the identity\n")
        assert presentations._load_text.cache_info().currsize == 0


def test_a_text_hit_returns_the_object_built_before_a_planted_fault(capsys, monkeypatch, data_dir, tmp_path):
    """A load from a text already read returns the object built from it,
    so a fault planted in between goes unseen, at any path; this is the
    documented behaviour, and why conftest empties the memo after each
    test.  A file the fault then reads in full, the other shipped one,
    fails."""
    path = data_dir / "genus2.json"
    p = presentations.load_presentation(path)
    _plant_in_records(monkeypatch, 4, _doubled_record)
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    assert presentations.load_presentation(path) is presentations.load_presentation(copy) is p
    assert run_cli(capsys, "order", "-p", str(copy)) == (0, "5\n", "")
    _plant_in_records(monkeypatch, 2, _doubled_record)
    code, out, err = run_cli(capsys, "order", "-p", str(data_dir / "sl2z.json"))
    assert (code, out) == (2, "")
    assert err.endswith(") does not map to the identity\n")


def test_the_memo_is_keyed_by_the_content_not_the_path(capsys, count_calls, data_dir, tmp_path):
    """A file rewritten between two loads is read and walked again: a
    relator that no longer maps to I exits 2 as it would on a first load,
    and the restored file, whose text was read before, loads as the
    object kept before with no matrix parsed."""
    path = tmp_path / "genus2.json"
    text = (data_dir / "genus2.json").read_text()
    path.write_text(text)
    p = presentations.load_presentation(path)
    assert run_cli(capsys, "order", "-p", str(path))[:2] == (0, "5\n")
    data = json.loads(text)
    data["relators"][0] = "c1 c2 c1 c2^-1 c1^-1 c1^-1"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "order", "-p", str(path)) == (
        2, "", "parse error: relator 0 ('c1 c2 c1 c2^-1 c1^-1 c1^-1') does not map to the identity\n"
    )
    path.write_text(text)
    parse = count_calls(matrix, "parse_matrix")
    assert presentations.load_presentation(path) is p
    assert run_cli(capsys, "order", "-p", str(path))[:2] == (0, "5\n")
    assert parse.call_count == 0


def test_order_and_phi_on_both_shipped_files_walk_each_file_once(capsys, count_calls, data_dir):
    """order and phi alternating on sl2z.json and genus2.json, 10 times:
    each file's text misses the memo once, so its relators are walked and
    its class order solved once, and every later load is a hit.  A load of
    decoded data then walks its relators again and leaves the memo as it
    was."""
    presentations._load_text.cache_clear()
    walk = count_calls(presentations, "_walk")
    solve = count_calls(exact, "lattice_order")
    calls = [
        (("order", "-p", str(data_dir / "sl2z.json")), "3\n"),
        (("phi", "-p", str(data_dir / "sl2z.json"), "a"), "2/3\n"),
        (("order", "-p", str(data_dir / "genus2.json")), "5\n"),
        (("phi", "-p", str(data_dir / "genus2.json"), "c1"), "3/5\n"),
    ]
    for _ in range(10):
        for argv, out in calls:
            assert run_cli(capsys, *argv) == (0, out, "")
    relators = 2 + 13  # sl2z.json, genus2.json
    assert walk.call_count == relators + 20  # and one walk per phi word
    assert solve.call_count == 2
    info = presentations._load_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (38, 2, 2)
    p = presentations.load_presentation(json.loads((data_dir / "genus2.json").read_text()))
    assert p == presentations.shipped_presentation(2)
    assert walk.call_count == relators + 20 + 13
    assert presentations._load_text.cache_info() == info


def test_selftest_reports_an_exception_and_runs_every_suite(capsys, monkeypatch):
    """A walk fault that makes tau_sp raise (a non-symplectic prefix meets
    the letter s of the genus-3 chain) fails the cochain suite with the
    exception, and the other suites still run and pass."""
    for g in (1, 2):
        presentations.shipped_presentation(g)  # relators walked before the fault
    monkeypatch.setattr(presentations, "_twist_step", _step_without_v(presentations._twist_step, 6))
    code, out, err = run_cli(capsys, "--selftest")
    lines = out.splitlines()
    assert code == 1
    assert lines == [
        f"{'FAIL' if name == 'cochain is the tau prefix sum' else 'PASS'}  {name}"
        for name, _, _ in selftest.SUITES
    ]
    assert len(lines) == 9
    assert "raised ArithmeticError: pairing is not symmetric" in err
    assert "Traceback" not in err
