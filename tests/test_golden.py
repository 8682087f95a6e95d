"""Byte identity of the CLI's reports against the golden corpus (see
golden_corpus.py): every file under golden/ is rerun and compared."""

import shlex

import pytest

from conftest import cli_vocabulary
from golden_corpus import GOLDEN, render, write_inputs
from latcert import lattice32

FILES = sorted(GOLDEN.glob("*.txt"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, rm_shell, xqr_shell):
    return write_inputs(tmp_path_factory.mktemp("golden"), rm_shell.result, xqr_shell.result)


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_cli_output_matches_the_golden_file(path, inputs):
    expected = path.read_text()
    assert render(expected.split("\n", 1)[0], inputs) == expected


def test_golden_corpus_is_there():
    # the exact count, so that a lost file fails; a change that adds or
    # drops a case updates it
    assert len(FILES) == 112


def test_the_corpus_runs_every_subcommand_and_option():
    # the corpus is the one oracle of the CLI's output: it must run them all
    used = {token.split("=", 1)[0] for path in FILES
            for token in shlex.split(path.read_text().split("\n", 1)[0])}
    assert cli_vocabulary() - used == set()


def test_the_hand_spelled_bent_shell_reads_as_the_saved_one(inputs, monkeypatch):
    # {bent_text} is no file of save_shell's grammar: np.loadtxt reads it,
    # and the report after the command line is the {bent} case's
    def report(name):
        return (GOLDEN / name).read_text().split("\n", 1)[1]

    assert report("verify-full-bent-tabs-crlf.txt") == report("verify-full-bent.txt")
    read_text = lattice32._read_text
    calls = []
    monkeypatch.setattr(lattice32, "_read_text",
                        lambda path: calls.append(path) or read_text(path))
    assert lattice32.load_shell(inputs["{bent_text}"]).count == 6
    assert calls == [inputs["{bent_text}"]]
