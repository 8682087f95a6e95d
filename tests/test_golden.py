"""Byte identity of the CLI's reports against the golden corpus (see
golden_corpus.py): every file under golden/ is rerun and compared."""

import pytest

from golden_corpus import GOLDEN, render, write_inputs

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
    assert len(FILES) == 108
