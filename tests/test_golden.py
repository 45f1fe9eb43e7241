"""Golden outputs, pinned byte for byte against files in tests/golden/.

Two things are pinned: the JSONL that `greff conformance --seed 0
--cases 25` prints, and, for every program in corpus/, the exit code
and stdout of `greff check`, `greff elab` and `greff run`, plus the
machine's step count for programs that elaborate.  A change that should
keep behaviour identical must leave both files unchanged.  After an
intended change of behaviour, `python tests/test_golden.py` rewrites
them from the current code, and the diff shows what moved.
"""

import io
import json
from pathlib import Path

import pytest

from greff import cli, elaborate
from greff import eval as ev

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFORMANCE_ARGS = ("conformance", "--seed", "0", "--cases", "25")
CONFORMANCE_FILE = GOLDEN / "conformance_seed0_cases25.jsonl"
CORPUS_FILE = GOLDEN / "corpus.json"


def _cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue()


def observe_conformance() -> str:
    code, out = _cli(*CONFORMANCE_ARGS)
    assert code == cli.EXIT_OK
    return out


def observe_corpus(path: Path) -> dict:
    """Exit code and stdout per subcommand; steps when the program elaborates."""
    obs = {}
    for command in ("check", "elab", "run"):
        code, out = _cli(command, str(path))
        obs[command] = {"exit": code, "stdout": out}
    if obs["run"]["exit"] != cli.EXIT_STATIC:
        res = elaborate.elab_source(path.read_text(encoding="utf-8"))
        obs["steps"] = ev.run(res.sig, res.term).steps
    return obs


def _corpus_programs() -> list[Path]:
    return sorted(CORPUS.glob("*.greff"))


def _expected_corpus() -> dict:
    return json.loads(CORPUS_FILE.read_bytes().decode("utf-8"))


def test_conformance_seed0_jsonl_is_unchanged():
    assert observe_conformance().encode("utf-8") == CONFORMANCE_FILE.read_bytes()


def test_golden_covers_every_corpus_program():
    assert sorted(_expected_corpus()) == [p.name for p in _corpus_programs()]


@pytest.mark.parametrize("path", _corpus_programs(), ids=lambda p: p.stem)
def test_corpus_outputs_are_unchanged(path):
    assert observe_corpus(path) == _expected_corpus()[path.name]


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    CONFORMANCE_FILE.write_bytes(observe_conformance().encode("utf-8"))
    corpus = {p.name: observe_corpus(p) for p in _corpus_programs()}
    text = json.dumps(corpus, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    CORPUS_FILE.write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    write_golden()
