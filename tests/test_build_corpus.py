"""scripts/build_corpus.py rebuilds the eight committed precision mixes."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _build_corpus():
    path = ROOT / "scripts" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_script_writes_the_committed_mixes(tmp_path):
    for name in ("threads_imprecise.greff", "threads_precise.greff"):
        shutil.copy(CORPUS / name, tmp_path / name)
    written = _build_corpus().build(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in CORPUS.glob("combo_*.greff"))
    assert len(written) == 8
    for path in written:
        assert path.read_bytes() == (CORPUS / path.name).read_bytes(), path.name
