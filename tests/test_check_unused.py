"""tools/check_unused.py: every library name and import has a use."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_unused", ROOT / "tools" / "check_unused.py")
check_unused = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_unused)


def test_every_library_name_has_a_use():
    assert check_unused.main() == 0


def test_an_unused_private_name_and_import_are_reported(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "src" / "tpc", tmp_path / "src" / "tpc", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "README.md", tmp_path)
    final = tmp_path / "src" / "tpc" / "final.py"
    final.write_text(final.read_text() + "\n\ndef _is_known(expr, env):\n    return True\n")
    oracle = tmp_path / "src" / "tpc" / "oracle.py"
    oracle.write_text("import sys\n" + oracle.read_text())
    monkeypatch.setattr(check_unused, "ROOT", tmp_path)
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == {"_is_known", "import sys"}
    assert check_unused.main() == 1


def test_a_name_only_in_readme_prose_is_reported(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "src" / "tpc", tmp_path / "src" / "tpc", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    final = tmp_path / "src" / "tpc" / "final.py"
    final.write_text(final.read_text() + "\n\ndef frobnicate():\n    return None\n")
    readme = (ROOT / "README.md").read_text()
    monkeypatch.setattr(check_unused, "ROOT", tmp_path)
    (tmp_path / "README.md").write_text(readme + "\nIt can frobnicate a tree.\n")
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == {"frobnicate"}
    (tmp_path / "README.md").write_text(readme + "\nCall `frobnicate()` on a tree.\n")
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == set()
    (tmp_path / "README.md").write_text(readme + "\n```python\nfrobnicate()\n```\n")
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == set()


def test_a_kept_name_with_a_use_fails(monkeypatch, capsys):
    # parse_scheme has callers, so exempting it is stale
    monkeypatch.setitem(check_unused.KEPT, "parse_scheme", "an exemption left behind")
    assert check_unused.main() == 1
    assert "KEPT: parse_scheme: has a use, so it needs no exemption" in capsys.readouterr().out


def test_a_field_read_only_as_a_local_name_is_reported(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "src" / "tpc", tmp_path / "src" / "tpc", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "README.md", tmp_path)
    # a new field named like a local of oracle._bfs, which never reads it
    oracle = tmp_path / "src" / "tpc" / "oracle.py"
    text = oracle.read_text()
    oracle.write_text(text.replace("    max_frontier: int = 200_000\n", "    max_frontier: int = 200_000\n    frontier: int = 0\n"))
    monkeypatch.setattr(check_unused, "ROOT", tmp_path)
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == {"SearchBudget.frontier"}
    oracle.write_text(oracle.read_text() + "\n\ndef _width(b):\n    return b.frontier\n\n\n_width(SearchBudget())\n")
    assert check_unused.unused_names().keys() - check_unused.KEPT.keys() == set()
