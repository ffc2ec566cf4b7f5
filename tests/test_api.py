"""The documented public surface: README's API list and the package version."""

import re
from pathlib import Path

import smallfdr

ROOT = Path(__file__).resolve().parents[1]


def _readme_api_names() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)


def test_readme_api_list_equals_all():
    names = _readme_api_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert sorted(names) == sorted(smallfdr.__all__)


def test_every_exported_name_exists():
    assert len(smallfdr.__all__) == len(set(smallfdr.__all__))
    for name in smallfdr.__all__:
        assert hasattr(smallfdr, name), name


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)[1] == smallfdr.__version__
