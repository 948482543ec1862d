"""`docs/api.md` is generated; it must match what the generator emits
for the code as committed."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_api_reference_is_fresh():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.render() + "\n" == (ROOT / "docs" / "api.md").read_text(), (
        "docs/api.md is stale: run `PYTHONPATH=src python tools/gen_api_docs.py`")
