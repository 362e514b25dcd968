import importlib
import pkgutil
import re
import tokenize
from pathlib import Path

import flatperm

# a name in double backticks, dotted or not, maybe written as a call
_CITED = re.compile(r"``([A-Za-z_][\w.]*)(?:\([^`]*\))?``")
# a recorded benchmark file, kept at the repository root
_BENCH_FILE = re.compile(r"BENCH_\w+\.json")
ROOT = Path(__file__).resolve().parent.parent


def _resolves(module, dotted: str) -> bool:
    """Whether ``dotted`` names something, read from ``module``'s namespace
    or, for its first part, as a module of the package."""
    first, *rest = dotted.split(".")
    if first in vars(module):
        obj = vars(module)[first]
    else:
        try:
            obj = importlib.import_module(f"flatperm.{first}")
        except ModuleNotFoundError:
            return False
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_private_names_in_docs_exist():
    # docstrings and comments cite private names, which a refactor can
    # remove without breaking anything that runs
    missing, cited = [], 0
    for info in pkgutil.iter_modules(flatperm.__path__):
        module = importlib.import_module(f"flatperm.{info.name}")
        with tokenize.open(module.__file__) as source:
            tokens = list(tokenize.generate_tokens(source.readline))
        for token in tokens:
            if token.type not in (tokenize.STRING, tokenize.COMMENT):
                continue
            for dotted in _CITED.findall(token.string):
                parts = dotted.split(".")
                if not any(p[:1] == "_" and p[:2] != "__" for p in parts):
                    continue
                cited += 1
                if not _resolves(module, dotted):
                    missing.append(f"{info.name}:{token.start[0]}: {dotted}")
    assert cited > 0
    assert missing == []


def test_cited_bench_files_exist():
    # README.md and the modules cite the BENCH_*.json file behind each
    # measured figure; a renamed or unrecorded file leaves the figure
    # without its record
    texts = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for info in pkgutil.iter_modules(flatperm.__path__):
        module = importlib.import_module(f"flatperm.{info.name}")
        texts[info.name] = Path(module.__file__).read_text(encoding="utf-8")
    cited = {(where, name) for where, text in texts.items()
             for name in _BENCH_FILE.findall(text)}
    assert cited
    assert sorted(f"{where}: {name}" for where, name in cited
                  if not (ROOT / name).is_file()) == []
