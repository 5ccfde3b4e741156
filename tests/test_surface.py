"""The public surface holds only what runs use: every name `pga` exports has
a user in the package itself, in a demo or in the benchmark harness, so a
function that only tests call is not exported, and not kept, for them."""

import io
import tokenize
from pathlib import Path

import pga

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set[str]:
    """The names a file's code reads: every name token outside strings and
    comments, other than the one a def or class line defines or a
    module-level assignment binds."""
    used, previous = set(), None
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
    for tok, after in zip(tokens, tokens[1:] + [None]):
        if tok.type == tokenize.NAME:
            defined = previous in ("def", "class") or (
                tok.start[1] == 0 and after is not None and after.string in ("=", ":")
            )
            if not defined:
                used.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = tok.string
    return used


def test_every_export_has_a_user():
    files = [p for p in sorted((ROOT / "src" / "pga").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_used_names, files))
    unused = [name for name in pga.__all__ if name not in used]
    assert not unused, f"exported, but nothing in src/pga, demos/ or perfbench/ uses {unused}"
