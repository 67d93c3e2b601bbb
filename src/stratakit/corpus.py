"""Access to the bundled fixture corpus."""

from __future__ import annotations

import json
from importlib import resources

from .linalg import Value


class CorpusEntry(Value):
    name: str
    file: str
    tags: tuple[str, ...]
    expect_error: str | None


def corpus_index() -> list[CorpusEntry]:
    raw = resources.files("stratakit.fixtures").joinpath("index.json").read_text()
    data = json.loads(raw)
    return [
        CorpusEntry(
            name=e["name"],
            file=e["file"],
            tags=tuple(e.get("tags", [])),
            expect_error=e.get("expect_error"),
        )
        for e in data["fixtures"]
    ]


def fixture_bytes(file: str) -> bytes:
    return resources.files("stratakit.fixtures").joinpath(file).read_bytes()
