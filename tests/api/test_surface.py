"""The documented surface stays true.

Two contracts:

* every fenced ``python`` block in ``docs/api.md`` executes verbatim, in
  order, in one shared namespace — the quickstart and examples cannot
  rot;
* ``repro.api.__all__`` matches the list the document publishes (the doc
  itself asserts it, and we re-assert independently here), every name
  resolves, and the server package stays on the facade side of the
  line — no engine internals.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
API_DOC = REPO / "docs" / "api.md"

DOCUMENTED_ALL = [
    "Catalog",
    "ExecutionOptions",
    "ExecutionResult",
    "Plan",
    "ProgressReport",
    "QueryHandle",
    "QueryService",
    "Session",
    "connect",
]


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestDocSnippets:
    def test_api_doc_snippets_execute_verbatim(self):
        blocks = python_blocks(API_DOC.read_text())
        # The doc promises executable examples; make sure extraction
        # found the quickstart and friends rather than silently nothing.
        assert len(blocks) >= 5
        namespace = {}
        for index, block in enumerate(blocks):
            try:
                exec(compile(block, "docs/api.md#%d" % index, "exec"),
                     namespace)
            except Exception as exc:  # pragma: no cover - failure detail
                pytest.fail(
                    "docs/api.md block %d failed: %s\n---\n%s"
                    % (index, exc, block)
                )


class TestExportedSurface:
    def test_all_matches_documented_list(self):
        import repro.api

        assert repro.api.__all__ == DOCUMENTED_ALL

    def test_doc_publishes_the_same_list(self):
        text = API_DOC.read_text()
        for name in DOCUMENTED_ALL:
            assert '"%s",' % name in text

    def test_every_exported_name_resolves(self):
        import repro.api

        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_root_reexports_facade_entry_points(self):
        import repro

        for name in ("connect", "Session", "ExecutionOptions",
                     "QueryHandle", "QueryService"):
            assert getattr(repro, name) is not None


class TestNoCompatibilityLayer:
    def test_only_fork_guard_mentions_deprecation_warning(self):
        # No shim survives: the one DeprecationWarning the package handles
        # is the interpreter's fork-in-threads warning, in _fork_guard.
        import inspect

        from repro.service import procpool

        src = REPO / "src" / "repro"
        mentions = {}
        for path in sorted(src.rglob("*.py")):
            count = path.read_text().count("DeprecationWarning")
            if count:
                mentions[str(path.relative_to(src))] = count
        guard = inspect.getsource(procpool._fork_guard)
        assert mentions == {
            "service/procpool.py": guard.count("DeprecationWarning")
        }

    def test_connect_has_no_protocol_keyword(self):
        import repro

        with pytest.raises(TypeError):
            repro.connect(protocol="two_pass")


class TestServerStaysOnTheFacadeSide:
    def test_server_imports_no_engine_internals(self):
        server_dir = REPO / "src" / "repro" / "server"
        offending = {}
        for path in sorted(server_dir.glob("*.py")):
            hits = [
                line.strip()
                for line in path.read_text().splitlines()
                if re.match(r"\s*(from|import)\s+repro\.engine", line)
            ]
            if hits:
                offending[path.name] = hits
        assert not offending, (
            "repro.server must consume the facade, not engine internals: %r"
            % offending
        )

    def test_no_raw_env_reads_outside_options(self):
        src = REPO / "src" / "repro"
        offending = {}
        for path in sorted(src.rglob("*.py")):
            if path.name == "options.py":
                continue
            for line in path.read_text().splitlines():
                if line.strip().startswith("#"):
                    continue
                if re.search(r"environ(\.get)?\s*[\[(]\s*['\"]REPRO_",
                             line):
                    offending.setdefault(
                        str(path.relative_to(src)), []
                    ).append(line.strip())
        assert not offending, (
            "REPRO_* environment reads must go through "
            "ExecutionOptions.resolve(): %r" % offending
        )

    def test_repro_bounds_is_resolved_only_in_options(self):
        # The generic sweep above already forbids raw reads anywhere else;
        # this pins the positive half — the REPRO_BOUNDS environment read
        # (`_env(...)` / `environ[...]`) lives in options.py and nowhere
        # else.  Comments and CLI help may *mention* the variable freely.
        src = REPO / "src" / "repro"
        read_pattern = re.compile(
            r"(_env|environ(\.get)?\s*[\[(])\s*\(?\s*['\"]REPRO_BOUNDS"
        )
        readers = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if read_pattern.search(path.read_text())
        ]
        assert readers == ["options.py"]
