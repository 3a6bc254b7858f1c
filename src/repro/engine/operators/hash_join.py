"""Hash join (⋈hash): build on the left input, probe with the right.

Both inputs are consumed exactly once — the property Example 3 of the paper
leans on: for a scan-based plan the total number of getnext calls is squeezed
between Σ|inputs| and a small multiple of it, which is what makes progress
estimation worst-case tractable (§5.4).

With ``preserve_probe=True`` the join is a probe-side outer join: probe rows
without a surviving match are emitted once, padded with NULLs on the build
side (the LEFT JOIN shape of TPC-H Q13).  Outer joins are a small gift to
the bounds machinery — the output is now *at least* the probe cardinality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.expressions import BoundFn, Expression
from repro.engine.operators.base import HASH_JOIN, BinaryOperator, Operator
from repro.storage.table import Row


class HashJoin(BinaryOperator):
    """Equality hash join; the *left* child is the build side.

    The build phase runs inside the first ``get_next`` call (blocking with
    respect to the probe pipeline): the left child's getnext calls all tick
    before the first output row appears, which is exactly how the paper's
    pipeline decomposition sees a hash join.
    """

    kind = HASH_JOIN
    is_blocking = True

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_key: Expression,
        probe_key: Expression,
        residual: Optional[Expression] = None,
        linear: bool = False,
        preserve_probe: bool = False,
    ) -> None:
        super().__init__(build.schema.concat(probe.schema), build, probe)
        self.build_key = build_key
        self.probe_key = probe_key
        self.residual = residual
        self.is_linear = linear
        self.preserve_probe = preserve_probe
        self._null_pad: Row = (None,) * len(build.schema)
        self._emitted_for_probe = 0
        self._table: Dict[object, List[Row]] = {}
        self._built = False
        self._probe_row: Optional[Row] = None
        self._matches: List[Row] = []
        self._match_cursor = 0
        self._build_fn: Optional[BoundFn] = None
        self._probe_fn: Optional[BoundFn] = None
        self._residual_fn: Optional[BoundFn] = None

    @property
    def name(self) -> str:
        return "HashJoin"

    def describe(self) -> str:
        kind = "HashJoin(outer, " if self.preserve_probe else "HashJoin("
        return "%s%r = %r)" % (kind, self.build_key, self.probe_key)

    @property
    def build_child(self) -> Operator:
        return self.left

    @property
    def probe_child(self) -> Operator:
        return self.right

    @property
    def build_done(self) -> bool:
        """True once the build input is fully consumed."""
        return self._built

    def _open(self) -> None:
        self._table = {}
        self._built = False
        self._probe_row = None
        self._matches = []
        self._match_cursor = 0
        self._emitted_for_probe = 0

    def _rewind(self) -> None:
        # Keep the built hash table (spool semantics on ⋈NL rescans); only
        # the probe-side position restarts.
        self._probe_row = None
        self._matches = []
        self._match_cursor = 0
        self._emitted_for_probe = 0

    def _bind(self) -> None:
        self._build_fn = self.build_key.bind(self.left.schema)
        self._probe_fn = self.probe_key.bind(self.right.schema)
        self._residual_fn = (
            self.residual.bind(self.schema) if self.residual is not None else None
        )

    def _build(self) -> None:
        if self._build_fn is None:
            self._bind()
        assert self._build_fn is not None
        while True:
            row = self.left.get_next()
            if row is None:
                break
            key = self._build_fn(row)
            if key is None:
                continue  # NULL keys never join
            self._table.setdefault(key, []).append(row)
        self._built = True

    def _next(self) -> Optional[Row]:
        if not self._built:
            self._build()
        assert self._probe_fn is not None
        while True:
            while self._match_cursor < len(self._matches):
                assert self._probe_row is not None
                joined = self._matches[self._match_cursor] + self._probe_row
                self._match_cursor += 1
                if self._residual_fn is None or self._residual_fn(joined) is True:
                    self._emitted_for_probe += 1
                    return joined
            if (
                self.preserve_probe
                and self._probe_row is not None
                and self._emitted_for_probe == 0
            ):
                self._emitted_for_probe += 1
                return self._null_pad + self._probe_row
            self._probe_row = self.right.get_next()
            if self._probe_row is None:
                return None
            key = self._probe_fn(self._probe_row)
            self._matches = [] if key is None else self._table.get(key, [])
            self._match_cursor = 0
            self._emitted_for_probe = 0

    def _close(self) -> None:
        self._build_fn = self._probe_fn = self._residual_fn = None
        self._table = {}
        self._matches = []
