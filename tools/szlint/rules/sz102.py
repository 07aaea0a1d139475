"""SZ102 — determinism guard for encode/decode modules.

The codec promises byte-identical output for identical input across
machines and runs.  Inside the pipeline modules that produce or consume
stream bytes, this rule flags the constructs that silently break that
promise:

* wall-clock reads (``time.time``, ``datetime.now``, ...) — monotonic
  timers (``perf_counter``/``monotonic``) are allowed: they feed
  diagnostics, never output bytes;
* ``random`` module usage, and unseeded ``np.random`` generators;
* ``id(...)`` / ``hash(...)`` values (interpreter-run dependent; using
  ``hash`` inside ``__hash__``/``__eq__`` is exempt);
* iteration over set literals / ``set(...)`` (order is hash-dependent;
  wrap in ``sorted(...)``);
* dtype-unspecified NumPy reductions (``sum``/``cumsum``/``prod``
  without ``dtype=`` or ``out=``) — the default accumulator is the
  platform ``intp``, so a 32-bit host rounds differently and entropy
  cost models may pick different parameters.  The ufunc-method
  spellings of the same reductions (``np.add.reduce``/``reduceat``/
  ``accumulate``, and ``np.multiply.*``) carry the same accumulator
  hazard and are flagged identically; dtype-preserving ufuncs
  (``bitwise_or``, ``maximum``, ...) are exempt — they never widen.
"""

from __future__ import annotations

import ast

from tools.szlint.asthelpers import callee_name, dotted_name, int_literal
from tools.szlint.diagnostics import Diagnostic
from tools.szlint.rules import Rule

__all__ = ["SZ102"]

#: path fragments marking encode/decode pipeline modules.  repro/obs/ is
#: included because its hooks run inside those modules: a wall-clock read
#: there would execute on the encode path (Collector injects its clocks
#: as constructor parameters instead).
#: repro/parallel/ is in scope because its pool_map workers run the
#: compressor on tiles and files: byte-identical output across worker
#: counts depends on them being as deterministic as the serial path.
#: repro/tuning/ is in scope because estimates promise determinism too
#: (same source + fraction + seed => identical prediction): its sampler
#: must draw from seeded generators and its models must pin reduction
#: dtypes exactly like the encode path.
SCOPE = (
    "repro/core/",
    "repro/encoding/",
    "repro/chunked/",
    "repro/obs/",
    "repro/parallel/",
    "repro/tuning/",
)

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}
_REDUCTIONS = {"sum", "cumsum", "prod"}
#: ufunc methods that reduce with a (possibly widening) accumulator.
_UFUNC_REDUCTION_METHODS = {"reduce", "reduceat", "accumulate"}
#: ufuncs whose reductions widen integer inputs to the platform ``intp``
#: by default.  Dtype-preserving ufuncs (bitwise_or, maximum, minimum,
#: logical_*) keep the input dtype and are deterministic as-is.
_ACCUMULATING_UFUNCS = {"add", "multiply"}
_HASH_EXEMPT_DEFS = {"__hash__", "__eq__"}


class SZ102(Rule):
    rule_id = "SZ102"

    def applies(self, module: str) -> bool:
        return any(fragment in module for fragment in SCOPE)

    def check(
        self, path: str, module: str, tree: ast.Module, source: str
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []

        def diag(node: ast.AST, message: str) -> None:
            out.append(
                Diagnostic(path, node.lineno, self.rule_id, message)
            )

        sorted_wrapped: set[int] = set()
        hash_exempt_ranges: list[tuple[int, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name in _HASH_EXEMPT_DEFS
            ):
                hash_exempt_ranges.append(
                    (node.lineno, node.end_lineno or node.lineno)
                )
            if isinstance(node, ast.Call) and callee_name(node) == "sorted":
                for arg in node.args:
                    sorted_wrapped.add(id(arg))

        def in_hash_exempt(node: ast.AST) -> bool:
            return any(
                lo <= node.lineno <= hi for lo, hi in hash_exempt_ranges
            )

        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modname = (
                    node.module
                    if isinstance(node, ast.ImportFrom)
                    else None
                )
                names = [a.name for a in node.names]
                if modname == "random" or "random" in names:
                    diag(node, "import of `random` in an encode/decode module")
                continue
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if id(it) in sorted_wrapped:
                    continue
                if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call) and callee_name(it) == "set"
                ):
                    diag(
                        it,
                        "iteration over a set (hash-order dependent); "
                        "wrap in sorted(...)",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = callee_name(node)
            dotted = dotted_name(node.func) or ""
            if dotted in _WALL_CLOCK:
                diag(
                    node,
                    f"wall-clock read `{dotted}` (use perf_counter/"
                    "monotonic for diagnostics)",
                )
            elif dotted.startswith("random."):
                diag(node, f"`{dotted}` call in an encode/decode module")
            elif "random" in dotted.split(".") and name == "default_rng":
                if not node.args or int_literal(node.args[0]) is None:
                    diag(
                        node,
                        "unseeded np.random generator in an encode/decode "
                        "module (pass a literal seed)",
                    )
            elif name in {"id", "hash"} and isinstance(node.func, ast.Name):
                if name == "hash" and in_hash_exempt(node):
                    continue
                diag(
                    node,
                    f"`{name}()` value is interpreter-run dependent",
                )
            elif name in _REDUCTIONS and isinstance(node.func, ast.Attribute):
                # Attribute form only: `np.sum(x)` / `x.sum()`.  The
                # builtin `sum(...)` over Python ints is deterministic.
                kwargs = {kw.arg for kw in node.keywords}
                if "dtype" not in kwargs and "out" not in kwargs:
                    diag(
                        node,
                        f"dtype-unspecified `{name}` reduction (platform-"
                        "dependent accumulator); pass dtype= or out=",
                    )
            elif name in _UFUNC_REDUCTION_METHODS:
                # `np.add.reduce(x)` / `np.multiply.accumulate(x)`: same
                # intp-accumulator hazard as `sum`/`prod`, different
                # spelling.  The ufunc is the second-to-last component.
                parts = dotted.split(".")
                if (
                    len(parts) >= 2
                    and parts[-2] in _ACCUMULATING_UFUNCS
                ):
                    kwargs = {kw.arg for kw in node.keywords}
                    if "dtype" not in kwargs and "out" not in kwargs:
                        diag(
                            node,
                            f"dtype-unspecified `{parts[-2]}.{name}` ufunc "
                            "reduction (platform-dependent accumulator); "
                            "pass dtype= or out=",
                        )
        return out
