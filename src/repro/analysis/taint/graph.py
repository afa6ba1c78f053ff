"""Handler-graph extraction for the taint analysis.

Walks the corpus for ``register_handler(MessageType, self._handler)``
and ``register_kind(prefix, context_type, body, validator=...)`` calls and
resolves each handler expression to its function definition. The
resulting :class:`HandlerInfo` records are the analysis roots: message
payloads enter the system exactly here, already envelope-verified by
``HostNode.on_message`` but with *content* still untrusted.

The extracted graph (plus the call edges the engine discovers while
walking it) can be rendered as a DOT artifact for review.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.lint.engine import SourceFile

__all__ = ["HandlerInfo", "CorpusIndex", "build_index", "extract_handlers",
           "render_dot"]


@dataclass(frozen=True)
class HandlerInfo:
    """One analysis root: a registered wire-message handler."""

    #: "handler" (register_handler) or "validator" (register_kind).
    kind: str
    #: Message class name for handlers; endorsement prefix for validators.
    message: str
    qualname: str
    class_name: str
    func_name: str
    path: str
    line: int


@dataclass
class CorpusIndex:
    """Name-resolution tables for one corpus."""

    #: (path, class name) -> {method name -> FunctionDef}
    methods: dict[tuple[str, str], dict[str, ast.FunctionDef]] = \
        field(default_factory=dict)
    #: path -> {function name -> FunctionDef}
    functions: dict[str, dict[str, ast.FunctionDef]] = \
        field(default_factory=dict)
    #: path -> SourceFile
    sources: dict[str, SourceFile] = field(default_factory=dict)


def build_index(files: Sequence[SourceFile]) -> CorpusIndex:
    """Index every class method and module function in the corpus."""
    index = CorpusIndex()
    for src in files:
        index.sources[src.display] = src
        table: dict[str, ast.FunctionDef] = {}
        index.functions[src.display] = table
        for node in src.tree.body:
            if isinstance(node, ast.FunctionDef):
                table[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, ast.FunctionDef] = {}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = item
                index.methods[(src.display, node.name)] = methods
    return index


def _handler_target(expr: ast.expr) -> str | None:
    """Resolve a handler expression to a method/function name."""
    if isinstance(expr, ast.Attribute) and \
            isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _message_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Constant):
        return str(expr.value)
    if isinstance(expr, ast.JoinedStr):
        parts = [str(v.value) for v in expr.values
                 if isinstance(v, ast.Constant)]
        return "".join(parts) + "*"
    return "<dynamic>"


def extract_handlers(files: Sequence[SourceFile]) -> list[HandlerInfo]:
    """Find every registration site, sorted by (path, line)."""
    handlers: list[HandlerInfo] = []
    for src in files:
        for node in src.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    func.id if isinstance(func, ast.Name) else ""
                if name == "register_handler" and len(call.args) >= 2:
                    target = _handler_target(call.args[1])
                    if target is None:
                        continue
                    handlers.append(HandlerInfo(
                        kind="handler",
                        message=_message_name(call.args[0]),
                        qualname=f"{node.name}.{target}",
                        class_name=node.name, func_name=target,
                        path=src.display, line=call.lineno))
                elif name == "register_kind" and call.args:
                    # register_kind(prefix, context_type, body, validator)
                    candidates: list[ast.expr] = list(call.args[3:4])
                    for kw in call.keywords:
                        if kw.arg == "validator":
                            candidates = [kw.value]
                    for expr in candidates:
                        target = _handler_target(expr)
                        if target is None:
                            continue
                        handlers.append(HandlerInfo(
                            kind="validator",
                            message=_message_name(call.args[0]),
                            qualname=f"{node.name}.{target}",
                            class_name=node.name, func_name=target,
                            path=src.display, line=call.lineno))
    return sorted(handlers, key=lambda h: (h.path, h.line, h.qualname))


def render_dot(handlers: Sequence[HandlerInfo],
               call_edges: Sequence[tuple[str, str]]) -> str:
    """Render the handler-flow graph as GraphViz DOT (deterministic)."""
    lines = ["digraph handlers {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    messages = sorted({h.message for h in handlers})
    for message in messages:
        lines.append(f'  "{message}" [shape=box, style=filled, '
                     'fillcolor=lightyellow];')
    for qualname in sorted({h.qualname for h in handlers}):
        lines.append(f'  "{qualname}" [shape=ellipse];')
    for handler in handlers:
        style = "solid" if handler.kind == "handler" else "dashed"
        lines.append(f'  "{handler.message}" -> "{handler.qualname}" '
                     f'[style={style}];')
    for caller, callee in sorted(set(call_edges)):
        lines.append(f'  "{caller}" -> "{callee}" [color=gray];')
    lines.append("}")
    return "\n".join(lines) + "\n"
