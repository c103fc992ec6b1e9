"""Bottom-up interprocedural summarization of one module.

The advisor analyzes whole files: every top-level function and every
method of every top-level class gets its own CFG + dataflow pass (see
:mod:`repro.analyze.advise.dataflow`), in bottom-up call-graph order so
a helper's :class:`~repro.analyze.advise.dataflow.FunctionResult` is
available as a summary when its callers are analyzed.  This is what
lets a finding survive the ``apps/common.py``-style refactor where the
allocation happens in a wrapper: the wrapper's summary carries symbolic
``@param<N>`` origins that the call site resolves.

Calls are resolved by *bare name* within the module (``self._kernel``
and ``_kernel`` both hit ``Class._kernel``); recursion is broken by
simply analyzing a cycle member without its unresolved callee, which
degrades that call to TOP — sound for every check we run.  The module
body itself is analyzed last (qualname ``<module>``) so script-style
files like ``examples/slow_port.py`` work unchanged, and simple
module-level constants (``CHUNK_BYTES = 16 << 20``) are folded and
pre-seeded into every function's entry environment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cfg import CFG
from .dataflow import AbsState, FunctionResult, _Interp, analyze_function
from .values import NumVal, StrVal


@dataclass
class ModuleAnalysis:
    """Every function's dataflow result for one source file."""

    file: str
    #: qualname ("Class.method", "helper", "<module>") -> result.
    functions: Dict[str, FunctionResult] = field(default_factory=dict)
    #: (line, message) when the file did not parse.
    syntax_error: Optional[Tuple[int, str]] = None


def _fold_expr(expr: ast.expr):
    """Constant-fold a module-level expression to a number or string."""
    interp = _Interp(FunctionResult("<constants>", ""), CFG(), {})
    value = interp.eval(expr, AbsState())
    return value if isinstance(value, (NumVal, StrVal)) else None


def _module_constants(module: ast.Module) -> Dict[str, object]:
    """Fold simple ``NAME = <const>`` module assignments."""
    constants: Dict[str, object] = {}
    for stmt in module.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        if len(targets) == 1 and isinstance(targets[0], ast.Tuple) and (
            isinstance(value, ast.Tuple)
        ) and len(targets[0].elts) == len(value.elts):
            # CAP, RX, RY, RZ = 0.5, 1.0, 1.0, 4.75
            for t, v in zip(targets[0].elts, value.elts):
                if isinstance(t, ast.Name):
                    folded = _fold_expr(v)
                    if folded is not None:
                        constants[t.id] = folded
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                folded = _fold_expr(value)
                if folded is not None:
                    constants[target.id] = folded
    return constants


_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _collect_functions(
    module: ast.Module,
) -> List[Tuple[str, ast.FunctionDef]]:
    """(qualname, def) for every top-level function and class method."""
    out: List[Tuple[str, ast.FunctionDef]] = []
    for stmt in module.body:
        if isinstance(stmt, _FuncDef):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _FuncDef):
                    out.append((f"{stmt.name}.{item.name}", item))
    return out


def _non_self_params(fn: ast.FunctionDef) -> List[ast.arg]:
    args = list(fn.args.posonlyargs) + list(fn.args.args)
    return [a for a in args if a.arg not in ("self", "cls")]


def _param_defaults(fn: ast.FunctionDef) -> Dict[int, object]:
    """index (into non-self params) -> folded default value."""
    all_args = list(fn.args.posonlyargs) + list(fn.args.args)
    defaults = fn.args.defaults
    by_name: Dict[str, object] = {}
    for arg, default in zip(all_args[len(all_args) - len(defaults):],
                            defaults):
        folded = _fold_expr(default)
        if folded is not None:
            by_name[arg.arg] = folded
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            folded = _fold_expr(default)
            if folded is not None:
                by_name[arg.arg] = folded
    params = _non_self_params(fn)
    return {
        i: by_name[p.arg] for i, p in enumerate(params) if p.arg in by_name
    }


def _called_names(fn_body: Sequence[ast.stmt]) -> List[str]:
    names: List[str] = []
    for stmt in fn_body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    names.append(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    names.append(node.func.attr)
    return names


def analyze_module(source: str, file: str) -> ModuleAnalysis:
    """Parse *source* and run the dataflow over every function in it."""
    analysis = ModuleAnalysis(file=file)
    try:
        module = ast.parse(source, filename=file)
    except SyntaxError as exc:
        analysis.syntax_error = (exc.lineno or 1, exc.msg or "syntax error")
        return analysis

    constants = _module_constants(module)
    functions = _collect_functions(module)
    by_bare: Dict[str, str] = {}
    for qualname, fn in functions:
        by_bare[qualname.rsplit(".", 1)[-1]] = qualname
    defs = dict(functions)

    #: bare name -> FunctionResult, the summary table callers consult.
    summaries: Dict[str, FunctionResult] = {}

    visiting: List[str] = []

    def visit(qualname: str) -> None:
        if qualname in analysis.functions or qualname in visiting:
            return  # done, or a recursion cycle (degrade to TOP)
        fn = defs[qualname]
        visiting.append(qualname)
        for callee_bare in _called_names(fn.body):
            callee = by_bare.get(callee_bare)
            if callee is not None and callee != qualname:
                visit(callee)
        visiting.pop()
        result = analyze_function(
            qualname=qualname,
            body=fn.body,
            params=_non_self_params(fn),
            defaults=_param_defaults(fn),
            file=file,
            summaries=summaries,
            globals_env=constants,
        )
        analysis.functions[qualname] = result
        summaries[qualname.rsplit(".", 1)[-1]] = result

    for qualname, _ in functions:
        visit(qualname)

    # The module body last, seeing every function's summary.
    body = [
        stmt
        for stmt in module.body
        if not isinstance(stmt, (ast.ClassDef,) + _FuncDef)
    ]
    analysis.functions["<module>"] = analyze_function(
        qualname="<module>",
        body=body,
        params=[],
        defaults={},
        file=file,
        summaries=summaries,
        globals_env=constants,
    )
    return analysis
